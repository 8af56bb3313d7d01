"""The budgeted strategy autotuner (what ``strategy="auto"`` runs on).

Where the original auto sweep fully simulated a fixed 16-candidate list one
by one, this package searches a fixed grid over the strategy algebra —
machine scopes × replica groups × pipeline stages × micro-batch counts ×
schedules — in three stages: cheap memory **screening** (a static footprint
estimate plus a ``lower_only`` compile whose per-device memory report is
checked against capacity; a screened candidate's task rows are never
emitted), budgeted **search** (survivors fully simulated in-process,
through the caller's planner and executor caches), and **ranking** (a
Pareto frontier over iteration time, peak device memory, machine count).

Entry points: :class:`Tuner` / :class:`TunerBudget` programmatically,
``repro.compile(graph, "auto", tuner=Tuner(...))`` on the compile path, and
``tofu-repro compile --strategy auto`` on the command line.  To sweep other
axes, pass ``Tuner().tune(..., candidates=[...])``.
"""

from repro.tuner.budget import TunerBudget
from repro.tuner.candidates import (
    aligned_replica_groups,
    machine_compute_profile,
    tuner_candidates,
)
from repro.tuner.core import Tuner
from repro.tuner.result import CandidateOutcome, TunerResult, pareto_frontier

__all__ = [
    "CandidateOutcome",
    "Tuner",
    "TunerBudget",
    "TunerResult",
    "aligned_replica_groups",
    "machine_compute_profile",
    "pareto_frontier",
    "tuner_candidates",
]
