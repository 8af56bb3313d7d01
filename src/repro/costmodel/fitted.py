"""Fitted cost model: per-category least squares over operator features.

For each cost category the model fits ``duration ≈ a·flops + b·mem_bytes +
c`` by ordinary least squares (normal equations, pure python — no numpy in
the dependency budget).  Degenerate design matrices fall back through an
ordered chain of smaller feature sets (flops+const, bytes+const, const)
until one is solvable, so a category whose records all have identical flops
still fits.  Categories unseen in the trace use a global fit over all
compute records; with no usable fit at all, pricing defers to the roofline.

Comm records fit ``duration ≈ a·bytes + b`` per channel the same way.
Predictions clamp at zero (a fitted line can go negative below the measured
range; a kernel cannot).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.base import CostModel, OpSample, finite_float
from repro.costmodel.roofline import default_roofline
from repro.costmodel.trace import Trace, TraceRecord
from repro.errors import CostModelError
from repro.sim.device import DeviceSpec, Link, MachineSpec

__all__ = ["FittedCostModel"]

#: Feature-set fallback chain: names are keys into the feature extractor.
_FEATURE_SETS: Tuple[Tuple[str, ...], ...] = (
    ("flops", "mem_bytes", "const"),
    ("flops", "const"),
    ("mem_bytes", "const"),
    ("const",),
)

#: Coefficients of one fit: (feature names, weights).
_Fit = Tuple[Tuple[str, ...], Tuple[float, ...]]


def _features(record: TraceRecord) -> Dict[str, float]:
    return {"flops": record.flops, "mem_bytes": record.mem_bytes, "const": 1.0}


def _sample_features(sample: OpSample) -> Dict[str, float]:
    return {"flops": sample.flops, "mem_bytes": sample.mem_bytes, "const": 1.0}


def _solve(matrix: List[List[float]], rhs: List[float]) -> Optional[List[float]]:
    """Gaussian elimination with partial pivoting; None when singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    scale = max(abs(v) for row in matrix for v in row) or 1.0
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) < 1e-12 * scale:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for row in range(col + 1, n):
            factor = aug[row][col] / pivot
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    result = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n] - sum(aug[row][k] * result[k] for k in range(row + 1, n))
        result[row] = acc / aug[row][row]
    return result


def _least_squares(
    rows: Sequence[Dict[str, float]],
    targets: Sequence[float],
    names: Tuple[str, ...],
) -> Optional[Tuple[float, ...]]:
    """Solve the normal equations for the given feature subset."""
    n = len(names)
    if len(rows) < n:
        return None
    # Equilibrate columns before forming the normal equations: flops (~1e9)
    # next to const (1.0) would otherwise make well-posed systems fail the
    # singularity test (and genuinely singular ones pass it).
    scales = [
        max(abs(row[name]) for row in rows) or 1.0 for name in names
    ]
    xtx = [[0.0] * n for _ in range(n)]
    xty = [0.0] * n
    for row, target in zip(rows, targets):
        values = [row[name] / s for name, s in zip(names, scales)]
        for i in range(n):
            xty[i] += values[i] * target
            for j in range(n):
                xtx[i][j] += values[i] * values[j]
    solution = _solve(xtx, xty)
    if solution is None:
        return None
    return tuple(w / s for w, s in zip(solution, scales))


def _fit_records(records: Sequence[TraceRecord]) -> Optional[_Fit]:
    """Fit the first solvable feature set from the fallback chain."""
    rows = [_features(r) for r in records]
    targets = [r.duration for r in records]
    for names in _FEATURE_SETS:
        weights = _least_squares(rows, targets, names)
        if weights is not None:
            return (names, weights)
    return None


def _predict(fit: _Fit, features: Dict[str, float]) -> float:
    names, weights = fit
    return max(0.0, sum(w * features[name] for name, w in zip(names, weights)))


class FittedCostModel(CostModel):
    """Least-squares pricing fitted from a measured trace.

    Build one with :meth:`fit` (or :func:`repro.costmodel.fit_cost_model`).
    Lookup order per op: category fit → global fit → roofline fallback.
    """

    name = "fitted"

    def __init__(
        self,
        *,
        category_fits: Dict[str, _Fit],
        global_fit: Optional[_Fit] = None,
        comm_fits: Optional[Dict[str, Tuple[float, float]]] = None,
    ):
        """Construct from precomputed fits (normally via :meth:`fit`).

        Args:
            category_fits: Per-category (feature names, weights) fits.
            global_fit: Fit over all compute records, the fallback tier for
                unseen categories.
            comm_fits: Per-channel ``(slope, intercept)`` fits over bytes.

        Raises:
            CostModelError: When no fit of any kind is provided.
        """
        if not category_fits and global_fit is None and not comm_fits:
            raise CostModelError(
                "fitted cost model has no coefficients; fit it from a "
                "non-empty trace (see FittedCostModel.fit)"
            )
        self._category_fits = dict(category_fits)
        self._global_fit = global_fit
        self._comm_fits = dict(comm_fits or {})
        self._fallback = default_roofline()

    @classmethod
    def fit(cls, trace: Trace) -> "FittedCostModel":
        """Fit per-category + global + per-channel coefficients from a trace.

        Args:
            trace: The measured trace.

        Returns:
            A :class:`FittedCostModel`.

        Raises:
            CostModelError: When the trace yields no solvable fit at all.
        """
        compute = trace.compute_records()
        by_category: Dict[str, List[TraceRecord]] = {}
        for record in compute:
            by_category.setdefault(record.category, []).append(record)
        category_fits = {
            category: fit
            for category, records in by_category.items()
            for fit in [_fit_records(records)]
            if fit is not None
        }
        global_fit = _fit_records(compute) if compute else None

        comm_fits: Dict[str, Tuple[float, float]] = {}
        by_channel: Dict[str, List[TraceRecord]] = {}
        for record in trace.comm_records():
            by_channel.setdefault(record.channel, []).append(record)
        for channel, records in by_channel.items():
            rows = [{"mem_bytes": r.comm_bytes, "const": 1.0} for r in records]
            targets = [r.duration for r in records]
            for names in (("mem_bytes", "const"), ("const",)):
                weights = _least_squares(rows, targets, names)
                if weights is not None:
                    slope = weights[0] if "mem_bytes" in names else 0.0
                    intercept = weights[-1]
                    comm_fits[channel] = (slope, intercept)
                    break
        if not category_fits and global_fit is None and not comm_fits:
            raise CostModelError(
                "cannot fit a fitted cost model from this trace "
                "(no solvable feature set)"
            )
        return cls(
            category_fits=category_fits,
            global_fit=global_fit,
            comm_fits=comm_fits,
        )

    def op_time(
        self, sample: OpSample, device: DeviceSpec, machine: MachineSpec
    ) -> float:
        """Fitted kernel time for ``sample`` (category fit, else global fit,
        else roofline).

        Args:
            sample: Operator features of the launch.
            device: Target device (roofline fallback only).
            machine: Machine model (roofline fallback only).

        Returns:
            The predicted kernel time in seconds (clamped at zero).
        """
        fit = self._category_fits.get(sample.category) or self._global_fit
        if fit is not None:
            return _predict(fit, _sample_features(sample))
        return self._fallback.op_time(sample, device, machine)

    def comm_time(
        self,
        comm_bytes: float,
        *,
        link: Optional[Link] = None,
        channel: Optional[str] = None,
    ) -> Optional[float]:
        """Fitted transfer time ``a·bytes + b`` for the channel, or ``None``
        when the channel was never measured.

        Args:
            comm_bytes: Transfer volume in bytes.
            link: Resolved link (its ``kind`` keys the fit when ``channel``
                is not given).
            channel: Channel name keying the fit.

        Returns:
            The predicted transfer time (clamped at zero), or ``None``.
        """
        key = channel or (link.kind if link is not None else None)
        if key is None or key not in self._comm_fits:
            return None
        slope, intercept = self._comm_fits[key]
        return max(0.0, slope * comm_bytes + intercept)

    def to_dict(self) -> Dict[str, object]:
        """Serialised coefficients (inverse of :meth:`from_dict`)."""
        return {
            "model": self.name,
            "category_fits": {
                category: {"features": list(names), "weights": list(weights)}
                for category, (names, weights) in sorted(self._category_fits.items())
            },
            "global_fit": (
                {
                    "features": list(self._global_fit[0]),
                    "weights": list(self._global_fit[1]),
                }
                if self._global_fit is not None
                else None
            ),
            "comm_fits": {
                channel: list(fit)
                for channel, fit in sorted(self._comm_fits.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FittedCostModel":
        """Rebuild a fitted model from :meth:`to_dict` output.

        Raises:
            CostModelError: When the payload is not a fitted-model payload,
                names an unknown feature, or holds a non-finite weight.
        """
        if payload.get("model") != cls.name:
            raise CostModelError(
                f"payload is not a fitted cost model: model={payload.get('model')!r}"
            )

        def unpack(raw: Dict[str, object]) -> _Fit:
            names = tuple(raw["features"])
            weights = tuple(finite_float(w, "fitted weight") for w in raw["weights"])
            unknown = [n for n in names if n not in _FEATURE_SETS[0]]
            if unknown or len(names) != len(weights):
                raise CostModelError(
                    f"fitted payload fit {raw!r} needs one weight per feature "
                    f"named from {list(_FEATURE_SETS[0])}"
                )
            return names, weights

        def comm_fit(channel: str, raw: object) -> Tuple[float, float]:
            slope, intercept = raw
            what = f"fitted comm fit {channel!r}"
            return finite_float(slope, what), finite_float(intercept, what)

        raw_global = payload.get("global_fit")
        return cls(
            category_fits={
                c: unpack(f) for c, f in payload.get("category_fits", {}).items()
            },
            global_fit=unpack(raw_global) if raw_global is not None else None,
            comm_fits={
                ch: comm_fit(ch, fit)
                for ch, fit in payload.get("comm_fits", {}).items()
            },
        )
