"""Table cost model: piecewise-linear lookup over measured trace points.

The table keeps, per operator (and per category as a coarser tier), the
measured ``(size, duration)`` points from a trace, where *size* is flops for
compute-bound records and bytes for the rest.  Pricing interpolates:

* exact or in-range sizes: linear interpolation between the two bracketing
  points;
* below the smallest / above the largest point: proportional scaling from
  the nearest end point (time/size is held constant), which keeps tiny and
  huge kernels monotone instead of extrapolating a fitted line below zero;
* operators never seen in the trace: fall back to the operator's *category*
  curve, then to the roofline.

Comm records build per-channel curves the same way, keyed on bytes; a
channel with no measurements defers to the simulator's link pricing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.base import CostModel, OpSample, finite_float
from repro.costmodel.roofline import default_roofline
from repro.costmodel.trace import Trace, TraceRecord
from repro.errors import CostModelError
from repro.sim.device import DeviceSpec, Link, MachineSpec

__all__ = ["TableCostModel"]

#: A lookup curve: sorted (size, duration) points.
_Curve = Tuple[Tuple[float, float], ...]


def _build_curve(points: Sequence[Tuple[float, float]]) -> _Curve:
    """Sort points by size and average duplicate sizes into one point."""
    by_size: Dict[float, List[float]] = {}
    for size, duration in points:
        by_size.setdefault(float(size), []).append(float(duration))
    return tuple(
        (size, sum(durations) / len(durations))
        for size, durations in sorted(by_size.items())
    )


def _interpolate(curve: _Curve, size: float) -> float:
    """Piecewise-linear lookup with proportional end-point scaling."""
    lo_size, lo_time = curve[0]
    hi_size, hi_time = curve[-1]
    if size <= lo_size:
        return lo_time * (size / lo_size) if lo_size > 0 else lo_time
    if size >= hi_size:
        return hi_time * (size / hi_size) if hi_size > 0 else hi_time
    for (s0, t0), (s1, t1) in zip(curve, curve[1:]):
        if s0 <= size <= s1:
            if s1 == s0:
                return t0
            frac = (size - s0) / (s1 - s0)
            return t0 + frac * (t1 - t0)
    return hi_time  # unreachable; curve covers [lo, hi]


def _record_size(record: TraceRecord) -> float:
    """The lookup key of a compute record: flops when present, else bytes."""
    return record.flops if record.flops > 0 else record.mem_bytes


def _sample_size(sample: OpSample) -> float:
    return sample.flops if sample.flops > 0 else sample.mem_bytes


class TableCostModel(CostModel):
    """Lookup-table pricing built from a measured trace.

    Build one with :meth:`fit` (or :func:`repro.costmodel.fit_cost_model`)
    and activate it with :func:`repro.costmodel.use_cost_model`.  Lookup
    order per op: op curve → category curve → roofline fallback.
    """

    name = "table"

    def __init__(
        self,
        *,
        op_curves: Dict[str, _Curve],
        category_curves: Dict[str, _Curve],
        comm_curves: Optional[Dict[str, _Curve]] = None,
    ):
        """Construct from prebuilt curves (normally via :meth:`fit`).

        Args:
            op_curves: Per-operator ``(size, duration)`` curves.
            category_curves: Per-category curves, the first fallback tier.
            comm_curves: Per-channel ``(bytes, duration)`` curves; channels
                absent here keep link-bandwidth pricing.

        Raises:
            CostModelError: When every curve dict is empty (the model could
                never price anything but the roofline fallback).
        """
        if not op_curves and not category_curves and not comm_curves:
            raise CostModelError(
                "table cost model has no measurements; fit it from a "
                "non-empty trace (see TableCostModel.fit)"
            )
        self._op_curves = dict(op_curves)
        self._category_curves = dict(category_curves)
        self._comm_curves = dict(comm_curves or {})
        self._fallback = default_roofline()

    @classmethod
    def fit(cls, trace: Trace) -> "TableCostModel":
        """Build a table model from a validated trace.

        Args:
            trace: The measured trace (see :mod:`repro.costmodel.trace`).

        Returns:
            A :class:`TableCostModel` with one curve per operator seen, one
            per category, and one per comm channel.

        Raises:
            CostModelError: When the trace holds no records at all.
        """
        op_points: Dict[str, List[Tuple[float, float]]] = {}
        category_points: Dict[str, List[Tuple[float, float]]] = {}
        comm_points: Dict[str, List[Tuple[float, float]]] = {}
        for record in trace.records:
            if record.kind == "compute":
                size = _record_size(record)
                op_points.setdefault(record.op, []).append((size, record.duration))
                category_points.setdefault(record.category, []).append(
                    (size, record.duration)
                )
            else:
                comm_points.setdefault(record.channel, []).append(
                    (record.comm_bytes, record.duration)
                )
        if not op_points and not comm_points:
            raise CostModelError(
                "cannot fit a table cost model from an empty trace"
            )
        return cls(
            op_curves={op: _build_curve(pts) for op, pts in op_points.items()},
            category_curves={
                cat: _build_curve(pts) for cat, pts in category_points.items()
            },
            comm_curves={ch: _build_curve(pts) for ch, pts in comm_points.items()},
        )

    def op_time(
        self, sample: OpSample, device: DeviceSpec, machine: MachineSpec
    ) -> float:
        """Interpolated kernel time for ``sample``.

        Looks up the operator's own curve, then its category curve, then
        falls back to the roofline (so a table fitted on an MLP still prices
        a convolution somehow).

        Args:
            sample: Operator features of the launch.
            device: Target device (used only by the roofline fallback).
            machine: Machine model (used only by the roofline fallback).

        Returns:
            The predicted kernel time in seconds.
        """
        size = _sample_size(sample)
        curve = self._op_curves.get(sample.op) or self._category_curves.get(
            sample.category
        )
        if curve:
            return max(0.0, _interpolate(curve, size))
        return self._fallback.op_time(sample, device, machine)

    def comm_time(
        self,
        comm_bytes: float,
        *,
        link: Optional[Link] = None,
        channel: Optional[str] = None,
    ) -> Optional[float]:
        """Interpolated transfer time, or ``None`` when this channel was
        never measured (keeping link-bandwidth pricing).

        Args:
            comm_bytes: Transfer volume in bytes.
            link: Resolved link (its ``kind`` keys the curve when
                ``channel`` is not given).
            channel: Channel name keying the curve.

        Returns:
            The predicted transfer time, or ``None`` to defer.
        """
        key = channel or (link.kind if link is not None else None)
        if key is None:
            return None
        curve = self._comm_curves.get(key)
        if not curve:
            return None
        return max(0.0, _interpolate(curve, comm_bytes))

    def to_dict(self) -> Dict[str, object]:
        """Serialised form carrying every curve (inverse of
        :meth:`from_dict`)."""
        return {
            "model": self.name,
            "op_curves": {
                op: [list(point) for point in curve]
                for op, curve in sorted(self._op_curves.items())
            },
            "category_curves": {
                cat: [list(point) for point in curve]
                for cat, curve in sorted(self._category_curves.items())
            },
            "comm_curves": {
                ch: [list(point) for point in curve]
                for ch, curve in sorted(self._comm_curves.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TableCostModel":
        """Rebuild a table model from :meth:`to_dict` output.

        Curves are re-sorted by size; every size and time must be a finite,
        non-negative number.

        Raises:
            CostModelError: When the payload is not a table-model payload or
                holds a non-finite or negative number.
        """
        if payload.get("model") != cls.name:
            raise CostModelError(
                f"payload is not a table cost model: model={payload.get('model')!r}"
            )

        def curves(key: str) -> Dict[str, _Curve]:
            return {
                name: _build_curve(
                    (
                        finite_float(size, f"{key}[{name!r}] size", nonnegative=True),
                        finite_float(time, f"{key}[{name!r}] time", nonnegative=True),
                    )
                    for size, time in points
                )
                for name, points in payload.get(key, {}).items()
            }

        return cls(
            op_curves=curves("op_curves"),
            category_curves=curves("category_curves"),
            comm_curves=curves("comm_curves"),
        )
