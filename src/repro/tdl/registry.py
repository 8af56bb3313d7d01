"""Registry mapping operator names to their TDL descriptions.

The operator library (:mod:`repro.ops`) registers a description for every
operator it defines; the partition-strategy discovery pass looks descriptions
up here.  The registry also powers the Sec 4.1 coverage statistics
(describable / element-wise / opaque / with-reduction counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import TDLError
from repro.tdl.lang import TDLOperator


@dataclass
class DescriptionEntry:
    """A registered TDL description together with catalogue metadata."""

    name: str
    description: Optional[TDLOperator]
    describable: bool
    category: str  # "elementwise" | "reduction" | "opaque" | "general" | "undescribable"
    reason: Optional[str] = None  # why undescribable, for the coverage report


class DescriptionRegistry:
    """Holds TDL descriptions keyed by operator name."""

    def __init__(self) -> None:
        self._entries: Dict[str, DescriptionEntry] = {}

    def register(
        self,
        description: TDLOperator,
        *,
        name: Optional[str] = None,
    ) -> DescriptionEntry:
        op_name = name or description.name
        if description.has_opaque:
            category = "opaque"
        elif description.is_elementwise():
            category = "elementwise"
        elif description.reduction_vars:
            category = "reduction"
        else:
            category = "general"
        entry = DescriptionEntry(
            name=op_name,
            description=description,
            describable=True,
            category=category,
        )
        self._entries[op_name] = entry
        return entry

    def register_undescribable(self, name: str, reason: str) -> DescriptionEntry:
        """Record an operator that TDL cannot express (Sec 4.1 lists three
        such categories: sparse manipulation, dynamic output shapes, and
        data-dependent indexing)."""
        entry = DescriptionEntry(
            name=name,
            description=None,
            describable=False,
            category="undescribable",
            reason=reason,
        )
        self._entries[name] = entry
        return entry

    # ---------------------------------------------------------------- access
    def get(self, name: str) -> Optional[TDLOperator]:
        entry = self._entries.get(name)
        if entry is None:
            return None
        return entry.description

    def require(self, name: str) -> TDLOperator:
        description = self.get(name)
        if description is None:
            raise TDLError(f"operator {name!r} has no TDL description")
        return description

    def entry(self, name: str) -> Optional[DescriptionEntry]:
        return self._entries.get(name)

    def __contains__(self, name: str) -> bool:
        entry = self._entries.get(name)
        return entry is not None and entry.describable

    def names(self) -> List[str]:
        return sorted(self._entries)

    # ------------------------------------------------------------ statistics
    def coverage_report(self) -> Dict[str, int]:
        """Statistics matching the breakdown reported in Sec 4.1."""
        report = {
            "total": 0,
            "describable": 0,
            "elementwise": 0,
            "opaque": 0,
            "with_reduction": 0,
            "undescribable": 0,
        }
        for entry in self._entries.values():
            report["total"] += 1
            if not entry.describable:
                report["undescribable"] += 1
                continue
            report["describable"] += 1
            if entry.category == "elementwise":
                report["elementwise"] += 1
            elif entry.category == "opaque":
                report["opaque"] += 1
            elif entry.category == "reduction":
                report["with_reduction"] += 1
        return report


#: The process-global registry used by :mod:`repro.ops`.
GLOBAL_REGISTRY = DescriptionRegistry()


def get_description(name: str) -> Optional[TDLOperator]:
    return GLOBAL_REGISTRY.get(name)
