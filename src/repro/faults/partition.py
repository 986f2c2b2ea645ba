"""Time-varying channel faults: partitions and scripted drop bursts.

The stationary models of :mod:`repro.faults.models` decide each
attempt's fate from seeded randomness alone. Chaos plans need the
*time-varying* complement: during a network partition every message
crossing the cut is lost; during a scripted burst a single edge goes
dark. Both are expressed as drop *windows* evaluated against the
attempt's real time, composed over an arbitrary base model (loss and
duplication outside the windows still follow the base model, default
:class:`~repro.faults.models.NoFaults`).

These models deliberately break the ``max_consecutive_drops`` fairness
bound *inside* their windows — that is the point of injecting them; the
retransmission adapter's worst-case analysis resumes holding once the
window closes. :attr:`TimelineFaultModel.max_consecutive_drops` reports
the base model's bound, which is the steady-state (outside-window)
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.constants import TOLERANCE as _TOLERANCE
from repro.errors import SpecificationError
from repro.faults.models import FaultModel, NoFaults

Edge = Tuple[int, int]


@dataclass(frozen=True)
class DropWindow:
    """Base class: a half-open real-time window ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise SpecificationError(
                f"invalid drop window [{self.start:g}, {self.end:g})"
            )

    def active(self, now: float) -> bool:
        """Whether ``now`` falls inside the half-open window."""
        return self.start - _TOLERANCE <= now < self.end - _TOLERANCE

    def severs(self, edge: Edge, now: float) -> bool:
        """Whether this window cuts the directed ``edge`` at ``now``."""
        raise NotImplementedError


@dataclass(frozen=True)
class EdgeDropWindow(DropWindow):
    """One directed edge goes dark during the window (``drop_burst``)."""

    edge: Edge = (0, 0)

    def severs(self, edge: Edge, now: float) -> bool:
        return tuple(edge) == tuple(self.edge) and self.active(now)


@dataclass(frozen=True)
class PartitionWindow(DropWindow):
    """A partition into node groups; cross-group edges drop everything.

    ``groups`` are disjoint node sets (a :mod:`repro.network.topology`
    grouping). An edge is severed iff its endpoints lie in *different*
    groups; nodes not listed in any group form an implicit extra group
    of singletons is **not** assumed — an unlisted endpoint communicates
    freely (it sits outside the partition experiment).
    """

    groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        seen = set()
        for group in self.groups:
            for node in group:
                if node in seen:
                    raise SpecificationError(
                        f"node {node} appears in two partition groups"
                    )
                seen.add(node)

    def _group_of(self, node: int) -> Optional[int]:
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return None

    def severs(self, edge: Edge, now: float) -> bool:
        if not self.active(now):
            return False
        src_group = self._group_of(edge[0])
        dst_group = self._group_of(edge[1])
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group


class TimelineFaultModel(FaultModel):
    """Drop windows composed over a base fault model.

    ``copies`` returns 0 while any window severs the edge; otherwise it
    defers to the base model. Deterministic given a deterministic base.
    """

    def __init__(
        self,
        windows: Sequence[DropWindow],
        base: Optional[FaultModel] = None,
    ):
        self.windows = tuple(windows)
        self.base = base or NoFaults()
        self.max_consecutive_drops = self.base.max_consecutive_drops

    def severed(self, edge: Edge, now: float) -> bool:
        """Whether any window currently severs the edge."""
        return any(w.severs(edge, now) for w in self.windows)

    def copies(self, edge: Edge, message: object, now: float) -> int:
        if self.severed(edge, now):
            return 0
        return self.base.copies(edge, message, now)

    def __repr__(self) -> str:
        return (
            f"<TimelineFaultModel {len(self.windows)} window(s) "
            f"over {self.base!r}>"
        )
