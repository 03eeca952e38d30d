"""In-order interval-group iteration (DESIGN.md §11).

The engine walks a superstep's interval groups in plan order on the
calling thread.  Each group is *prepared* -- ``MultiLogUnit.consume``,
the in-memory dest-sort and ``GraphLoaderUnit.load_active`` -- inside
:meth:`~repro.ssd.device.SimulatedSSD.deferred`, so the group's I/O
comes back as one charge list.  The engine commits that list, charges
the sort (``charge_sort=False`` during preparation) and only then
processes the group's vertices: every group's storage time lands on the
simulated clock before its compute time, and the list doubles as the
input of the ``group_load`` trace roll-up and of the lane overlay
(:mod:`repro.core.scheduler`).

The paper's overlap of log loading with compute (§V-A3) is a property of
its device and core model; here it is simulated time, not host threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..graph.storage import GroupRanges
from ..ssd.device import ChargeOp, SimulatedSSD
from .batch import GroupView
from .loader import LoadReport
from .sortgroup import SortedGroup


@dataclass
class PreparedGroup:
    """Everything the superstep loop needs to process one group."""

    interval_ids: List[int]
    sg: SortedGroup
    #: sorted union of message destinations and self-active vertices
    verts: np.ndarray
    #: ``None`` when ``verts`` is empty (nothing was loaded)
    report: Optional[LoadReport] = None
    #: executed I/O plan outcome (DESIGN.md §13); ``None`` when the
    #: planner is off.  Folded into the planner's cumulative tallies at
    #: the group's commit point, in canonical group order.
    io_plan: Optional[object] = None
    #: ``verts``' :meth:`~repro.graph.storage.GraphOnSSD.group_ranges`,
    #: shared by the loader and the batch builder (``None`` when empty)
    ranges: Optional[GroupRanges] = None
    #: the adjacency-free view ``loads_edges`` saw (``None`` when empty)
    view: Optional[GroupView] = None
    #: ``loads_edges``' mask over ``verts``: whose edges were loaded
    #: (``None``: every vertex's)
    edges: Optional[np.ndarray] = None


PrepareFn = Callable[[List[int]], PreparedGroup]


def charge_rollup(charges: List[ChargeOp]) -> dict:
    """Summarise a deferred-charge queue: read pages by class, total time.

    The engine calls this right after
    :meth:`~repro.ssd.device.SimulatedSSD.commit` to emit one
    ``group_load`` trace event describing exactly the I/O the group's
    preparation performed -- per-class page counts and total simulated
    time.
    """
    read_pages: dict = {}
    time_us = 0.0
    for is_read, klass, pages, _nbytes, t, _, _ in charges:
        if is_read:
            read_pages[klass] = read_pages.get(klass, 0) + pages
        time_us += t
    return {"read_pages_by_class": read_pages, "io_time_us": time_us}


class GroupPipeline:
    """The one group iterator: prepare each group, in order, deferred.

    One instance serves a whole engine run; :meth:`run` is called once
    per superstep.
    """

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device

    def run(
        self, groups: Iterable[List[int]], prepare: PrepareFn
    ) -> Iterator[Tuple[PreparedGroup, List[ChargeOp]]]:
        """Yield ``(prepared, deferred_charges)`` for each group, in order.

        A group is prepared when the consumer asks for it, never ahead.
        The caller must :meth:`~repro.ssd.device.SimulatedSSD.commit`
        each charge list before processing the group.
        """
        for group in groups:
            with self.device.deferred() as charges:
                prepared = prepare(group)
            yield prepared, charges

    def end_superstep(self, storage_us: float, compute_us: float) -> None:
        """Superstep-end hook of the lane overlay; nothing to fold here."""
