"""In-order interval-group iteration (DESIGN.md §11).

The engine walks a superstep's interval groups in plan order on the
calling thread.  Each group is *prepared* -- ``MultiLogUnit.consume``,
the in-memory dest-sort and ``GraphLoaderUnit.load_active`` -- when the
loop asks for it, and every read it makes lands in the device's
:class:`~repro.ssd.stats.SSDStats` as it is made.  The engine then
charges the sort (``charge_sort=False`` during preparation) and only
then processes the group's vertices: every group's storage time is on
the simulated clock before its compute time.  How far the stats
advanced over a preparation is the group's I/O, for the ``group_load``
trace event and for the lane overlay (:mod:`repro.core.scheduler`).

The paper's overlap of log loading with compute (§V-A3) is a property of
its device and core model; here it is simulated time, not host threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from ..graph.storage import GroupRanges
from ..ssd.stats import SSDStats
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
    #: ``verts``' :meth:`~repro.graph.storage.GraphOnSSD.group_ranges`,
    #: shared by the loader and the batch builder (``None`` when empty)
    ranges: Optional[GroupRanges] = None
    #: the adjacency-free view ``loads_edges`` saw (``None`` when empty)
    view: Optional[GroupView] = None
    #: ``loads_edges``' mask over ``verts``: whose edges were loaded
    #: (``None``: every vertex's)
    edges: Optional[np.ndarray] = None
    #: how far the device stats advanced while the group was prepared
    #: (the ``group_load`` event's I/O); ``None`` when not tracing
    io: Optional[SSDStats] = None


PrepareFn = Callable[[List[int]], PreparedGroup]


class GroupPipeline:
    """The one group iterator: prepare each group, in order, on demand.

    One instance serves a whole engine run; :meth:`run` is called once
    per superstep.
    """

    def run(self, groups: Iterable[List[int]], prepare: PrepareFn) -> Iterator[PreparedGroup]:
        """Yield each group prepared, in order.

        A group is prepared when the consumer asks for it, never ahead.
        """
        for group in groups:
            yield prepare(group)

    def end_superstep(self, storage_us: float, compute_us: float) -> None:
        """Superstep-end hook of the lane overlay; nothing to fold here."""
