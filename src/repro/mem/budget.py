"""Host-memory budget accounting (paper Fig. 4).

The paper splits a fixed host budget (1 GB default) into X% for the
sort-and-group unit, A% for the multi-log page buffers and B% for the
edge-log buffer.  :class:`MemoryBudget` resolves those fractions into
concrete byte/page capacities for one engine run, with the paper's
floor: the multi-log buffer must hold *at least one page per vertex
interval* (§V-A3 -- "at least one log buffer is allocated for each
vertex interval in the entire graph").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimConfig


@dataclass(frozen=True)
class MemoryBudget:
    """Resolved memory capacities for one engine run."""

    total_bytes: int
    sort_bytes: int
    multilog_pages: int
    #: B% edge-log buffer in pages (at least one), the in-fill page
    #: included: completed pages wait here and leave as one striped
    #: write when the next entry does not fit (``core.edgelog``).
    edgelog_pages: int
    page_size: int
    #: DRAM page-cache budget (DESIGN.md §10); 0 while the cache is
    #: disabled (``cache_policy="none"``).  Unlike the Fig. 4 slices the
    #: cache is funded from the host's ``cache_fraction`` share *on top
    #: of* ``total_bytes`` -- see ``MemoryConfig.cache_bytes_default``.
    cache_pages: int = 0

    @classmethod
    def resolve(cls, config: SimConfig, n_intervals: int) -> "MemoryBudget":
        """Split ``config.memory`` for a graph with ``n_intervals`` intervals.

        The multi-log buffer floor is *twice* the interval count: one
        top page per interval (the paper's hard minimum) plus equal
        slack for sealed pages awaiting eviction -- without the slack,
        the open top pages alone would sit above the eviction watermark
        and every appended update would flush a near-empty page (massive
        write amplification the real system obviously avoids; the paper
        notes the buffer is sized to "thousands of SSD pages" for
        thousands of intervals, i.e. >1 page per interval).
        """
        mem = config.memory
        page = config.ssd.page_size
        multilog_pages = max(2 * n_intervals, mem.multilog_bytes // page, 2)
        edgelog_pages = max(mem.edgelog_bytes // page, 1)
        return cls(
            total_bytes=mem.total_bytes,
            sort_bytes=mem.sort_bytes,
            multilog_pages=int(multilog_pages),
            edgelog_pages=int(edgelog_pages),
            page_size=page,
            cache_pages=config.cache_pages,
        )

    @property
    def multilog_bytes(self) -> int:
        return self.multilog_pages * self.page_size

    @property
    def edgelog_bytes(self) -> int:
        return self.edgelog_pages * self.page_size

    @property
    def cache_bytes(self) -> int:
        return self.cache_pages * self.page_size

    def sort_capacity_records(self, record_bytes: int) -> int:
        """How many fixed-size records fit in the sort/group budget."""
        return max(1, self.sort_bytes // record_bytes)
