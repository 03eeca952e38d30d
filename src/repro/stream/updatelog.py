"""Per-interval append-only update logs on the simulated SSD.

The streaming analog of the engine's multi-log (paper §V-A): incoming
:class:`~repro.stream.delta.EdgeDelta` batches are bucketed by the
*source* vertex's interval and appended as packed record pages to one
log file per interval, so ingestion is pure sequential writes spread
across every flash channel -- the write pattern the multi-log layout
exists for.

Commit protocol (DESIGN.md §12): every page is tagged with the batch's
sequence number; a batch counts as ingested only once the store's meta
log carries its ``ingest`` marker.  Because sequence numbers are
monotone per file, a crash can only leave an *uncommitted suffix*,
which :meth:`recover` trims with ``PageFile.truncate_to``; pages of
already-applied batches are skipped at drain time and reclaimed by the
next :meth:`truncate_all`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..config import SimConfig
from ..graph.partition import VertexIntervals
from ..ssd.filesystem import SimFS
from .delta import RECORD_BYTES, EdgeDelta, record_pages

#: Storage class of update-log pages (stats/placement label).
KLASS_ULOG = "ulog"


class UpdateLog:
    """One append-only edge-update log per vertex interval."""

    def __init__(
        self,
        fs: SimFS,
        intervals: VertexIntervals,
        config: SimConfig,
        name: str = "stream.ulog",
    ) -> None:
        self.fs = fs
        self.intervals = intervals
        self.config = config
        self.name = name
        self.records_per_page = max(1, config.ssd.page_size // RECORD_BYTES)
        # affinity=i: under a device array's "affinity" placement each
        # interval's update log lands whole on one device (DESIGN.md §14).
        self.files = [
            fs.create_page_file(f"{name}.i{i}", KLASS_ULOG, affinity=i)
            for i in range(intervals.n_intervals)
        ]

    # -- writes -----------------------------------------------------------

    def append_batch(self, delta: EdgeDelta, seq: int) -> Dict[str, float]:
        """Append one batch's records, bucketed by source interval.

        Page payloads are ``(seq, idx, op, src, dst, w, ts)`` where
        ``idx`` is each record's position in the original batch --
        enough to reassemble exact arrival order at drain time.
        Returns ``{"records", "pages", "io_us"}``.
        """
        pages = 0
        io_us = 0.0
        for i, idx, part in delta.by_interval(self.intervals):
            payloads, useful = record_pages(
                seq, (idx, part.op, part.src, part.dst, part.w, part.ts), self.records_per_page
            )
            ids, t = self.files[i].append_pages(payloads, useful)
            pages += int(ids.size)
            io_us += t
        return {"records": delta.n, "pages": pages, "io_us": io_us}

    # -- reads ------------------------------------------------------------

    def read_pending(self, last_applied: int) -> Tuple[List[Tuple[int, EdgeDelta]], float, int]:
        """Drain batches with ``seq > last_applied`` in sequence order.

        Returns ``(batches, io_us, pages_read)``; each batch's rows are
        restored to arrival order via the logged ``idx`` column.
        """
        per_seq: Dict[int, list] = {}
        io_us = 0.0
        pages = 0
        for f in self.files:
            payloads, t = f.read_all()
            io_us += t
            pages += f.n_pages
            for seq, idx, op, src, dst, w, ts in payloads:
                if seq > last_applied:
                    per_seq.setdefault(seq, []).append((idx, EdgeDelta(op, src, dst, w, ts)))
        out: List[Tuple[int, EdgeDelta]] = []
        for seq in sorted(per_seq):
            idx = np.concatenate([p[0] for p in per_seq[seq]])
            delta = EdgeDelta.concat([p[1] for p in per_seq[seq]])
            out.append((seq, delta.take(np.argsort(idx, kind="stable"))))
        return out, io_us, pages

    # -- management -------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return sum(f.n_pages for f in self.files)

    def truncate_all(self) -> None:
        """Drop every page (all logged batches applied; trim is free)."""
        for f in self.files:
            f.truncate()

    def recover(self, last_ingested: int) -> int:
        """Trim uncommitted suffixes (``seq > last_ingested``) after a crash.

        Returns the number of pages dropped.  Sequence numbers increase
        monotonically within each file, so everything to drop is a
        suffix -- including the torn tail of a partially persisted
        append batch.
        """
        dropped = 0
        for f in self.files:
            payloads, _ = f.read_all(charge=False)
            keep = len(payloads)
            while keep > 0 and payloads[keep - 1][0] > last_ingested:
                keep -= 1
            dropped += f.n_pages - keep
            f.truncate_to(keep)
        return dropped
