"""Crash-consistent checkpointing for the MultiLogVC engine (DESIGN.md §8).

A superstep boundary is a *consistent cut*: every message logged during
superstep ``s`` sits in exactly one multi-log generation, the active
tracker has advanced, the edge log has rotated, and no unit holds
half-applied state.  :class:`CheckpointManager` snapshots that cut to
the simulated SSD; a resumed run restores it onto a fresh engine and
continues from superstep ``s + 1`` with bit-identical vertex state,
per-superstep records, stats, and trace timestamps.

Write protocol (commit marker)
------------------------------
A checkpoint is two files on the simulated file system:

* ``ckpt.<id>``        -- payload pages: the pickled state blob split
  into page-size chunks, charged as ordinary writes;
* ``ckpt.<id>.commit`` -- one commit page carrying the blob's CRC-32,
  its page count, and the post-checkpoint ``SSDStats`` snapshot,
  compute-meter time and every overlay's counters (DESIGN.md §7).

The commit page's *write is charged first*, then its payload is
attached without charging.  A crash anywhere before the attach leaves
either no commit file or an empty one, so the checkpoint is invalid
and :meth:`CheckpointManager.load_latest` falls back to the previous
valid checkpoint -- exactly a write-ahead log's torn-commit rule.
Capturing the stats snapshot *after* both charges closes the
circularity between "the snapshot must reflect the checkpoint's own
write cost" and "the snapshot is stored inside the checkpoint": the
snapshot lives only on the commit page, which is charged before it is
captured.

Determinism
-----------
The restored snapshot rewinds the resumed device clock to the cut, so
every post-resume charge lands at the same simulated time as in an
uninterrupted run.  Recovery's own read I/O is charged to the *crashed*
device (the flash that survived the power loss), never to the resumed
one, and is reported in the ``run_resume`` trace event, which trace
reconciliation ignores.

Every checkpoint is a full snapshot, so a resumed run's next checkpoint
is the uninterrupted run's, byte for byte, and the two runs' ``SSDStats``
are equal class by class, ``ckpt`` included.
"""

from __future__ import annotations

import pickle
import re
import sys
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..core.results import SuperstepRecord
from ..errors import RecoveryError
from ..ssd.filesystem import SimFS

if TYPE_CHECKING:
    from ..core.engine import MultiLogVC

KLASS_CKPT = "ckpt"

#: Pinned pickle protocol: identical state must serialise to an
#: identical blob length in the resumed and uninterrupted runs, and the
#: CLI's host-side exports should load across the CI python matrix.
PICKLE_PROTOCOL = 4


def _canonical(obj: Any) -> Any:
    """``obj`` rebuilt with the object identities a fresh run has.

    Pickle memoizes by identity, so a blob's length depends on which
    equal objects are shared: a fresh run's arrays share NumPy's builtin
    dtype instances and its dict keys are interned literals, where
    unpickled ones are fresh copies.  Restored state goes through this
    so its next checkpoint pickles to the uninterrupted run's length.
    """
    if type(obj) is dict:
        return {_canonical(k): _canonical(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):
        return type(obj)(_canonical(x) for x in obj)
    if type(obj) is str:
        return sys.intern(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.fields is None:
        return obj.view(np.dtype(obj.dtype.str))
    return obj


def _record_state(rec: SuperstepRecord) -> Dict[str, Any]:
    """A superstep record as the payload stores it.

    The payload is charged by its pickled size, so ``records_logged`` is
    stored only where a send-side combine made it differ from
    ``messages_sent``; :func:`_record_from_state` puts it back.
    """
    d = rec.to_dict()
    if d["records_logged"] == d["messages_sent"]:
        del d["records_logged"]
    return d


def _record_from_state(d: Dict[str, Any]) -> SuperstepRecord:
    """The :class:`SuperstepRecord` :func:`_record_state` stored as ``d``."""
    fields = {k: v for k, v in d.items() if k != "total_time_us"}
    fields.setdefault("records_logged", fields["messages_sent"])
    return SuperstepRecord(**fields)


@dataclass
class CheckpointWriteInfo:
    """What one :meth:`CheckpointManager.write` call did (for tracing)."""

    ckpt_id: int
    step: int
    payload_pages: int
    time_us: float


@dataclass
class CheckpointData:
    """A loaded checkpoint, ready to hand to ``run(resume_from=...)``.

    The fields up to ``records`` are the payload: :meth:`CheckpointManager.write`
    pickles exactly those keys, in this order, and
    :meth:`CheckpointManager.load_latest` passes them back as keywords.
    The rest come from the commit page or the load itself.
    """

    ckpt_id: int
    step: int
    engine_name: str
    program_name: str
    mode: str
    n_vertices: int
    boundaries: np.ndarray
    edgelog_enabled: bool
    uses_edge_state: bool
    values: np.ndarray
    tracker: Dict[str, Any]
    mlogs: Dict[str, Dict[str, Any]]
    mlog_current: str
    edgelog: Optional[Dict[str, Any]]
    edge_state: Optional[List[np.ndarray]]
    fs_next_offset: int
    rng_state: Dict[str, Any]
    records: List[Dict[str, Any]]
    stats: Any  # SSDStats snapshot at the cut (post checkpoint write)
    meter_time_us: float
    #: I/O spent loading this checkpoint (0 for host-file loads);
    #: reported in the run_resume event, ignored by reconciliation.
    recovery_read_pages: int = 0
    recovery_read_time_us: float = 0.0
    #: Each overlay's counters at the cut, by trace kind (DESIGN.md §7).
    overlays: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Did the run reduce sends before logging them (DESIGN.md §15)?
    precombine: bool = False

    # -- engine-compatibility gate ------------------------------------------

    def validate_against(self, engine: "MultiLogVC") -> None:
        """Raise :class:`RecoveryError` unless this checkpoint fits ``engine``."""
        prog = engine.program
        checks = [
            (self.engine_name == engine.name, "engine"),
            (self.program_name == prog.name, "program"),
            (self.mode == engine.mode, "mode"),
            (self.n_vertices == engine.graph.n, "graph size"),
            (np.array_equal(self.boundaries, engine.intervals.boundaries), "interval partition"),
            (self.edgelog_enabled == engine.enable_edgelog, "edge-log setting"),
            (self.precombine == engine.precombine, "send-side combine setting"),
            (self.uses_edge_state == bool(prog.uses_edge_state), "edge-state contract"),
            # Pending mutation buffers are not part of the cut.
            (not prog.mutates_structure, "structure-mutation contract"),
        ]
        for ok, what in checks:
            if not ok:
                raise RecoveryError(
                    f"checkpoint {self.ckpt_id} (step {self.step}) does not match "
                    f"the engine being resumed: {what} differs"
                )

    # -- host-side export (CLI --checkpoint-out / --resume-from) --------------

    def save(self, path: str) -> None:
        """Pickle this checkpoint to a real host file."""
        with open(path, "wb") as f:
            pickle.dump(self, f, protocol=PICKLE_PROTOCOL)

    @staticmethod
    def load(path: str) -> "CheckpointData":
        """Load a checkpoint previously written by :meth:`save`."""
        with open(path, "rb") as f:
            data = pickle.load(f)
        if not isinstance(data, CheckpointData):
            raise RecoveryError(f"{path!r} is not a checkpoint file")
        return data


class CheckpointManager:
    """Writes and loads checkpoints on a simulated file system."""

    def __init__(self, fs: SimFS, name: str = "ckpt") -> None:
        self.fs = fs
        self.name = name
        self.next_id = 1

    def resume_at(self, ckpt: CheckpointData) -> None:
        """Continue numbering after ``ckpt``."""
        self.next_id = ckpt.ckpt_id + 1

    # -- write ----------------------------------------------------------------

    def write(
        self,
        *,
        engine: "MultiLogVC",
        step: int,
        values: np.ndarray,
        tracker,
        mlog_cur,
        mlog_next,
        edgelog,
        rng: np.random.Generator,
        records: list,
        meter,
        overlays=(),
    ) -> CheckpointWriteInfo:
        """Snapshot the superstep-``step`` cut; returns write accounting.

        Must be called at the superstep boundary, after the tracker has
        advanced and the multi-log generations have swapped.
        """
        cid = self.next_id
        # Both files exist before the allocator state is captured, so a
        # resumed run places every later file on the channels (and
        # devices) the uninterrupted run does.
        payload_file = self.fs.create_page_file(f"{self.name}.{cid}", KLASS_CKPT, overwrite=True)
        commit_file = self.fs.create_page_file(
            f"{self.name}.{cid}.commit", KLASS_CKPT, overwrite=True
        )
        edge_state = None
        if engine.program.uses_edge_state:
            edge_state = [
                engine.storage.interval_files(i).values.array.copy()
                for i in range(engine.intervals.n_intervals)
            ]

        state: Dict[str, Any] = {
            "ckpt_id": cid,
            "step": step,
            "engine_name": engine.name,
            "program_name": engine.program.name,
            "mode": engine.mode,
            "n_vertices": int(engine.graph.n),
            "boundaries": np.asarray(engine.intervals.boundaries).copy(),
            "edgelog_enabled": engine.enable_edgelog,
            "uses_edge_state": bool(engine.program.uses_edge_state),
            "values": values,
            "tracker": tracker.export_state(),
            "mlogs": {
                mlog_cur.name: mlog_cur.export_state(),
                mlog_next.name: mlog_next.export_state(),
            },
            "mlog_current": mlog_cur.name,
            "edgelog": edgelog.export_state() if edgelog is not None else None,
            "edge_state": edge_state,
            "fs_next_offset": self.fs.next_channel_offset,
            "rng_state": rng.bit_generator.state,
            "records": [_record_state(r) for r in records],
        }
        blob = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
        page_size = self.fs.device.page_size
        chunks = [blob[i : i + page_size] for i in range(0, len(blob), page_size)] or [b""]

        useful = [len(c) for c in chunks]
        _, t_payload = payload_file.append_pages(chunks, useful_bytes=useful)
        # Charge the commit-page write *before* capturing the stats
        # snapshot and attaching the payload: a crash during the charge
        # leaves an empty commit file (checkpoint invalid), and the
        # snapshot stored on the commit page reflects the checkpoint's
        # own complete write cost -- see the module docstring.
        commit_page = np.array([0], dtype=np.int64)
        t_commit = self.fs.device.write_batch(
            commit_file.channels_of(commit_page), KLASS_CKPT,
            devices=commit_file.devices_of(commit_page),
        )
        commit = {
            "ckpt_id": cid,
            "step": step,
            "checksum": zlib.crc32(blob),
            "length": len(blob),
            "n_pages": len(chunks),
            "stats": self.fs.stats.snapshot(),
            "meter_time_us": meter.time_us,
            # Overlay counters, captured with the stats snapshot so they
            # include the checkpoint's own write cost.
            "overlays": {ov.trace_kind: ov.overlay_state() for ov in overlays},
            # Engine-compatibility flag; on the commit page with the
            # other cut metadata so the payload, which is charged by
            # size, is the same bytes either way.
            "precombine": engine.precombine,
        }
        commit_file.append_page(commit, useful_bytes=len(blob) % page_size, charge=False)

        self.next_id = cid + 1
        return CheckpointWriteInfo(
            ckpt_id=cid,
            step=step,
            payload_pages=len(chunks),
            time_us=t_payload + t_commit,
        )

    # -- load ----------------------------------------------------------------

    @classmethod
    def list_ids(cls, fs: SimFS, name: str = "ckpt") -> List[int]:
        """Checkpoint ids that have a commit file, oldest first."""
        pat = re.compile(rf"^{re.escape(name)}\.(\d+)\.commit$")
        ids = [int(m.group(1)) for n in fs.names() if (m := pat.match(n))]
        return sorted(ids)

    @classmethod
    def load_latest(cls, fs: SimFS, name: str = "ckpt") -> CheckpointData:
        """Load the newest *valid* checkpoint from a (crashed) file system.

        Walks checkpoint ids newest-first, skipping any whose commit
        marker is missing/empty or whose payload fails the length or
        CRC-32 check (torn writes).  Raises :class:`RecoveryError` if no
        checkpoint survives.
        """
        errors: List[str] = []
        for cid in reversed(cls.list_ids(fs, name)):
            try:
                state, commit, pages, t = cls._load_one(fs, name, cid)
            except RecoveryError as e:
                errors.append(str(e))
                continue
            return CheckpointData(
                **state,
                stats=commit["stats"],
                meter_time_us=commit["meter_time_us"],
                recovery_read_pages=pages,
                recovery_read_time_us=t,
                overlays=commit["overlays"],
                precombine=commit["precombine"],
            )
        detail = f" ({'; '.join(errors)})" if errors else ""
        raise RecoveryError(f"no valid checkpoint named {name!r} found{detail}")

    @classmethod
    def _load_one(cls, fs: SimFS, name: str, cid: int):
        """Read and verify one checkpoint; returns (state, commit, pages, us)."""
        commit_name = f"{name}.{cid}.commit"
        payload_name = f"{name}.{cid}"
        if commit_name not in fs or payload_name not in fs:
            raise RecoveryError(f"checkpoint {cid}: files missing")
        commit_file = fs.get(commit_name)
        if commit_file.n_pages == 0:
            raise RecoveryError(f"checkpoint {cid}: commit marker missing (torn commit)")
        commits, t1 = commit_file.read_all()
        commit = commits[-1]
        payload_file = fs.get(payload_name)
        if payload_file.n_pages != commit["n_pages"]:
            raise RecoveryError(
                f"checkpoint {cid}: payload has {payload_file.n_pages} pages, "
                f"commit says {commit['n_pages']} (torn payload)"
            )
        chunks, t2 = payload_file.read_all()
        blob = b"".join(chunks)
        if len(blob) != commit["length"] or zlib.crc32(blob) != commit["checksum"]:
            raise RecoveryError(f"checkpoint {cid}: payload checksum mismatch")
        state = _canonical(pickle.loads(blob))
        pages = commit_file.n_pages + payload_file.n_pages
        return state, commit, pages, t1 + t2
