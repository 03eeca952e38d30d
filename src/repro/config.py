"""Simulation configuration for the MultiLogVC reproduction.

The paper (§VI) runs on a real Samsung 860 EVO SSD with 16 KB pages, a
1 GB host-memory budget, and OpenMP threads.  This reproduction replaces
the physical device with a deterministic multi-channel SSD model (see
:mod:`repro.ssd.device`) and wall-clock time with *simulated* time, so all
of the knobs that shape the paper's results live in one place:

* :class:`SSDConfig` -- page size, channel count, per-page latencies.
* :class:`MemoryConfig` -- total host budget and the X/A/B% splits from
  paper Fig. 4 (sort/group memory, multi-log buffer, edge-log buffer).
* :class:`RecordConfig` -- on-flash record sizes (§VI: 8-byte row
  pointers, 4-byte vertex ids).
* :class:`ComputeConfig` -- the per-edge/per-update compute cost model
  that stands in for the paper's multicore CPU.

:class:`SimConfig` bundles the four and validates cross-field invariants.
All dataclasses are frozen: derive variants with :func:`dataclasses.replace`
or the convenience :meth:`SimConfig.with_memory` helpers.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError

#: Number of bytes in one binary mebibyte; used for memory budgets.
MIB = 1024 * 1024


#: Valid values for :attr:`SimConfig.cache_policy` (DESIGN.md §10).
CACHE_POLICIES = ("none", "clock")

#: Valid values for :attr:`SimConfig.io_plan`, in increasing ambition.
IO_PLAN_MODES = ("off", "coalesce", "coalesce+readahead")

#: Valid values for :attr:`SimConfig.placement` (DESIGN.md §14).
#: ``"stripe"`` round-robins extent-sized page runs over the device
#: array; ``"affinity"`` additionally pins interval logs (multi-log,
#: stream logs) whole onto one device each so a log stays sequential.
PLACEMENTS = ("stripe", "affinity")

#: The storage-stack knobs: the :class:`SimConfig` fields that describe
#: the machine *below* the engine (page cache, worker lanes, I/O
#: planner, device array), each with its built-in default.  They are
#: declared here and nowhere else -- :class:`~repro.options.EngineOptions`
#: carries only what an engine itself consumes.  The conformance fuzzer
#: and shrinker iterate this dict (the shrinker drops knobs in this
#: order), so a saved case that omits a knob runs at the built-in
#: default whatever the ``REPRO_*`` environment says.
STACK_KNOBS = {
    "num_devices": 1,
    "placement": "affinity",
    "io_plan": "off",
    "readahead_pages": 64,
    "cache_policy": "none",
    "cache_bytes": None,
    "num_workers": 1,
}


def _from_env(var: str, knob: str, parse):
    """Default factory of a stack knob the CI matrix sets from the environment.

    ``REPRO_NUM_WORKERS``, ``REPRO_IO_PLAN`` and ``REPRO_DEVICES`` let CI
    run the whole test suite at 4 lanes, with the planner engaged, or
    on a 4-device array without touching any call site.  Values and
    records are bit-identical at any setting (DESIGN.md §11, §13, §14),
    so these are coverage knobs, not tuning knobs.  An unset or
    unparseable variable falls back to the built-in default.
    """

    def default():
        try:
            return parse(os.environ[var])
        except (KeyError, ValueError):
            return STACK_KNOBS[knob]

    return default


def _count(text: str) -> int:
    return max(1, int(text))


def _io_plan_mode(text: str) -> str:
    return IO_PLAN_MODES[IO_PLAN_MODES.index(text)]  # ValueError when unknown


@dataclass(frozen=True)
class SSDConfig:
    """Geometry and timing of the simulated flash device.

    The defaults model a SATA-class consumer SSD in the spirit of the
    paper's 860 EVO, *scaled with the synthetic datasets*: the paper uses
    16 KB pages against 100 GB graphs; we use 4 KB pages against ~10 MB
    graphs so that a graph still spans thousands of pages and the
    page-sharing statistics of power-law degree distributions survive
    the downscale.  Peak bandwidth stays SATA-like (8 ch x 4 KB / 75 us
    ~= 437 MB/s read).  Latencies are per page *per channel*; a batch of
    pages spread across channels completes in ``max(pages on one
    channel) * latency`` (pipelined within a channel), which is what
    lets sequential/interspersed accesses reach full bandwidth while a
    single random page pays full latency.
    """

    page_size: int = 4096
    channels: int = 8
    read_latency_us: float = 75.0
    write_latency_us: float = 220.0
    #: Fixed host-side submission cost charged once per I/O batch
    #: (async-kernel-IO syscall + DMA setup).  This is what keeps many
    #: tiny batches slower than one large batch of equal page count.
    batch_overhead_us: float = 10.0

    def validate(self) -> None:
        if self.page_size <= 0 or self.page_size % 512:
            raise ConfigError(f"page_size must be a positive multiple of 512, got {self.page_size}")
        if self.channels <= 0:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if self.read_latency_us <= 0 or self.write_latency_us <= 0:
            raise ConfigError("latencies must be positive")
        if self.batch_overhead_us < 0:
            raise ConfigError("batch_overhead_us must be non-negative")

    @property
    def peak_read_bandwidth_mbps(self) -> float:
        """Aggregate read bandwidth (MB/s) with all channels busy."""
        return self.channels * self.page_size / self.read_latency_us

    @property
    def peak_write_bandwidth_mbps(self) -> float:
        """Aggregate write bandwidth (MB/s) with all channels busy."""
        return self.channels * self.page_size / self.write_latency_us


@dataclass(frozen=True)
class MemoryConfig:
    """Host memory budget and its split between engine components.

    Mirrors paper Fig. 4: ``sort_fraction`` is X% (default 75%) given to
    the sort-and-group unit, ``multilog_fraction`` is A% (default 5%) for
    the multi-log page buffers and ``edgelog_fraction`` is B% (default
    5%) for the edge-log buffer.  The remainder covers row-pointer and
    vertex-data staging buffers.

    The default ``total_bytes`` of 512 KiB is the scaled stand-in for
    the paper's 1 GB budget: the bench-scale synthetic graphs' shard
    footprint is ~15-40x the budget, preserving the paper's
    graph-much-larger-than-memory regime (100 GB vs 1 GB).
    """

    total_bytes: int = MIB // 2
    sort_fraction: float = 0.75
    multilog_fraction: float = 0.05
    edgelog_fraction: float = 0.05
    #: Share of *host DRAM* given to the page cache when one is enabled
    #: (``SimConfig.cache_policy != "none"``).  Mirrors FlashGraph, where
    #: the SAFS page cache takes the overwhelming share of host memory
    #: while the engine's working budget (the Fig. 4 split above) is the
    #: small remainder: ``total_bytes`` is the engine's ``1 - f`` share,
    #: so the cache gets ``total_bytes * f / (1 - f)`` bytes.  The
    #: default 0.96 funds a 24x-the-engine-budget cache (12 MiB at the
    #: default 512 KiB) -- enough to absorb the multi-log's
    #: write-then-read-once stream plus the hot CSR pages.  With the
    #: default ``cache_policy="none"`` this fraction funds nothing and
    #: the paper's graph-much-larger-than-memory regime is unchanged.
    cache_fraction: float = 0.96
    #: Multi-log buffer eviction starts when free space drops below this
    #: fraction of the buffer (paper §V-A3 "less than a certain
    #: threshold") and stops once free space recovers to the high mark.
    evict_low_free_fraction: float = 0.10
    evict_high_free_fraction: float = 0.50

    def validate(self) -> None:
        if self.total_bytes <= 0:
            raise ConfigError("total_bytes must be positive")
        for name in ("sort_fraction", "multilog_fraction", "edgelog_fraction", "cache_fraction"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {v}")
        if self.sort_fraction + self.multilog_fraction + self.edgelog_fraction >= 1.0:
            raise ConfigError("memory fractions must sum to < 1")
        if not 0.0 <= self.evict_low_free_fraction < self.evict_high_free_fraction <= 1.0:
            raise ConfigError("eviction watermarks must satisfy 0 <= low < high <= 1")

    @property
    def sort_bytes(self) -> int:
        return int(self.total_bytes * self.sort_fraction)

    @property
    def multilog_bytes(self) -> int:
        return int(self.total_bytes * self.multilog_fraction)

    @property
    def edgelog_bytes(self) -> int:
        return int(self.total_bytes * self.edgelog_fraction)

    @property
    def cache_bytes_default(self) -> int:
        """Default page-cache budget: the cache's share of host DRAM.

        ``total_bytes`` is the engine's ``1 - cache_fraction`` share of
        the host, so the cache share resolves to
        ``total_bytes * cache_fraction / (1 - cache_fraction)``.
        """
        return int(round(self.total_bytes * self.cache_fraction / (1.0 - self.cache_fraction)))


@dataclass(frozen=True)
class RecordConfig:
    """On-flash record encodings (paper §VI).

    * vertex ids are 4 bytes, row pointers 8 bytes;
    * an update log record is ``<v_dest, m>`` where the message ``m``
      carries the source id and an 8-byte payload (16 bytes total);
    * a shard edge record is ``(src, dst, value)`` = 16 bytes, matching
      GraphChi's edge-with-value layout in Fig. 1b.
    """

    vid_bytes: int = 4
    rowptr_bytes: int = 8
    weight_bytes: int = 8
    update_payload_bytes: int = 8
    #: Per-vertex header (vid + degree) prepended to an edge-log entry.
    edgelog_header_bytes: int = 8

    def validate(self) -> None:
        for name in ("vid_bytes", "rowptr_bytes", "weight_bytes", "update_payload_bytes", "edgelog_header_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def update_bytes(self) -> int:
        """Size of one logged update: dest id + source id + payload."""
        return 2 * self.vid_bytes + self.update_payload_bytes

    @property
    def edge_record_bytes(self) -> int:
        """Size of one shard edge record: src + dst + value."""
        return 2 * self.vid_bytes + self.weight_bytes

    @property
    def edgelog_entry_bytes(self) -> int:
        """Size of one edge-log neighbor entry: neighbor id + weight."""
        return self.vid_bytes + self.weight_bytes


@dataclass(frozen=True)
class ComputeConfig:
    """Cost model standing in for the paper's 4 GHz quad-core host.

    Simulated compute time for a superstep is::

        (vertices * per_vertex_us
         + updates * per_update_us
         + edges_scanned * per_edge_us
         + sum over sorts of n * log2(max(runs, 2)) * per_sort_item_us) / cores

    where a sort of ``n`` keys handed over in ``runs`` natural runs
    (maximal non-decreasing stretches) is charged as an idealised merge:
    one item-cost per item per level, over the continuous log2 of the
    run count, with no separate run-finding pass.  The constants are
    calibrated so that the storage/compute split of BFS lands in the
    paper's 75-90% storage range (Fig. 5c); they do not affect
    *relative* engine comparisons much because all engines share the
    same model.
    """

    cores: int = 4
    per_vertex_us: float = 0.20
    per_update_us: float = 0.08
    per_edge_us: float = 0.02
    per_sort_item_us: float = 0.012

    def validate(self) -> None:
        if self.cores <= 0:
            raise ConfigError("cores must be positive")
        for name in ("per_vertex_us", "per_update_us", "per_edge_us", "per_sort_item_us"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Complete simulation configuration.

    The default instance reproduces the paper's scaled environment.  Use
    :meth:`with_memory` / :meth:`with_channels` for the common sweeps
    (Fig. 10 memory scalability, SSD substrate microbenchmarks), or
    :func:`dataclasses.replace` for anything else.
    """

    ssd: SSDConfig = field(default_factory=SSDConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    records: RecordConfig = field(default_factory=RecordConfig)
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    #: History window N for the edge-log active-vertex predictor
    #: (paper §V-C: "N equal to one proved effective").
    edgelog_history_window: int = 1
    #: A page is "efficiently used" when at least this fraction of its
    #: bytes are useful to the superstep (paper §V-C uses 10%).
    page_efficiency_threshold: float = 0.10
    #: Structural updates buffered per interval before merge (paper §V-E).
    mutation_merge_threshold: int = 1024
    #: DRAM page cache between the engines and the simulated SSD
    #: (DESIGN.md §10).  ``"none"`` (the default) reproduces the paper's
    #: uncached setup exactly; ``"clock"`` enables a budgeted CLOCK
    #: cache so reads charge flash only on misses (writes stay
    #: write-through).
    cache_policy: str = STACK_KNOBS["cache_policy"]
    #: Explicit cache budget in bytes; ``None`` resolves to
    #: ``memory.cache_bytes_default`` (the ``cache_fraction`` share of
    #: host DRAM).  Ignored while ``cache_policy="none"``.
    cache_bytes: Optional[int] = STACK_KNOBS["cache_bytes"]
    #: Simulated worker lanes (DESIGN.md §11).  Groups always run one
    #: after another on the calling thread, so values, records and
    #: traces are bit-identical at any count; with more than one lane
    #: the engine also reports the modelled lane/channel overlap
    #: (``scheduler.*`` gauges, ``parallel_stats`` events).  The default
    #: honours the ``REPRO_NUM_WORKERS`` environment variable (CI matrix
    #: knob).
    num_workers: int = field(default_factory=_from_env("REPRO_NUM_WORKERS", "num_workers", _count))
    #: Superstep I/O planner (DESIGN.md §13).  ``"off"`` (the default)
    #: reproduces the seed's per-path device batches exactly;
    #: ``"coalesce"`` collects each group's page demand and charges it
    #: as extent reads plus channel-balanced dispatch waves;
    #: ``"coalesce+readahead"`` additionally prefetches the predicted
    #: next group's pages into the CLOCK page cache (requires
    #: ``cache_policy != "none"`` to have any effect).  Values, records
    #: and semantic traces are bit-identical in every mode; only
    #: batching and simulated storage time change.  The default honours
    #: the ``REPRO_IO_PLAN`` environment variable (CI matrix knob).
    io_plan: str = field(default_factory=_from_env("REPRO_IO_PLAN", "io_plan", _io_plan_mode))
    #: Page budget per superstep for the planner's cache-aware
    #: read-ahead (``io_plan="coalesce+readahead"`` only).
    readahead_pages: int = STACK_KNOBS["readahead_pages"]
    #: Number of independent simulated SSDs in the device array
    #: (DESIGN.md §14).  ``1`` (the default) reproduces the seed's
    #: single-device behaviour exactly; ``N > 1`` stripes pages across
    #: ``N`` devices and reports the cross-device concurrency win as an
    #: overlay (``device.*`` gauges, ``device_stats`` trace kind) while
    #: the committed accounting -- and therefore values, records and
    #: semantic traces -- stays bit-identical at any device count.  The
    #: default honours the ``REPRO_DEVICES`` environment variable (CI
    #: matrix knob).
    num_devices: int = field(default_factory=_from_env("REPRO_DEVICES", "num_devices", _count))
    #: Device-array placement policy (see :data:`PLACEMENTS`); ignored
    #: while ``num_devices == 1``.
    placement: str = STACK_KNOBS["placement"]
    #: Streaming update store (DESIGN.md §12): an interval is compacted
    #: -- its surviving edges rewritten as a fresh base CSR and its
    #: delta log truncated -- when dead + tombstone records exceed this
    #: fraction of the interval's total on-flash records.
    stream_compact_threshold: float = 0.5
    #: Incremental recompute (``recompute="auto"``) falls back to a full
    #: run when the batch changes more than this fraction of the live
    #: edge set; beyond it the warm-start's seed scan stops paying for
    #: itself.
    stream_max_delta_fraction: float = 0.25

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        self.ssd.validate()
        self.memory.validate()
        self.records.validate()
        self.compute.validate()
        if self.edgelog_history_window < 1:
            raise ConfigError("edgelog_history_window must be >= 1")
        if not 0.0 < self.page_efficiency_threshold < 1.0:
            raise ConfigError("page_efficiency_threshold must be in (0, 1)")
        if self.mutation_merge_threshold < 1:
            raise ConfigError("mutation_merge_threshold must be >= 1")
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if self.cache_policy not in CACHE_POLICIES:
            raise ConfigError(
                f"cache_policy must be one of {CACHE_POLICIES}, got {self.cache_policy!r}"
            )
        if self.cache_bytes is not None and self.cache_bytes < self.ssd.page_size:
            raise ConfigError("cache_bytes must hold at least one SSD page")
        if self.io_plan not in IO_PLAN_MODES:
            raise ConfigError(
                f"io_plan must be one of {IO_PLAN_MODES}, got {self.io_plan!r}"
            )
        if self.readahead_pages < 0:
            raise ConfigError("readahead_pages must be non-negative")
        if self.num_devices < 1:
            raise ConfigError(f"num_devices must be >= 1, got {self.num_devices}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.memory.multilog_bytes < self.ssd.page_size:
            raise ConfigError(
                "multi-log buffer smaller than one SSD page: raise total_bytes or multilog_fraction"
            )
        if self.memory.sort_bytes < self.records.update_bytes:
            raise ConfigError("sort budget cannot hold a single update record")
        if not 0.0 < self.stream_compact_threshold <= 1.0:
            raise ConfigError("stream_compact_threshold must be in (0, 1]")
        if not 0.0 <= self.stream_max_delta_fraction <= 1.0:
            raise ConfigError("stream_max_delta_fraction must be in [0, 1]")

    # -- convenience constructors -------------------------------------

    def _with_given(self, **fields) -> "SimConfig":
        """Copy with the non-``None`` fields replaced (``None`` = keep)."""
        return dataclasses.replace(self, **{k: v for k, v in fields.items() if v is not None})

    def with_memory(self, total_bytes: int) -> "SimConfig":
        """Return a copy with a different total host-memory budget."""
        return dataclasses.replace(self, memory=dataclasses.replace(self.memory, total_bytes=total_bytes))

    def with_channels(self, channels: int) -> "SimConfig":
        """Return a copy with a different SSD channel count."""
        return dataclasses.replace(self, ssd=dataclasses.replace(self.ssd, channels=channels))

    def with_workers(self, num_workers: int) -> "SimConfig":
        """Return a copy with a different simulated worker-lane count."""
        return dataclasses.replace(self, num_workers=num_workers)

    def with_stream(
        self,
        compact_threshold: Optional[float] = None,
        max_delta_fraction: Optional[float] = None,
    ) -> "SimConfig":
        """Return a copy with different streaming-update knobs."""
        return self._with_given(
            stream_compact_threshold=compact_threshold,
            stream_max_delta_fraction=max_delta_fraction,
        )

    def with_io_plan(self, mode: str, readahead_pages: Optional[int] = None) -> "SimConfig":
        """Return a copy with the superstep I/O planner configured."""
        return self._with_given(io_plan=mode, readahead_pages=readahead_pages)

    def with_devices(self, num_devices: Optional[int] = None, placement: Optional[str] = None) -> "SimConfig":
        """Return a copy with the simulated device array configured."""
        return self._with_given(num_devices=num_devices, placement=placement)

    def with_cache(self, policy: str = "clock", cache_bytes: Optional[int] = None) -> "SimConfig":
        """Return a copy with the DRAM page cache configured.

        ``policy="clock"`` with ``cache_bytes=None`` enables the cache
        at the default budget (``memory.cache_bytes_default``).
        """
        return dataclasses.replace(self, cache_policy=policy, cache_bytes=cache_bytes)

    # -- derived helpers ----------------------------------------------

    @property
    def updates_per_page(self) -> int:
        """How many update records fit in one SSD page."""
        return max(1, self.ssd.page_size // self.records.update_bytes)

    @property
    def sort_capacity_updates(self) -> int:
        """How many update records the sort/group budget can hold."""
        return max(1, self.memory.sort_bytes // self.records.update_bytes)

    @property
    def resolved_cache_bytes(self) -> Optional[int]:
        """The effective cache budget in bytes; None when disabled."""
        if self.cache_policy == "none":
            return None
        if self.cache_bytes is not None:
            return int(self.cache_bytes)
        return self.memory.cache_bytes_default

    @property
    def cache_pages(self) -> int:
        """The effective cache budget in pages (0 when disabled)."""
        nbytes = self.resolved_cache_bytes
        if nbytes is None:
            return 0
        return max(1, nbytes // self.ssd.page_size)

    def pages_for_bytes(self, nbytes: int) -> int:
        """Number of pages needed to store ``nbytes`` (ceiling)."""
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.ssd.page_size)


#: Shared default configuration used throughout tests and experiments.
DEFAULT_CONFIG = SimConfig()


def small_test_config(total_bytes: int = 256 * 1024, channels: int = 4) -> SimConfig:
    """A deliberately tight configuration for unit tests.

    A small budget forces many vertex intervals, multi-log evictions and
    interval fusing even on tiny graphs, exercising the paths that the
    default configuration only hits at benchmark scale.
    """
    return SimConfig(
        ssd=SSDConfig(page_size=4096, channels=channels),
        memory=MemoryConfig(total_bytes=total_bytes),
    )
