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
* :data:`KNOBS` -- the storage-stack knobs below the engine, one
  :class:`Knob` declaration each.

:class:`SimConfig` bundles the four and validates cross-field invariants.
All dataclasses are frozen: derive variants with :func:`dataclasses.replace`
or the convenience :meth:`SimConfig.with_memory` helpers.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

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


@dataclass(frozen=True)
class Knob:
    """One storage-stack knob: a :class:`SimConfig` field describing the
    machine *below* the engine (page cache, worker lanes, I/O planner,
    device array), declared here and nowhere else.

    The field's default (and ``REPRO_*`` default factory), its domain
    check in :meth:`SimConfig.validate`, its ``repro compute`` flag,
    ``repro info``'s line and README's knob table all derive from this.
    :class:`~repro.options.EngineOptions` carries only what an engine
    itself consumes.
    """

    name: str
    default: Any
    #: ``repro compute`` flag; it takes an ``int`` unless ``choices``.
    flag: str
    help: str
    choices: Tuple[str, ...] = ()
    #: Smallest valid value of an integer knob, or a function of the
    #: config when the bound depends on another field.
    minimum: Union[int, Callable[["SimConfig"], int], None] = None
    #: Environment variable that overrides the built-in default.
    env: Optional[str] = None
    #: ``(knob, value)`` that giving this knob's flag also sets.
    implies: Optional[Tuple[str, Any]] = None

    def env_default(self) -> Any:
        """The ``env`` variable's value, or the built-in default when it
        is unset or unparseable; integers are clamped to ``minimum``.

        ``REPRO_NUM_WORKERS``, ``REPRO_IO_PLAN`` and ``REPRO_DEVICES`` let
        CI run the whole test suite at 4 lanes, with the planner engaged,
        or on a 4-device array without touching any call site.  Values
        and records are bit-identical at any setting (DESIGN.md §11, §13,
        §14), so these are coverage knobs, not tuning knobs.
        """
        text = os.environ.get(self.env)
        if self.choices:
            return text if text in self.choices else self.default
        try:
            return max(self.minimum, int(text))
        except (TypeError, ValueError):
            return self.default

    def check(self, cfg: "SimConfig") -> None:
        value = getattr(cfg, self.name)
        if self.choices:
            if value not in self.choices:
                raise ConfigError(f"{self.name} must be one of {self.choices}, got {value!r}")
        elif value is not None or self.default is not None:  # None: optional, unset
            low = self.minimum(cfg) if callable(self.minimum) else self.minimum
            if value < low:
                raise ConfigError(f"{self.name} must be >= {low}, got {value}")


#: The storage-stack knobs by name, in the order the conformance
#: shrinker drops them.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("num_devices", 1, "--devices",
             "simulated SSD array size (DESIGN.md §14); results are identical at any N, "
             "only the device overlay changes",
             minimum=1, env="REPRO_DEVICES"),
        Knob("placement", "affinity", "--placement",
             "device-array placement policy; only meaningful with more than one device",
             choices=PLACEMENTS),
        Knob("io_plan", "off", "--io-plan",
             "superstep I/O planner (DESIGN.md §13): per-path batches, extent reads + "
             "channel-balanced waves, or both plus next-group prefetch into the page cache",
             choices=IO_PLAN_MODES, env="REPRO_IO_PLAN"),
        Knob("cache_policy", "none", "--cache-policy",
             "DRAM page cache between engine and SSD (DESIGN.md §10)",
             choices=CACHE_POLICIES),
        Knob("cache_bytes", None, "--cache-bytes",
             "page-cache budget in bytes, at least one SSD page; implies clock; "
             "None is the cache_fraction share of host DRAM",
             minimum=lambda cfg: cfg.ssd.page_size, implies=("cache_policy", "clock")),
        Knob("num_workers", 1, "--workers",
             "simulated worker lanes (DESIGN.md §11); results are identical at any N, "
             "only the scheduler overlay changes",
             minimum=1, env="REPRO_NUM_WORKERS"),
    )
}

#: Each stack knob's built-in default.  The conformance fuzzer and
#: shrinker iterate this dict, so a saved case that omits a knob runs at
#: the built-in default whatever the ``REPRO_*`` environment says.
STACK_KNOBS = {name: knob.default for name, knob in KNOBS.items()}


def _knob_field(name: str):
    knob = KNOBS[name]
    return field(default_factory=knob.env_default) if knob.env else field(default=knob.default)


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
    #: default 512 KiB) -- enough to hold the multi-log's
    #: write-then-read-once stream as dirty pages until it is consumed
    #: (the cache writes the scratch logs back, so such a page never
    #: reaches flash) plus the hot CSR pages.  At 12.5 MiB of host DRAM
    #: this split is the fastest of those measured for bench PageRank
    #: (ROADMAP item 3).  With the default ``cache_policy="none"`` this
    #: fraction funds nothing and the paper's graph-much-larger-than-
    #: memory regime is unchanged.
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
    #: The storage-stack knobs (:data:`KNOBS` declares each one's
    #: default, ``REPRO_*`` default and domain).  Values, records and
    #: semantic traces are bit-identical at any setting of lanes,
    #: planner and device array; the cache changes only what is charged.
    cache_policy: str = _knob_field("cache_policy")
    #: ``None`` resolves to ``memory.cache_bytes_default``.
    cache_bytes: Optional[int] = _knob_field("cache_bytes")
    num_workers: int = _knob_field("num_workers")
    io_plan: str = _knob_field("io_plan")
    num_devices: int = _knob_field("num_devices")
    placement: str = _knob_field("placement")
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
        for knob in KNOBS.values():
            knob.check(self)
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

    def with_io_plan(self, mode: str) -> "SimConfig":
        """Return a copy with the superstep I/O planner configured."""
        return dataclasses.replace(self, io_plan=mode)

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
