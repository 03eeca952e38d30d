"""Failure injection: misuse must fail loudly, injected faults must
behave exactly as the fault plan specifies.

Two families of tests live here: the original misuse checks (bad
configs, bad programs, bad storage calls raise the right error class)
and the :class:`~repro.ssd.faults.FaultPlan` tests -- injected read
errors mid-load, torn writes on multi-log flushes, crashes between a
checkpoint and the next superstep commit, retry-with-backoff, and
channel degradation.
"""

import dataclasses

import numpy as np
from repro.options import EngineOptions
import pytest

from repro import (
    BudgetExceededError,
    ConfigError,
    EngineError,
    GraphFormatError,
    InjectedFaultError,
    MultiLogVC,
    ProgramError,
    RecoveryError,
    ReproError,
    SimulatedCrashError,
    StorageError,
)
from repro.config import MemoryConfig, SimConfig, SSDConfig, small_test_config
from repro.core import InitialState, VertexProgram
from repro.core.update import UpdateBatch
from repro.graph import CSRGraph
from repro.ssd import (
    ChannelDegradation,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    SimFS,
    SimulatedSSD,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError,
            StorageError,
            BudgetExceededError,
            GraphFormatError,
            EngineError,
            ProgramError,
            InjectedFaultError,
            RecoveryError,
            SimulatedCrashError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ProgramError("x")


class TestConfigInjection:
    def test_zero_channels(self):
        with pytest.raises(ConfigError):
            SimConfig(ssd=SSDConfig(channels=0))

    def test_absurd_fractions(self):
        with pytest.raises(ConfigError):
            SimConfig(memory=MemoryConfig(sort_fraction=0.99, multilog_fraction=0.005, edgelog_fraction=0.01))

    def test_sort_budget_too_small_for_one_update(self):
        with pytest.raises(ConfigError):
            SimConfig(
                ssd=SSDConfig(page_size=512),
                memory=MemoryConfig(total_bytes=2048, sort_fraction=0.005, multilog_fraction=0.5, edgelog_fraction=0.1),
            )


class TestStorageInjection:
    def test_read_beyond_file(self, fs):
        f = fs.create_page_file("log", "x")
        f.append_page("a")
        with pytest.raises(StorageError):
            f.read_pages(np.array([0, 5]))

    def test_negative_page_ids(self, fs):
        f = fs.create_page_file("log", "x")
        f.append_page("a")
        with pytest.raises(StorageError):
            f.read_pages(np.array([-1]))

    def test_double_create(self, fs):
        fs.create_page_file("dup", "x")
        with pytest.raises(StorageError):
            fs.create_array_file("dup", "x", np.zeros(1), 8)

    def test_device_rejects_foreign_channels(self, cfg):
        dev = SimulatedSSD(cfg)
        with pytest.raises(StorageError):
            dev.write_batch([cfg.ssd.channels + 3], "x")


class TestGraphInjection:
    def test_empty_partition(self):
        g = CSRGraph.from_edges(4, [0], [1])
        from repro.graph.partition import partition_by_update_volume

        with pytest.raises(GraphFormatError):
            partition_by_update_volume(g, -5, 16)

    def test_zero_vertex_graph(self):
        from repro.graph.partition import partition_by_update_volume

        g = CSRGraph(np.array([0]), np.empty(0, np.int32))
        with pytest.raises(GraphFormatError):
            partition_by_update_volume(g, 100, 16)


class _Base(VertexProgram):
    name = "probe"

    def initial(self, graph, rng):
        return InitialState(values=np.zeros(graph.n), active=np.array([0]))

    def process(self, ctx):
        ctx.deactivate()


class TestProgramInjection:
    def test_send_to_negative_vertex(self, cfg, chain16):
        class P(_Base):
            def process(self, ctx):
                ctx.send(-5, 1.0)

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, P(), cfg).run(1)

    def test_send_many_shape_mismatch(self, cfg, chain16):
        class P(_Base):
            def process(self, ctx):
                ctx.send_many(np.array([1, 2]), np.array([1.0]))

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, P(), cfg).run(1)

    @pytest.mark.parametrize("dest", [-1, 16 + 5, 2**32 + 3])
    def test_seed_message_out_of_range(self, cfg, chain16, dest):
        # Used to be accepted silently (-1 wrapped to the last vertex,
        # 2**32 + 3 narrowed to vertex 3) or die with a raw IndexError
        # (n + 5).
        class P(_Base):
            def initial(self, graph, rng):
                seed = UpdateBatch.of(np.array([dest], dtype=np.int64), [0], [0.0])
                return InitialState(np.zeros(graph.n), np.empty(0, np.int64), seed)

        with pytest.raises(ProgramError, match=r"\[0, 16\)"):
            MultiLogVC(chain16, P(), cfg).run(1)

    @pytest.mark.parametrize("dest", [-1, 16 + 5, 2**32 + 3])
    def test_kernel_send_batch_out_of_range(self, cfg, chain16, dest):
        # A kernel's int64 destinations are range-checked before they are
        # narrowed to the log's int32 column (2**32 + 3 is not vertex 3).
        class P(_Base):
            def process_batch(self, batch):
                wide = np.array([1, dest], dtype=np.int64)
                batch.send_batch(wide, np.zeros(2, np.int64), np.ones(2))

        with pytest.raises(ProgramError, match=r"\[0, 16\)"):
            MultiLogVC(chain16, P(), cfg).run(1)

    def test_edge_state_without_declaration(self, cfg, chain16):
        class P(_Base):
            def process(self, ctx):
                ctx.set_edge_state(int(ctx.out_neighbors[0]), 1.0)

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, P(), cfg).run(1)

    def test_neighbor_index_of_non_neighbor(self, cfg, chain16):
        class P(_Base):
            uses_edge_state = True

            def process(self, ctx):
                ctx.neighbor_index(15)  # vertex 0's only neighbor is 1

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, P(), cfg).run(1)

    def test_invalid_combine_at_class_creation(self):
        with pytest.raises(ProgramError):

            class Bad(VertexProgram):  # noqa: F811
                combine = "median"

                def initial(self, graph, rng):  # pragma: no cover
                    ...

                def process(self, ctx):  # pragma: no cover
                    ...

    def test_graphchi_rejects_mutating_program(self, cfg, chain16):
        from repro.baselines import GraphChi

        class P(_Base):
            mutates_structure = True

        with pytest.raises(EngineError):
            GraphChi(chain16, P(), cfg)

    def test_grafboost_rejects_mutating_program(self, cfg, chain16):
        from repro.baselines import GraFBoost

        class P(_Base):
            mutates_structure = True

        with pytest.raises(EngineError):
            GraFBoost(chain16, P(), cfg, options=EngineOptions(adapted=True))

    def test_graphchi_rejects_non_edge_send(self, cfg, chain16):
        from repro.baselines import GraphChi

        class P(_Base):
            def process(self, ctx):
                # vertex 0 sends to vertex 9: no such edge on a chain
                ctx._send(9, ctx.vid, 1.0)

        with pytest.raises(ProgramError):
            GraphChi(chain16, P(), cfg).run(1)

    def test_grafboost_invalid_fanout(self, cfg, chain16):
        from repro.baselines import GraFBoost
        from repro.algorithms import WCCProgram

        with pytest.raises(EngineError):
            GraFBoost(chain16, WCCProgram(), cfg, options=EngineOptions(merge_fanout=1))


class TestProcessCrashPropagates:
    def test_engine_does_not_swallow_program_errors(self, cfg, chain16):
        class Boom(_Base):
            def process(self, ctx):
                raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            MultiLogVC(chain16, Boom(), cfg).run(2)

    def test_bad_initial_active_out_of_range(self, cfg, chain16):
        class P(_Base):
            def initial(self, graph, rng):
                return InitialState(values=np.zeros(graph.n), active=np.array([999]))

        with pytest.raises(Exception):
            MultiLogVC(chain16, P(), cfg).run(1)


class TestFaultPlanMisuse:
    def test_bad_op(self):
        with pytest.raises(ConfigError):
            FaultRule(op="erase")

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            FaultRule(kind="meltdown")

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            FaultRule(probability=0.0)

    def test_negative_after_ops(self):
        with pytest.raises(ConfigError):
            FaultRule(after_ops=-1)


def _pagerank_engine(cfg, options=None):
    from repro.algorithms import DeltaPageRankProgram
    from repro.graph.datasets import small_rmat
    from repro.options import EngineOptions

    return MultiLogVC(
        small_rmat(n=256, m=2048, seed=3),
        DeltaPageRankProgram(),
        cfg,
        options=options or EngineOptions(),
    )


class TestInjectedFaults:
    def test_read_error_mid_graph_load(self, cfg):
        """A hard read error while streaming CSR adjacency aborts the run."""
        eng = _pagerank_engine(cfg)
        eng.fs.device.install_faults(
            FaultPlan.read_error(klass="csr_col", after_ops=2)
        )
        with pytest.raises(InjectedFaultError) as exc_info:
            eng.run(8)
        assert exc_info.value.klass == "csr_col"
        assert exc_info.value.op == "read"

    def test_torn_write_on_multilog_flush(self, cfg):
        """A torn multi-log flush persists a strict prefix, then crashes."""
        from repro.algorithms import DeltaPageRankProgram
        from repro.graph.datasets import small_rmat

        def engine():
            return MultiLogVC(small_rmat(n=1024, m=16384, seed=3), DeltaPageRankProgram(), cfg)

        # How many flushes a run has depends on what reaches the log (a
        # send-side combine leaves few): count them, tear the middle one.
        flushes = engine().run(8).stats.writes["mlog"].batches
        assert flushes >= 2
        eng = engine()
        eng.fs.device.install_faults(
            FaultPlan.torn_write_after(flushes // 2, seed=5, klass="mlog")
        )
        with pytest.raises(SimulatedCrashError) as exc_info:
            eng.run(8)
        assert exc_info.value.pages_persisted >= 0

    def test_torn_write_truncates_page_file(self, fs):
        """The page file keeps exactly the persisted prefix after a torn write."""
        f = fs.create_page_file("log", "x")
        f.append_page(b"before")
        fs.device.install_faults(FaultPlan.torn_write_after(0, seed=11))
        with pytest.raises(SimulatedCrashError) as exc_info:
            f.append_pages([b"a", b"b", b"c", b"d"])
        persisted = exc_info.value.pages_persisted
        assert 0 <= persisted < 4
        assert f.n_pages == 1 + persisted

    def test_crash_between_checkpoint_and_superstep_commit(self, cfg):
        """Power loss inside the *next* checkpoint's payload write leaves the
        previous commit as the newest valid cut; recovery from it is exact."""
        from repro.algorithms import DeltaPageRankProgram
        from repro.graph.datasets import small_rmat
        from repro.options import EngineOptions
        from repro.recovery import crash_resume_experiment

        # klass-filtered after_ops=2 skips checkpoint 1's payload+commit
        # batches, so the crash lands mid-write of checkpoint 2 -- after
        # superstep 3 ran but before its cut became durable.
        report = crash_resume_experiment(
            lambda: small_rmat(n=256, m=2048, seed=3),
            lambda: DeltaPageRankProgram(),
            config=cfg,
            options=EngineOptions(checkpoint_every=2),
            crash_after_ops=2,
            fault_klass="ckpt",
            max_supersteps=8,
        )
        assert report.crashed
        assert report.checkpoint_id == 1
        assert report.ok, report.describe()

    def test_transient_error_retries_and_succeeds(self, cfg):
        dev = SimulatedSSD(cfg)
        dev.install_faults(
            FaultPlan.read_error(klass="x", transient=True, max_fires=1),
            retry_policy=RetryPolicy(max_retries=2, backoff_us=50.0),
        )
        t = dev.read_batch(np.array([0, 1]), "x")
        assert t > 0
        retries = dev.stats.to_dict()["reads"].get("retry")
        assert retries is not None and retries["batches"] == 1
        assert retries["time_us"] == 50.0

    def test_transient_error_exhausts_retries(self, cfg):
        dev = SimulatedSSD(cfg)
        dev.install_faults(
            FaultPlan(
                [FaultRule(op="read", kind="error", transient=True, max_fires=0)]
            ),
            retry_policy=RetryPolicy(max_retries=2, backoff_us=50.0),
        )
        with pytest.raises(InjectedFaultError, match="after 2 retries"):
            dev.read_batch(np.array([0]), "x")

    def test_channel_degradation_slows_reads(self, cfg):
        dev = SimulatedSSD(cfg)
        healthy_t = dev.read_batch(np.array([0]), "x")
        dev.install_faults(
            FaultPlan(
                [
                    FaultRule(
                        op="read", kind="error", channel=0,
                        transient=True, max_fires=3,
                    )
                ]
            ),
            retry_policy=RetryPolicy(max_retries=3, backoff_us=10.0),
            degradation=ChannelDegradation(error_threshold=3, read_latency_multiplier=2.0),
        )
        dev.read_batch(np.array([0]), "x")  # 3 transient hits -> degraded
        assert list(dev.degraded_channels) == [0]
        degraded_t = dev.read_batch(np.array([0]), "x")
        overhead = cfg.ssd.batch_overhead_us
        assert degraded_t - overhead == pytest.approx(2.0 * (healthy_t - overhead))
        # healing restores the original timing
        dev.clear_faults()
        assert dev.read_batch(np.array([0]), "x") == healthy_t

    def test_no_plan_means_no_timing_change(self, cfg):
        a, b = SimulatedSSD(cfg), SimulatedSSD(cfg)
        b.install_faults(FaultPlan([]))
        chans = np.arange(16) % cfg.ssd.channels
        assert a.read_batch(chans, "x") == b.read_batch(chans, "x")
        assert a.write_batch(chans, "x") == b.write_batch(chans, "x")
        assert a.stats.to_dict() == b.stats.to_dict()
