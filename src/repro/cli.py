"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the available experiments (paper tables/figures + ablations).
``run <experiment> [...]``
    Regenerate one experiment and print its paper-style table.
``run all``
    Regenerate everything (slow at bench scale).
``compute <algorithm> [...]``
    One engine run with checkpointing, crash/resume, and fault
    injection controls (see DESIGN.md §8).
``info``
    Print the active configuration and dataset shapes.

Examples::

    python -m repro list
    python -m repro run fig5 --scale test
    python -m repro run fig6 --scale bench --datasets cf
    python -m repro run fig5 --scale test --trace /tmp/fig5.jsonl --json /tmp/fig5.json
    python -m repro compute pagerank --dataset rmat256 --checkpoint-every 2 \
        --fault crash@15 --checkpoint-out /tmp/pr.ckpt
    python -m repro compute pagerank --dataset rmat256 --resume-from /tmp/pr.ckpt
    python -m repro info

``run`` artifacts:

* ``--trace PATH`` -- install an ambient :class:`~repro.obs.TraceRecorder`
  for every engine run the experiment performs and write the combined
  event stream as JSONL;
* ``--csv PATH`` / ``--json PATH`` -- export the experiment tables
  (one file per table when an experiment produces several).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import algorithms as alg
from .config import DEFAULT_CONFIG, KNOBS, small_test_config
from .errors import (
    ConfigError, EngineError, GraphFormatError, RecoveryError, SimulatedCrashError
)
from .experiments import ALL_EXPERIMENTS
from .experiments.common import ExperimentResult
from .graph import datasets as ds
from .obs import TraceRecorder, current_tracer, use_tracer, write_jsonl
from .options import EngineOptions
from .recovery import CheckpointManager
from .runner import engines, resume, run
from .ssd import FaultPlan, FaultRule
from .ssd.filesystem import SimFS
from .stream import EdgeDelta, StreamSession, random_delta


class UsageError(Exception):
    """A command-line mistake: :func:`main` prints it and exits 2."""


@contextlib.contextmanager
def _trace_to(path: Optional[str]):
    """The tracer for a command's engine runs: the ambient one, or with a
    ``path`` a recorder whose events are written there as JSONL on the
    way out -- after a simulated crash too.
    """
    if not path:
        yield current_tracer()
        return
    tracer = TraceRecorder()
    try:
        yield tracer
    finally:
        write_jsonl(tracer.events, path)
        print(f"[trace: {len(tracer.events)} events written to {path}]")


def cmd_list(_args) -> int:
    print("available experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    return 0


def _export_results(results: List[ExperimentResult], path: str, kind: str) -> None:
    """Write experiment tables to ``path`` (suffixed when several)."""
    from .metrics.export import save_csv, save_json

    save = save_csv if kind == "csv" else save_json
    p = Path(path)
    if len(results) == 1:
        written = [save(results[0], p)]
    else:
        written = [
            save(r, p.with_name(f"{p.stem}-{r.experiment}{p.suffix}"))
            for r in results
        ]
    for w in written:
        print(f"[{kind} written to {w}]")


def cmd_run(args) -> int:
    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise UsageError(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"choose from: {', '.join(ALL_EXPERIMENTS)} or 'all'"
        )
    collected: List[ExperimentResult] = []
    # Ambient tracer: every engine the experiment constructs picks it up
    # via repro.obs.current_tracer().
    with _trace_to(args.trace) as tracer, use_tracer(tracer):
        for name in names:
            kwargs = {}
            if args.scale:
                kwargs["scale"] = args.scale
            if args.datasets and name not in ("fig5", "ablations", "table1"):
                kwargs["datasets"] = tuple(args.datasets.split(","))
            t0 = time.time()
            results = ALL_EXPERIMENTS[name](**kwargs)
            if isinstance(results, ExperimentResult):
                results = [results]
            for r in results:
                print(r.render())
                print()
            collected.extend(results)
            print(f"[{name} regenerated in {time.time() - t0:.1f}s]\n")
    if args.csv:
        _export_results(collected, args.csv, "csv")
    if args.json:
        _export_results(collected, args.json, "json")
    return 0


#: Algorithm names accepted by ``compute``.
_COMPUTE_ALGORITHMS = ("pagerank", "bfs", "wcc", "sssp", "cdlp", "coloring", "mis")

#: Algorithms that require edge weights (forces ``--weighted``).
_NEEDS_WEIGHTS = {"sssp"}

#: Dataset names accepted by ``compute``/``ingest`` ``--dataset``.
#: An argparse ``choices`` list, so ``--help`` shows the valid names and
#: a typo exits immediately with the list instead of failing mid-run.
_DATASET_NAMES = (
    "cf", "yws",
    "rmat256", "rmat512", "chain", "ring", "grid", "star", "tiny", "two_components",
)

_SCALES = ("test", "bench", "large")


def _compute_program(name: str, args):
    table = {
        "pagerank": lambda: alg.DeltaPageRankProgram(),
        "bfs": lambda: alg.BFSProgram(source=args.source),
        "wcc": lambda: alg.WCCProgram(),
        "sssp": lambda: alg.SSSPProgram(source=args.source),
        "cdlp": lambda: alg.CommunityDetectionProgram(),
        "coloring": lambda: alg.GraphColoringProgram(),
        "mis": lambda: alg.MISProgram(),
    }
    return table[name]()


def _compute_dataset(name: str, scale: str, weighted: bool):
    small = {
        "rmat256": lambda: ds.small_rmat(n=256, m=2048, seed=3, weighted=weighted),
        "rmat512": lambda: ds.small_rmat(weighted=weighted),
        "chain": ds.small_chain,
        "ring": ds.small_ring,
        "grid": ds.small_grid,
        "star": ds.small_star,
        "tiny": ds.tiny_paper_graph,
        "two_components": ds.two_components,
    }
    if name in small:
        g = small[name]()
        if weighted and g.weights is None:
            raise SystemExit(f"dataset {name!r} has no weighted variant")
        return g
    return ds.dataset_by_name(name, scale=scale, weighted=weighted)


def _parse_fault(spec: str, seed: int):
    """``KIND@OPS[:KLASS]`` with KIND in crash|torn|error, e.g. ``crash@40:mlog``."""
    head, _, klass = spec.partition(":")
    kind, at, ops = head.partition("@")
    if kind not in ("crash", "torn", "error") or not at:
        raise SystemExit(
            f"bad --fault spec {spec!r}; expected KIND@OPS[:KLASS], "
            f"KIND one of crash/torn/error"
        )
    try:
        n_ops = int(ops)
    except ValueError:
        raise SystemExit(f"bad --fault spec {spec!r}: OPS must be an integer") from None
    kl = klass or None
    if kind == "crash":
        return FaultPlan.crash_after(n_ops, seed=seed, klass=kl)
    if kind == "torn":
        return FaultPlan.torn_write_after(n_ops, seed=seed, klass=kl)
    return FaultPlan(
        [FaultRule(op="read", kind="error", after_ops=n_ops, klass=kl, transient=True)],
        seed=seed,
    )


def _engine(name: str):
    """Engine ``name``'s capabilities; an unknown name is a usage error."""
    all_engines = engines()
    if name not in all_engines:
        raise UsageError(f"unknown engine {name!r}; choose from {', '.join(sorted(all_engines))}")
    return all_engines[name]


def _supported_by(capability: str, value: bool = True) -> str:
    return ", ".join(sorted(n for n, i in engines().items() if getattr(i, capability) == value))


def _config(args, **changes):
    """The ``--scale`` base config with the non-``None`` ``changes``."""
    try:
        base = small_test_config() if args.scale == "test" else DEFAULT_CONFIG
        return dataclasses.replace(base, **{k: v for k, v in changes.items() if v is not None})
    except ConfigError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None


def _options(args, **fields) -> EngineOptions:
    """``args.engine``'s options; a bad option or ``--max-supersteps`` is a usage error."""
    options = EngineOptions(**fields)
    try:
        options.validate_for(args.engine)
        if args.max_supersteps < 0:
            raise EngineError(f"max_supersteps must be >= 0, got {args.max_supersteps}")
    except EngineError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None
    return options


def _stack_config(args, caps):
    """``compute``'s config: the stack flags given (``config.KNOBS``) on
    the base; a flag left out keeps the built-in or ``REPRO_*`` default."""
    given = [knob for knob in KNOBS.values() if getattr(args, knob.name) is not None]
    if given and caps.in_memory:
        raise UsageError(
            f"engine {args.engine!r} performs no simulated I/O, so "
            f"{'/'.join(knob.flag for knob in given)} {'does' if len(given) == 1 else 'do'} "
            f"not apply (supported by: {_supported_by('in_memory', False)})"
        )
    changes = {knob.name: getattr(args, knob.name) for knob in given}
    changes.update(knob.implies for knob in given if knob.implies)
    cfg = _config(args, **changes)
    # Without a cache the planner would silently fall back to coalescing.
    if "io_plan" in changes and cfg.io_plan == "coalesce+readahead" and not cfg.cache_pages:
        raise UsageError(
            f"{KNOBS['io_plan'].flag} {cfg.io_plan} requires a page cache to prefetch into: "
            f"add {KNOBS['cache_policy'].flag} clock (or {KNOBS['cache_bytes'].flag})"
        )
    return cfg


def _read_deltas(path: str, n_vertices: int, batches: int = 1) -> List[EdgeDelta]:
    """The ``--updates`` JSONL file (one ``{"op", "src", "dst", ...}`` per
    line), split evenly into ``batches`` validated deltas."""
    if not Path(path).is_file():
        raise UsageError(f"--updates file not found: {path}")
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{path}:{lineno}: malformed JSON: {exc}")
    try:
        deltas = [
            EdgeDelta.from_records([records[i] for i in chunk])
            for chunk in np.array_split(np.arange(len(records)), batches)
        ]
        for d in deltas:
            d.validate(n_vertices)
    except GraphFormatError as exc:
        raise UsageError(f"bad --updates file {path}: {exc}") from None
    return deltas


def _apply_batch(session: StreamSession, delta: EdgeDelta, args):
    """Ingest one update batch, merge it, and recompute on the result."""
    ing = session.ingest(delta)
    app = session.apply_updates()
    return ing, app, session.recompute(max_supersteps=args.max_supersteps, seed=args.seed)


def cmd_compute(args) -> int:
    caps = _engine(args.engine)
    for flag, asked, capability in (
        ("--resume-from", args.resume_from, "supports_resume"),
        ("--checkpoint-every", args.checkpoint_every, "supports_checkpoint"),
    ):
        if asked and not getattr(caps, capability):
            raise UsageError(
                f"engine {args.engine!r} does not support {flag} "
                f"(supported by: {_supported_by(capability)})"
            )
    if args.resume_from and args.fault:
        raise UsageError(
            "--resume-from and --fault conflict: the fault plan would arm against "
            "the resumed run's fresh file system, not the crashed one; inject the "
            "fault in the first run and resume in a second invocation"
        )
    if args.updates and args.resume_from:
        raise UsageError(
            "--updates and --resume-from conflict: a checkpoint binds to the "
            "graph it was computed on, which the update batch changes"
        )
    cfg = _stack_config(args, caps)
    opt_kwargs = {}
    if caps.supports_checkpoint:
        opt_kwargs = dict(checkpoint_every=args.checkpoint_every)
    options = _options(args, **opt_kwargs)

    weighted = args.weighted or args.algorithm in _NEEDS_WEIGHTS
    graph = _compute_dataset(args.dataset, args.scale, weighted)
    program = _compute_program(args.algorithm, args)

    if args.updates:
        (delta,) = _read_deltas(args.updates, graph.n)
        return _compute_with_updates(args, graph, program, cfg, options, delta)

    fs = SimFS(cfg)
    if args.fault:
        fs.device.install_faults(_parse_fault(args.fault, args.fault_seed))
    with _trace_to(args.trace) as tracer:
        common = dict(
            config=cfg,
            options=options,
            tracer=tracer,
            fs=fs,
            max_supersteps=args.max_supersteps,
            seed=args.seed,
        )
        try:
            if args.resume_from:
                result = resume(graph, program, args.resume_from, **common)
            else:
                result = run(graph, program, engine=args.engine, **common)
        except SimulatedCrashError:
            _save_checkpoint(fs, args.checkpoint_out)
            raise
        print(result.summary())
        _save_checkpoint(fs, args.checkpoint_out)
    return 0


def _save_checkpoint(fs: SimFS, path: Optional[str]) -> None:
    """Copy the newest valid on-SSD checkpoint to the host file ``path``."""
    if not path:
        return
    try:
        ckpt = CheckpointManager.load_latest(fs)
    except RecoveryError as exc:
        print(f"[no checkpoint to save: {exc}]", file=sys.stderr)
        return
    ckpt.save(path)
    print(f"[checkpoint {ckpt.ckpt_id} (superstep {ckpt.step}) saved to {path}]")


def _compute_with_updates(args, graph, program, cfg, options, delta) -> int:
    """``compute --updates``: merge one batch, then run on the result."""
    with _trace_to(args.trace) as tracer:
        session = StreamSession(
            graph, program, engine=args.engine, config=cfg,
            options=options, recompute=args.recompute, tracer=tracer,
        )
        if args.fault:
            session.fs.device.install_faults(_parse_fault(args.fault, args.fault_seed))
        ing, app, r = _apply_batch(session, delta, args)
    print(
        f"[updates: {delta.n} records ({delta.n_adds} adds, {delta.n_deletes} deletes) "
        f"merged in {ing['io_us'] + app['io_us']:.0f} us simulated I/O; "
        f"recompute={r.mode} (changed {r.changed_edges} edges, "
        f"{100 * r.changed_fraction:.1f}%)]"
    )
    print(r.result.summary())
    return 0


def cmd_ingest(args) -> int:
    _engine(args.engine)
    if bool(args.updates) == bool(args.random):
        raise UsageError("exactly one of --updates FILE or --random N is required")
    cfg = _config(
        args,
        stream_compact_threshold=args.compact_threshold,
        stream_max_delta_fraction=args.max_delta_fraction,
    )
    options = _options(args)
    weighted = args.algorithm in _NEEDS_WEIGHTS
    graph = _compute_dataset(args.dataset, args.scale, weighted)
    program = _compute_program(args.algorithm, args)

    # Batch plan: a JSONL file is split evenly into --batches chunks;
    # --random N generates N seeded ops per batch against the live edges.
    n_batches = max(1, args.batches)
    deltas = None
    if args.updates:
        deltas = [d for d in _read_deltas(args.updates, graph.n, n_batches) if d.n]
        n_batches = len(deltas)

    rows = []
    with _trace_to(args.trace) as tracer:
        session = StreamSession(
            graph, program, engine=args.engine, config=cfg, options=options,
            recompute=args.recompute, tracer=tracer,
        )
        base = session.recompute(max_supersteps=args.max_supersteps, seed=args.seed)
        print(f"[baseline: {base.result.summary()}]")
        for b in range(n_batches):
            if deltas is not None:
                delta = deltas[b]
            else:
                rng = np.random.default_rng([args.seed, b])
                ls, ld = session.store.live_edge_arrays()
                delta = random_delta(
                    rng, graph.n, ls, ld, args.random,
                    weighted=weighted, ts0=1000 * b,
                )
            ing, app, r = _apply_batch(session, delta, args)
            row = {
                "batch": b,
                "seq": ing["seq"],
                "records": delta.n,
                "adds": delta.n_adds,
                "deletes": delta.n_deletes,
                "compactions": app["compactions"],
                "mode": r.mode,
                "changed_edges": r.changed_edges,
                "seed_io_us": r.seed_io_us,
                "engine_io_us": r.result.stats.total_time_us,
                "supersteps": len(r.result.supersteps),
            }
            rows.append(row)
            print(
                f"batch {b}: seq={row['seq']} {row['records']} records "
                f"({row['adds']}+/{row['deletes']}-), "
                f"compactions={row['compactions']}, recompute={row['mode']} "
                f"({row['supersteps']} supersteps, "
                f"{row['seed_io_us'] + row['engine_io_us']:.0f} us simulated I/O)"
            )

    snap = session.metrics.snapshot()
    stream_keys = sorted(k for k in snap if k.startswith("stream."))
    print("stream totals:")
    for k in stream_keys:
        v = snap[k]
        print(f"  {k} = {v:.0f}" if isinstance(v, float) else f"  {k} = {v}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "dataset": args.dataset,
                    "algorithm": args.algorithm,
                    "batches": rows,
                    "totals": {k: snap[k] for k in stream_keys},
                },
                indent=2,
                default=float,
            )
            + "\n"
        )
        print(f"[json written to {args.json}]")
    return 0


def cmd_info(_args) -> int:
    cfg = DEFAULT_CONFIG
    print("default simulation configuration:")
    print(f"  SSD: {cfg.ssd.page_size} B pages x {cfg.ssd.channels} channels, "
          f"read {cfg.ssd.read_latency_us} us/page, write {cfg.ssd.write_latency_us} us/page")
    print(f"  peak bandwidth: {cfg.ssd.peak_read_bandwidth_mbps:.0f} MB/s read, "
          f"{cfg.ssd.peak_write_bandwidth_mbps:.0f} MB/s write")
    print(f"  memory: {cfg.memory.total_bytes // 1024} KiB "
          f"(sort {int(100 * cfg.memory.sort_fraction)}%, "
          f"multi-log {int(100 * cfg.memory.multilog_fraction)}%, "
          f"edge-log {int(100 * cfg.memory.edgelog_fraction)}%)")
    print(f"  records: update {cfg.records.update_bytes} B, "
          f"shard edge {cfg.records.edge_record_bytes} B")
    print("storage-stack knobs (compute flag, env default):")
    for knob in KNOBS.values():
        env = f", {knob.env}" if knob.env else ""
        print(f"  {knob.name} = {getattr(cfg, knob.name)!r} ({knob.flag}{env})")
    cache_cfg = cfg.with_cache()
    print(f"  page cache when on: {cache_cfg.resolved_cache_bytes // 1024} KiB "
          f"({cache_cfg.cache_pages} pages; "
          f"{int(100 * cfg.memory.cache_fraction)}% of host DRAM)")
    print("engines:")
    for name, info in engines().items():
        flags = []
        if info.supports_resume:
            flags.append("resume")
        if info.supports_checkpoint:
            flags.append("checkpoint")
        if info.in_memory:
            flags.append("in-memory")
        opts = ", ".join(sorted(info.options)) or "none"
        print(f"  {name}: {' '.join(flags) or 'out-of-core'}")
        print(f"    options: {opts}")
    print("bench-scale datasets:")
    for label, n, m in ds.dataset_table("bench"):
        print(f"  {label}: {n:,} vertices, {m:,} edges")
    return 0


def cmd_verify(args) -> int:
    from .verify import fuzz, replay_case, save_case, shrink
    from .verify.shrinker import default_still_fails

    if args.replay:
        outcome = replay_case(args.replay)
        print(outcome.describe())
        return 0 if outcome.ok else 1

    if args.stream is not None:
        from .verify import fuzz_stream

        failures = []

        def stream_progress(outcome):
            if not outcome.ok or not args.quiet:
                print(outcome.describe())
            if not outcome.ok:
                failures.append(outcome)

        outcomes = fuzz_stream(args.seed, args.stream, progress=stream_progress)
        print(f"{len(outcomes)} stream cases, {len(failures)} failures (seed={args.seed})")
        return 1 if failures else 0

    engines = args.engines.split(",") if args.engines else None
    failures = []

    def progress(outcome):
        if not outcome.ok or not args.quiet:
            print(outcome.describe())
        if not outcome.ok:
            failures.append(outcome)

    outcomes = fuzz(args.seed, args.cases, engines=engines, progress=progress)
    print(f"{len(outcomes)} cases, {len(failures)} failures (seed={args.seed})")
    if failures and args.shrink:
        for outcome in failures:
            print(f"shrinking {outcome.case.case_id} ...")
            try:
                small = shrink(outcome.case, default_still_fails)
            except ValueError:
                print("  failure did not reproduce under shrinking; saving original")
                small = outcome.case
            path = save_case(
                small,
                args.save_dir,
                mismatches=outcome.mismatches,
                note=f"shrunk from {outcome.case.case_id} (seed={args.seed})",
            )
            print(f"  -> {small.graph.get('n', '?')} vertices, saved {path}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="MultiLogVC reproduction command line"
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments").set_defaults(func=cmd_list)
    runp = sub.add_parser("run", help="regenerate one experiment (or 'all')")
    runp.add_argument("experiment")
    runp.add_argument("--scale", choices=_SCALES, default=None)
    runp.add_argument("--datasets", default=None, help="comma list, e.g. cf,yws")
    runp.add_argument("--trace", default=None, metavar="PATH",
                      help="record engine trace events and write them as JSONL")
    runp.add_argument("--csv", default=None, metavar="PATH",
                      help="export the experiment table(s) as CSV")
    runp.add_argument("--json", default=None, metavar="PATH",
                      help="export the experiment table(s) as JSON")
    runp.set_defaults(func=cmd_run)

    # What compute and ingest share: the workload, engine and stream inputs.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("algorithm", choices=_COMPUTE_ALGORITHMS)
    shared.add_argument("--dataset", default="rmat256", choices=_DATASET_NAMES,
                        metavar="NAME",
                        help=f"one of: {', '.join(_DATASET_NAMES)} (default: rmat256)")
    shared.add_argument("--scale", choices=_SCALES, default="test")
    shared.add_argument("--engine", default="multilogvc",
                        help="engine to run (see 'repro info' for capabilities; "
                             "default: multilogvc)")
    shared.add_argument("--source", type=int, default=0, help="bfs/sssp source vertex")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--recompute", choices=("auto", "incremental", "full"),
                        default="auto",
                        help="warm-start policy after an update batch (default: auto)")
    shared.add_argument("--trace", default=None, metavar="PATH",
                        help="record engine trace events and write them as JSONL")
    shared.add_argument("--updates", default=None, metavar="FILE",
                        help="JSONL edge updates: compute merges them before the run "
                             "(conflicts with --resume-from), ingest splits them "
                             "into --batches chunks")

    comp = sub.add_parser(
        "compute", parents=[shared],
        help="one MultiLogVC run with checkpoint / resume / fault-injection controls",
    )
    comp.add_argument("--weighted", action="store_true",
                      help="use edge weights (implied by sssp)")
    comp.add_argument("--max-supersteps", type=int, default=15)
    comp.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                      help="write a crash-consistent checkpoint every N supersteps")
    comp.add_argument("--checkpoint-out", default=None, metavar="PATH",
                      help="save the newest valid on-SSD checkpoint to a host file "
                           "(also after a simulated crash)")
    comp.add_argument("--resume-from", default=None, metavar="PATH",
                      help="resume from a checkpoint saved with --checkpoint-out")
    comp.add_argument("--fault", default=None, metavar="SPEC",
                      help="inject a fault: KIND@OPS[:KLASS], KIND in crash/torn/error "
                           "(e.g. crash@40, torn@10:mlog, error@5:csr_col)")
    comp.add_argument("--fault-seed", type=int, default=0)
    stack = comp.add_argument_group(
        "storage stack", "one flag per config.KNOBS entry; a flag left out keeps "
        "the default (an engine without simulated I/O takes none)")
    for knob in KNOBS.values():
        kind = {"choices": knob.choices} if knob.choices else {"type": int, "metavar": "N"}
        env = f", or ${knob.env}" if knob.env else ""
        stack.add_argument(knob.flag, dest=knob.name, default=None,
                           help=f"{knob.help} (default: {knob.default}{env})", **kind)
    comp.set_defaults(func=cmd_compute)

    ing = sub.add_parser(
        "ingest", parents=[shared],
        help="stream edge updates into a graph and keep results fresh "
             "(multi-log ingestion + incremental recomputation)",
    )
    ing.add_argument("--random", type=int, default=None, metavar="N",
                     help="generate N seeded random ops per batch instead of a file")
    ing.add_argument("--batches", type=int, default=3, metavar="B",
                     help="number of update batches (default: 3)")
    ing.add_argument("--max-supersteps", type=int, default=50)
    ing.add_argument("--compact-threshold", type=float, default=None, metavar="F",
                     help="compact an interval when its garbage fraction exceeds F")
    ing.add_argument("--max-delta-fraction", type=float, default=None, metavar="F",
                     help="'auto' falls back to full recompute above this "
                          "changed-edge fraction")
    ing.add_argument("--json", default=None, metavar="PATH",
                     help="write per-batch stats and stream totals as JSON")
    ing.set_defaults(func=cmd_ingest)
    sub.add_parser("info", help="show configuration and datasets").set_defaults(func=cmd_info)
    ver = sub.add_parser(
        "verify",
        help="differential conformance check: every engine vs the golden oracle",
    )
    ver.add_argument("--seed", type=int, default=0, help="fuzzer master seed")
    ver.add_argument("--cases", type=int, default=25, help="number of cases to run")
    ver.add_argument("--stream", type=int, default=None, metavar="N",
                     help="run N streaming-update differential cases instead "
                          "(ingest/merge/recompute vs from-scratch oracle)")
    ver.add_argument("--engines", default=None,
                     help="comma list to restrict, e.g. multilogvc,graphchi")
    ver.add_argument("--shrink", action="store_true",
                     help="reduce each failure to a minimal repro and save it")
    ver.add_argument("--save-dir", default="tests/cases", metavar="DIR",
                     help="where --shrink writes repro JSON files (default: tests/cases)")
    ver.add_argument("--replay", default=None, metavar="PATH",
                     help="re-run one saved repro file instead of fuzzing")
    ver.add_argument("-q", "--quiet", action="store_true",
                     help="print failing cases only")
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SimulatedCrashError as exc:
        print(f"simulated power loss: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
