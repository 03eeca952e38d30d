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
import sys
import time
from pathlib import Path
from typing import List, Optional

from .config import CACHE_POLICIES, DEFAULT_CONFIG, IO_PLAN_MODES, PLACEMENTS
from .experiments import ALL_EXPERIMENTS
from .experiments.common import ExperimentResult


def _print_results(results) -> None:
    if isinstance(results, ExperimentResult):
        results = [results]
    for r in results:
        print(r.render())
        print()


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
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from .obs import TraceRecorder

        tracer = TraceRecorder()
    collected: List[ExperimentResult] = []
    for name in names:
        fn = ALL_EXPERIMENTS[name]
        kwargs = {}
        if args.scale:
            kwargs["scale"] = args.scale
        if args.datasets and name not in ("fig5", "ablations", "table1"):
            kwargs["datasets"] = tuple(args.datasets.split(","))
        t0 = time.time()
        if tracer is not None:
            # Ambient tracer: every engine the experiment constructs
            # picks it up via repro.obs.current_tracer().
            from .obs import use_tracer

            with use_tracer(tracer):
                results = fn(**kwargs)
        else:
            results = fn(**kwargs)
        _print_results(results)
        if isinstance(results, ExperimentResult):
            collected.append(results)
        else:
            collected.extend(results)
        print(f"[{name} regenerated in {time.time() - t0:.1f}s]\n")
    if tracer is not None:
        from .obs import write_jsonl

        write_jsonl(tracer.events, args.trace)
        print(f"[trace: {len(tracer.events)} events written to {args.trace}]")
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


def _compute_program(name: str, args):
    from . import algorithms as alg

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
    from .graph import datasets as d

    small = {
        "rmat256": lambda: d.small_rmat(n=256, m=2048, seed=3, weighted=weighted),
        "rmat512": lambda: d.small_rmat(weighted=weighted),
        "chain": d.small_chain,
        "ring": d.small_ring,
        "grid": d.small_grid,
        "star": d.small_star,
        "tiny": d.tiny_paper_graph,
        "two_components": d.two_components,
    }
    if name in small:
        g = small[name]()
        if weighted and g.weights is None:
            raise SystemExit(f"dataset {name!r} has no weighted variant")
        return g
    return d.dataset_by_name(name, scale=scale, weighted=weighted)


def _parse_fault(spec: str, seed: int):
    """``KIND@OPS[:KLASS]`` with KIND in crash|torn|error, e.g. ``crash@40:mlog``."""
    from .ssd import FaultPlan, FaultRule

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


def cmd_compute(args) -> int:
    from . import engines as repro_engines
    from . import resume as repro_resume
    from . import run as repro_run
    from .config import small_test_config
    from .errors import ConfigError, RecoveryError, SimulatedCrashError
    from .options import EngineOptions
    from .recovery import CheckpointData, CheckpointManager
    from .ssd.filesystem import SimFS

    all_engines = repro_engines()
    if args.engine not in all_engines:
        print(
            f"unknown engine {args.engine!r}; choose from {', '.join(sorted(all_engines))}",
            file=sys.stderr,
        )
        return 2
    caps = all_engines[args.engine]
    if args.resume_from and not caps.supports_resume:
        capable = sorted(n for n, i in repro_engines().items() if i.supports_resume)
        print(
            f"engine {args.engine!r} does not support --resume-from "
            f"(supported by: {', '.join(capable)})",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_every and not caps.supports_checkpoint:
        capable = sorted(n for n, i in repro_engines().items() if i.supports_checkpoint)
        print(
            f"engine {args.engine!r} does not support --checkpoint-every "
            f"(supported by: {', '.join(capable)})",
            file=sys.stderr,
        )
        return 2
    if args.resume_from and args.fault:
        print(
            "--resume-from and --fault conflict: the fault plan would arm against "
            "the resumed run's fresh file system, not the crashed one; inject the "
            "fault in the first run and resume in a second invocation",
            file=sys.stderr,
        )
        return 2
    if args.updates:
        if args.resume_from:
            print(
                "--updates and --resume-from conflict: a checkpoint binds to the "
                "graph it was computed on, which the update batch changes",
                file=sys.stderr,
            )
            return 2
        if not Path(args.updates).is_file():
            print(f"--updates file not found: {args.updates}", file=sys.stderr)
            return 2
    cache_enabled = args.cache_policy != "none" or args.cache_bytes is not None
    if args.io_plan == "coalesce+readahead" and not cache_enabled:
        print(
            "--io-plan coalesce+readahead requires a page cache to prefetch "
            "into: add --cache-policy clock (or --cache-bytes)",
            file=sys.stderr,
        )
        return 2
    if args.readahead_pages is not None and args.io_plan != "coalesce+readahead":
        print(
            "--readahead-pages only applies with --io-plan coalesce+readahead",
            file=sys.stderr,
        )
        return 2
    if (args.devices is not None or args.placement is not None) and caps.in_memory:
        capable = sorted(n for n, i in all_engines.items() if not i.in_memory)
        print(
            f"engine {args.engine!r} performs no simulated I/O, so --devices/"
            f"--placement do not apply (supported by: {', '.join(capable)})",
            file=sys.stderr,
        )
        return 2

    try:
        cfg = small_test_config() if args.scale == "test" else DEFAULT_CONFIG
        if cache_enabled:
            # --cache-bytes alone implies the (only) real policy, clock.
            cfg = cfg.with_cache(policy="clock", cache_bytes=args.cache_bytes)
        if args.workers is not None:
            cfg = cfg.with_workers(args.workers)
        if args.io_plan != "off":
            cfg = cfg.with_io_plan(args.io_plan, readahead_pages=args.readahead_pages)
        cfg = cfg.with_devices(args.devices, args.placement)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    weighted = args.weighted or args.algorithm in _NEEDS_WEIGHTS
    graph = _compute_dataset(args.dataset, args.scale, weighted)
    program = _compute_program(args.algorithm, args)
    opt_kwargs = {}
    if caps.supports_checkpoint:
        opt_kwargs = dict(
            checkpoint_every=args.checkpoint_every, checkpoint_mode=args.checkpoint_mode
        )
    options = EngineOptions(**opt_kwargs)

    if args.updates:
        return _compute_with_updates(args, graph, program, cfg, options)

    fs = SimFS(cfg)
    if args.fault:
        fs.device.install_faults(_parse_fault(args.fault, args.fault_seed))

    tracer = None
    if args.trace:
        from .obs import TraceRecorder

        tracer = TraceRecorder()

    def _finish_trace():
        if tracer is not None:
            from .obs import write_jsonl

            write_jsonl(tracer.events, args.trace)
            print(f"[trace: {len(tracer.events)} events written to {args.trace}]")

    def _save_checkpoint():
        if not args.checkpoint_out:
            return
        try:
            ckpt = CheckpointManager.load_latest(fs)
        except RecoveryError as exc:
            print(f"[no checkpoint to save: {exc}]", file=sys.stderr)
            return
        ckpt.save(args.checkpoint_out)
        print(f"[checkpoint {ckpt.ckpt_id} (superstep {ckpt.step}) saved to {args.checkpoint_out}]")

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
            result = repro_resume(graph, program, args.resume_from, **common)
        else:
            result = repro_run(graph, program, engine=args.engine, **common)
    except SimulatedCrashError as exc:
        print(f"simulated power loss: {exc}", file=sys.stderr)
        _save_checkpoint()
        _finish_trace()
        return 3
    print(result.summary())
    _save_checkpoint()
    _finish_trace()
    return 0


def _read_update_records(path: str) -> list:
    """Parse a JSONL update file (one ``{"op", "src", "dst", ...}`` per line)."""
    import json

    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{path}:{lineno}: malformed JSON: {exc}")
    return records


def _compute_with_updates(args, graph, program, cfg, options) -> int:
    """``compute --updates``: merge one batch, then run on the result."""
    from .errors import GraphFormatError, SimulatedCrashError
    from .obs import NULL_TRACER
    from .stream import EdgeDelta, StreamSession

    try:
        delta = EdgeDelta.from_records(_read_update_records(args.updates))
        delta.validate(graph.n)
    except GraphFormatError as exc:
        print(f"bad --updates file {args.updates}: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from .obs import TraceRecorder

        tracer = TraceRecorder()
    session = StreamSession(
        graph, program, engine=args.engine, config=cfg,
        options=options, recompute=args.recompute,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    if args.fault:
        session.fs.device.install_faults(_parse_fault(args.fault, args.fault_seed))
    try:
        ing = session.ingest(delta)
        app = session.apply_updates()
        r = session.recompute(max_supersteps=args.max_supersteps, seed=args.seed)
    except SimulatedCrashError as exc:
        print(f"simulated power loss: {exc}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            from .obs import write_jsonl

            write_jsonl(tracer.events, args.trace)
            print(f"[trace: {len(tracer.events)} events written to {args.trace}]")
    print(
        f"[updates: {delta.n} records ({delta.n_adds} adds, {delta.n_deletes} deletes) "
        f"merged in {ing['io_us'] + app['io_us']:.0f} us simulated I/O; "
        f"recompute={r.mode} (changed {r.changed_edges} edges, "
        f"{100 * r.changed_fraction:.1f}%)]"
    )
    print(r.result.summary())
    return 0


def cmd_ingest(args) -> int:
    from . import engines as repro_engines
    from .config import small_test_config
    from .errors import ConfigError, GraphFormatError, SimulatedCrashError
    from .obs import NULL_TRACER
    from .stream import EdgeDelta, StreamSession, random_delta

    import numpy as np

    if args.engine not in repro_engines():
        print(
            f"unknown engine {args.engine!r}; choose from "
            f"{', '.join(sorted(repro_engines()))}",
            file=sys.stderr,
        )
        return 2
    if bool(args.updates) == bool(args.random):
        print("exactly one of --updates FILE or --random N is required", file=sys.stderr)
        return 2
    if args.updates and not Path(args.updates).is_file():
        print(f"--updates file not found: {args.updates}", file=sys.stderr)
        return 2

    try:
        cfg = (small_test_config() if args.scale == "test" else DEFAULT_CONFIG).with_stream(
            compact_threshold=args.compact_threshold,
            max_delta_fraction=args.max_delta_fraction,
        )
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    weighted = args.algorithm in _NEEDS_WEIGHTS
    graph = _compute_dataset(args.dataset, args.scale, weighted)
    program = _compute_program(args.algorithm, args)

    tracer = None
    if args.trace:
        from .obs import TraceRecorder

        tracer = TraceRecorder()
    session = StreamSession(
        graph, program, engine=args.engine, config=cfg, recompute=args.recompute,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )

    # Batch plan: a JSONL file is split evenly into --batches chunks;
    # --random N generates N seeded ops per batch against the live edges.
    if args.updates:
        try:
            all_records = _read_update_records(args.updates)
            deltas = [
                EdgeDelta.from_records([all_records[int(i)] for i in chunk])
                for chunk in np.array_split(np.arange(len(all_records)), max(1, args.batches))
                if len(chunk)
            ]
            for d in deltas:
                d.validate(graph.n)
        except GraphFormatError as exc:
            print(f"bad --updates file {args.updates}: {exc}", file=sys.stderr)
            return 2
    else:
        deltas = None  # generated per batch, against the evolving live set

    rows = []
    try:
        base = session.recompute(max_supersteps=args.max_supersteps, seed=args.seed)
        print(f"[baseline: {base.result.summary()}]")
        n_batches = len(deltas) if deltas is not None else max(1, args.batches)
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
            ing = session.ingest(delta)
            app = session.apply_updates()
            r = session.recompute(max_supersteps=args.max_supersteps, seed=args.seed)
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
    except SimulatedCrashError as exc:
        print(f"simulated power loss: {exc}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            from .obs import write_jsonl

            write_jsonl(tracer.events, args.trace)
            print(f"[trace: {len(tracer.events)} events written to {args.trace}]")

    snap = session.metrics.snapshot()
    stream_keys = sorted(k for k in snap if k.startswith("stream."))
    print("stream totals:")
    for k in stream_keys:
        v = snap[k]
        print(f"  {k} = {v:.0f}" if isinstance(v, float) else f"  {k} = {v}")
    if args.json:
        import json

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
    cache_cfg = cfg.with_cache()
    print(f"  page cache (--cache-policy clock): "
          f"{cache_cfg.resolved_cache_bytes // 1024} KiB "
          f"({cache_cfg.cache_pages} pages; "
          f"{int(100 * cfg.memory.cache_fraction)}% of host DRAM)")
    from . import engines as repro_engines

    print("engines:")
    for name, info in repro_engines().items():
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
    from .graph.datasets import dataset_table

    print("bench-scale datasets:")
    for label, n, m in dataset_table("bench"):
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
    runp.add_argument("--scale", choices=("test", "bench", "large"), default=None)
    runp.add_argument("--datasets", default=None, help="comma list, e.g. cf,yws")
    runp.add_argument("--trace", default=None, metavar="PATH",
                      help="record engine trace events and write them as JSONL")
    runp.add_argument("--csv", default=None, metavar="PATH",
                      help="export the experiment table(s) as CSV")
    runp.add_argument("--json", default=None, metavar="PATH",
                      help="export the experiment table(s) as JSON")
    runp.set_defaults(func=cmd_run)
    comp = sub.add_parser(
        "compute",
        help="one MultiLogVC run with checkpoint / resume / fault-injection controls",
    )
    comp.add_argument("algorithm", choices=_COMPUTE_ALGORITHMS)
    comp.add_argument("--dataset", default="rmat256", choices=_DATASET_NAMES,
                      metavar="NAME",
                      help=f"one of: {', '.join(_DATASET_NAMES)} (default: rmat256)")
    comp.add_argument("--scale", choices=("test", "bench", "large"), default="test")
    comp.add_argument("--engine", default="multilogvc",
                      help="engine to run (see 'repro info' for capabilities; "
                           "default: multilogvc)")
    comp.add_argument("--workers", type=int, default=None, metavar="N",
                      help="simulated worker lanes of the overlap model (multilogvc; "
                           "results are identical at any N, only the scheduler.* "
                           "overlay accounting changes)")
    comp.add_argument("--devices", type=int, default=None, metavar="N",
                      help="simulated SSD device-array size (DESIGN.md §14; "
                           "results are identical at any N, only the device.* "
                           "overlay accounting changes; default: REPRO_DEVICES or 1)")
    comp.add_argument("--placement", choices=PLACEMENTS, default=None,
                      help="device-array placement policy (default: affinity; "
                           "only meaningful with --devices > 1)")
    comp.add_argument("--weighted", action="store_true",
                      help="use edge weights (implied by sssp)")
    comp.add_argument("--source", type=int, default=0, help="bfs/sssp source vertex")
    comp.add_argument("--max-supersteps", type=int, default=15)
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                      help="write a crash-consistent checkpoint every N supersteps")
    comp.add_argument("--checkpoint-mode", choices=("full", "incremental"), default="full")
    comp.add_argument("--checkpoint-out", default=None, metavar="PATH",
                      help="save the newest valid on-SSD checkpoint to a host file "
                           "(also after a simulated crash)")
    comp.add_argument("--resume-from", default=None, metavar="PATH",
                      help="resume from a checkpoint saved with --checkpoint-out")
    comp.add_argument("--cache-policy", choices=CACHE_POLICIES, default="none",
                      help="DRAM page cache between engine and SSD (default: none)")
    comp.add_argument("--cache-bytes", type=int, default=None, metavar="BYTES",
                      help="cache budget; implies --cache-policy clock "
                           "(default: the cache_fraction share of host DRAM)")
    comp.add_argument("--io-plan", choices=IO_PLAN_MODES, default="off",
                      help="superstep I/O planner: off (per-path batches), coalesce "
                           "(extent reads + channel-balanced waves), or "
                           "coalesce+readahead (adds next-group prefetch; requires "
                           "--cache-policy clock).  Values are identical in every "
                           "mode; only simulated storage time changes (default: off)")
    comp.add_argument("--readahead-pages", type=int, default=None, metavar="N",
                      help="per-superstep prefetch page budget; only valid with "
                           "--io-plan coalesce+readahead (default: 64)")
    comp.add_argument("--fault", default=None, metavar="SPEC",
                      help="inject a fault: KIND@OPS[:KLASS], KIND in crash/torn/error "
                           "(e.g. crash@40, torn@10:mlog, error@5:csr_col)")
    comp.add_argument("--fault-seed", type=int, default=0)
    comp.add_argument("--updates", default=None, metavar="FILE",
                      help="JSONL edge updates to merge before the run "
                           "(conflicts with --resume-from)")
    comp.add_argument("--recompute", choices=("auto", "incremental", "full"),
                      default="auto",
                      help="with --updates: warm-start policy (default: auto)")
    comp.add_argument("--trace", default=None, metavar="PATH",
                      help="record engine trace events and write them as JSONL")
    comp.set_defaults(func=cmd_compute)
    ing = sub.add_parser(
        "ingest",
        help="stream edge updates into a graph and keep results fresh "
             "(multi-log ingestion + incremental recomputation)",
    )
    ing.add_argument("algorithm", choices=_COMPUTE_ALGORITHMS)
    ing.add_argument("--dataset", default="rmat256", choices=_DATASET_NAMES,
                     metavar="NAME",
                     help=f"one of: {', '.join(_DATASET_NAMES)} (default: rmat256)")
    ing.add_argument("--scale", choices=("test", "bench", "large"), default="test")
    ing.add_argument("--engine", default="multilogvc",
                     help="engine for the recomputes (default: multilogvc)")
    ing.add_argument("--updates", default=None, metavar="FILE",
                     help="JSONL update records, split evenly into --batches chunks")
    ing.add_argument("--random", type=int, default=None, metavar="N",
                     help="generate N seeded random ops per batch instead of a file")
    ing.add_argument("--batches", type=int, default=3, metavar="B",
                     help="number of update batches (default: 3)")
    ing.add_argument("--source", type=int, default=0, help="bfs/sssp source vertex")
    ing.add_argument("--max-supersteps", type=int, default=50)
    ing.add_argument("--seed", type=int, default=0)
    ing.add_argument("--recompute", choices=("auto", "incremental", "full"),
                     default="auto",
                     help="warm-start policy per batch (default: auto)")
    ing.add_argument("--compact-threshold", type=float, default=None, metavar="F",
                     help="compact an interval when its garbage fraction exceeds F")
    ing.add_argument("--max-delta-fraction", type=float, default=None, metavar="F",
                     help="'auto' falls back to full recompute above this "
                          "changed-edge fraction")
    ing.add_argument("--trace", default=None, metavar="PATH",
                     help="record trace events (ingest_stats/compaction included) "
                          "and write them as JSONL")
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
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
