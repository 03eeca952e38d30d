"""Golden fingerprints of every engine.

Every engine -- MultiLogVC and the superstep-skeleton engines of
:class:`repro.core.superstep.SuperstepEngine` (GraphChi, GraFBoost plain
and adapted, GridGraph, X-Stream and the oracle) -- must produce
bit-identical results for a fixed (graph, program, config, seed): final
values, every superstep record, the SSD stats and the full trace -- each
event's kind, fields (in emission order) and simulated timestamp.
MultiLogVC's rows also pin its ``loader.*``, ``io.*``, ``cache.*`` and
``device.*`` (device-array) gauges, and PageRank and BFS run once more on
each storage stack of :data:`STACKS`: page cache plus read-ahead, a
striped and an affinity device array, and two lanes over coalesced I/O.

A change that moves any simulated number, record field or trace event of
any engine fails here.  The skeleton engines' digests were recorded
before they shared one skeleton; GraFBoost's were re-recorded once since,
when its log sort became a natural merge: its compute time moved and
``extsort`` gained ``records`` and ``natural_runs``; nothing else
changed.  MultiLogVC's digests were recorded before its loader,
read-ahead and I/O plan mapped a whole group's pages at once.

Each run also checks the compute ledger: ``RunResult.compute_by_site``
sums to ``compute_time_us`` and equals the ``compute.<site>_us`` gauges.
"""

import hashlib
import json
import math
from typing import Optional

import numpy as np
import pytest

import repro
from repro.algorithms import (
    BFSProgram,
    CommunityDetectionProgram,
    DeltaPageRankProgram,
    GraphColoringProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.config import MemoryConfig, SimConfig, SSDConfig
from repro.core.results import COMPUTE_SITES
from repro.errors import EngineError
from repro.graph.datasets import small_rmat
from repro.obs import TraceRecorder

PROGRAMS = {
    "pagerank": DeltaPageRankProgram,
    "bfs": BFSProgram,
    "sssp": SSSPProgram,
    "wcc": WCCProgram,
    "cdlp": CommunityDetectionProgram,
    "coloring": GraphColoringProgram,
}

#: engine label -> (registry name, options)
ENGINES = {
    "graphchi": ("graphchi", None),
    "grafboost": ("grafboost", None),
    "grafboost-adapted": ("grafboost", repro.EngineOptions(adapted=True)),
    "gridgraph": ("gridgraph", None),
    "xstream": ("xstream", None),
    "oracle": ("oracle", None),
    "multilogvc": ("multilogvc", None),
}

#: MultiLogVC storage stacks: label -> config transform of the base
#: config.  They run on a 1 024-vertex graph with 1 KiB pages, so files
#: span many pages: extents, read-ahead, edge-log hits and device-array
#: savings all occur.
STACKS = {
    "cache16+readahead": lambda c: c.with_cache("clock", 16 * c.ssd.page_size).with_io_plan(
        "coalesce+readahead"
    ),
    "devices4-stripe": lambda c: c.with_devices(4, "stripe"),
    "devices4-affinity": lambda c: c.with_devices(4, "affinity"),
    "lanes2+coalesce": lambda c: c.with_workers(2).with_io_plan("coalesce"),
}

#: gauge prefixes folded into MultiLogVC's digests
GAUGE_PREFIXES = ("loader.", "io.", "cache.", "device.")

GOLDEN = {
    ("grafboost", "bfs"): "9525fd2f9419b2fa9aa1cb14c6749c3275b3e5cd2a8c7a166e56730f7f4b6f5b",
    ("grafboost", "pagerank"): "07a4aa131b2774766e3f1377981cbbba1b4378627d977834f872a47f8875b14e",
    ("grafboost", "sssp"): "4f34a09206140566e31e1254db6a4ba03f44e03ddf33cdd871d8728c543a2b4c",
    ("grafboost", "wcc"): "2cf1ebe4e4a8286dd82ca02ca8d1ee4ea9e3367891c607258946bd7a38020d09",
    ("grafboost-adapted", "bfs"): "1b0c67b9da5f22ac2515327e04975515b4a0800b4c01b31d94a1abdcd738c487",
    ("grafboost-adapted", "cdlp"): "4d5d9593f9463baabcd88a900c4569bcdc62c8c0c4a3f9bab65bc53b20e9c1b5",
    ("grafboost-adapted", "coloring"): "d331f0d430e54ac548de97eaf138251a449feb48a3e76b103a35ab042fc12ed5",
    ("grafboost-adapted", "pagerank"): "69e864dc8e3207fd60975db2f77dd85e2b7ae0340e61cc359b45a53397f3baff",
    ("grafboost-adapted", "sssp"): "df261ad30dad1f4222aadd88b10df2b5294c0b439d98787d944c55ffe05c6ecc",
    ("grafboost-adapted", "wcc"): "b8d35802b27db2b422ce91c59f26ac1c7ec6e5dcd4396d5c1d29ef2760bebb31",
    ("graphchi", "bfs"): "397b818080eaa78b289ab12745e379e24a2be13bb828c90da76aaff2c4e89290",
    ("graphchi", "cdlp"): "ab37dc07f72f997c983e961f232bd90cf9ff1ffb7701f098d175743b48546956",
    ("graphchi", "coloring"): "baf8e6ea0dae037131ad11fde3295d8c31d9cc6883a98006df6180f90369b7df",
    ("graphchi", "pagerank"): "7b9735b5cd21b807162d14b839d84355a02f8762f91f8188b6776ebcaa0d1fdc",
    ("graphchi", "sssp"): "7a3eb491fa3a439ff44ea5899e7e1b56b51a4dd386191b820ced6af42ea7cc9a",
    ("graphchi", "wcc"): "5b0c8e3428301eb860def25e071e37aa413b4ca2b1fa5ac2215608ac787218dc",
    ("gridgraph", "bfs"): "294319be48282452d089974ca48dec936f9a19040572bae7bf7fd2c6477d130b",
    ("gridgraph", "pagerank"): "d6b6cdf339a8028232ed59c29943922b9d9be016f71601a8f0ad19394011da56",
    ("gridgraph", "sssp"): "00b87215ba2c46fa8685ffeb7930780285bfb04777e51956482d7519ddcb98cb",
    ("gridgraph", "wcc"): "f3f4ec32367c76349845d2ddf97371d2922741592871e1973c33cbda48a333d6",
    ("multilogvc", "bfs"): "b3ad82598d7ff82fc0936c7856374d5523acb4255c0982f0e23f1fe621baad8d",
    ("multilogvc", "cdlp"): "d4818f31905bff92c0f41394495c06c64d3a0ebb3031fdb2bde3552df40e5693",
    ("multilogvc", "coloring"): "0e837b87cd93f9ac7abda86be0279473cdccdd7f4e112730a8ea1aa0bb1ed217",
    ("multilogvc", "pagerank"): "dfab40a710229cc91342ec2e3acae56407fb84219eeb3d23a27a9ca1b9d2d64c",
    ("multilogvc", "sssp"): "5b6967a093ff9bde0a2cd6755b36c71a0160a2adc8dfadaa6c34c35cc855b741",
    ("multilogvc", "wcc"): "c936bf55cee6a0ff7d0903ed9f3a7d3021b3a1fc1d8cc0066c4fd6f7155b34dd",
    ("oracle", "bfs"): "f336301167d0e704dccc6fb75030d5dbc233cd36634f32bf7638f890fdccf774",
    ("oracle", "cdlp"): "25398f60e0cf8e55e1e00d7e9af6a709cd6128c09b9f54fc3419642e4a8bd2aa",
    ("oracle", "coloring"): "5d6111136334f3a8299ed46814ee205f79d2068c40b8ca4ba9d42c97874a4ded",
    ("oracle", "pagerank"): "54f8fd56191e4665669989e20a9ec4be7bc5cfadcc408f1310cc7dba2ba7b878",
    ("oracle", "sssp"): "89c58697614c578ff22e858fe9fd89db818bb5f16aa03efff3ecfbfbd1e1954f",
    ("oracle", "wcc"): "1f44b52817731be4d56a7089f947e5cdf5b8bd14609c6d771d21060fdfd1dd9c",
    ("xstream", "bfs"): "62d8ccd78e01836c0bbaedbca7a6907983823ff1f76d2fb5560cdf9de399bd7e",
    ("xstream", "pagerank"): "e211754cba595824ebebe0d4b34a75a4537f8f831aec9c76ea8ff3efcdfcb316",
    ("xstream", "sssp"): "58d23c6fcf6e088770ff733992d974622bf3d6ae46b6168a42afb0c8eb305e78",
    ("xstream", "wcc"): "3cac37721c18a86f0a938f6422428065d6cff5956fed6e6bb50bba0551ccd26a",
}

#: MultiLogVC on each of :data:`STACKS`: (stack, program) -> digest
GOLDEN_STACKS = {
    ("cache16+readahead", "bfs"): "f77e33d4455b55c91eeb80b83e66efcba266bc3ae7c5f40aa74fb336e82c844f",
    ("cache16+readahead", "pagerank"): "c1bfe7e502562248f67a7e19ddda7d2c9fcd73c0ed8fd972aec8ab20470dff18",
    ("devices4-affinity", "bfs"): "10995e192ea04ecb5e496788a5b4235b2b36d804769b4cfd0b71150893373b86",
    ("devices4-affinity", "pagerank"): "91729f442aa1b45ae4e07a97f0ea276412f86d1dbcd92266b414f40d37c81bbc",
    ("devices4-stripe", "bfs"): "24e0c032211c6f59aee9e254a09bacd11dd820f555fc73de4306a298d74456ba",
    ("devices4-stripe", "pagerank"): "ec409166b8843969807c9f7b25c330f0647014364cecbe28b9bebfd7b637fbf0",
    ("lanes2+coalesce", "bfs"): "06f226337a2be4a70d59611660fb72e8e65f47c4057f5b8effbd9e648fe00625",
    ("lanes2+coalesce", "pagerank"): "8b80187c74b95cfe0ecdf9cef2cad1457248972c2c468be47922d944dd96c97c",
}

#: sha256 of the ``repro.engines()`` capability table
GOLDEN_CAPABILITIES = (
    "6cc8e9efdc5d215ac2ae86d2d590d241e935fae264adcab28132cc74ae972b23"
)


def _default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(type(o))


def _digest(obj) -> str:
    blob = json.dumps(obj, default=_default, allow_nan=True).encode()
    return hashlib.sha256(blob).hexdigest()


def fingerprint(label: str, program: str, stack: Optional[str] = None):
    """sha256 of one run's values, records, stats and trace (None: unsupported)."""
    engine, options = ENGINES[label]
    n, page_size = (256, 4096) if stack is None else (1024, 1024)
    graph = small_rmat(n=n, m=8 * n, seed=3, weighted=True)
    # A small sort budget: four GraphChi shards, two grid rows, a
    # multi-run external sort and a four-interval combine tree.
    config = SimConfig(
        ssd=SSDConfig(page_size=page_size, channels=4),
        memory=MemoryConfig(total_bytes=256 * 1024, sort_fraction=0.05),
    ).with_workers(1).with_io_plan("off").with_devices(1)
    if stack is not None:
        config = STACKS[stack](config)
    tracer = TraceRecorder()
    try:
        res = repro.run(
            graph, PROGRAMS[program](), engine, config=config, options=options,
            tracer=tracer, max_supersteps=8, seed=5,
        )
    except EngineError:
        return None
    assert math.isclose(sum(res.compute_by_site.values()), res.compute_time_us, rel_tol=1e-9)
    assert {k: res.metrics[f"compute.{k}_us"] for k in COMPUTE_SITES} == res.compute_by_site
    h = hashlib.sha256(np.ascontiguousarray(res.values, dtype=np.float64).tobytes())
    h.update(_digest([r.to_dict() for r in res.supersteps]).encode())
    h.update(_digest(res.stats.to_dict()).encode())
    h.update(_digest([[e.kind, e.fields, e.t_us] for e in tracer.events]).encode())
    if engine == "multilogvc":
        gauges = {k: v for k, v in sorted(res.metrics.items()) if k.startswith(GAUGE_PREFIXES)}
        h.update(_digest(gauges).encode())
    return h.hexdigest()


def capabilities_digest() -> str:
    return _digest(
        {
            name: [sorted(i.options), i.supports_resume, i.supports_checkpoint,
                   i.in_memory, i.supports_warm_start]
            for name, i in repro.engines().items()
        }
    )


@pytest.mark.parametrize("label", sorted(ENGINES))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_engine_fingerprint(label, program):
    assert fingerprint(label, program) == GOLDEN.get((label, program))


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("program", ["bfs", "pagerank"])
def test_multilogvc_stack_fingerprint(stack, program):
    assert fingerprint("multilogvc", program, stack) == GOLDEN_STACKS[(stack, program)]


def test_capability_table_fingerprint():
    assert capabilities_digest() == GOLDEN_CAPABILITIES
