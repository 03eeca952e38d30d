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

When a send-side reduce became charged as a per-source-interval
sort-reduce (DESIGN.md §15), the rows whose compute moved were
re-recorded: MultiLogVC's ``pagerank``, ``bfs``, ``sssp`` and ``wcc``
and every stack row (``sort_send`` moved, and ``send_reduce`` events
joined their traces), and plain GraFBoost's same four (``sort_log``
moved, and ``extsort`` gained ``intervals``, ``survivors`` and
``item_levels``, its ``natural_runs`` now summed over intervals).
:data:`GOLDEN_VALUES_IO`, recorded before that change, passed unchanged
across it: only compute time moved.

When the page cache became write-back for the multi-log and the edge
log (DESIGN.md §10), only the ``cache16+readahead`` rows were
re-recorded, the only rows with a cache: both in :data:`GOLDEN_STACKS`
(``writeback`` events, the flushes' ``deferred`` field and the new
``cache.*`` gauges joined their traces and digests) and BFS's in
:data:`GOLDEN_VALUES_IO` (its last two-page edge-log batch is never
written back).  PageRank's :data:`GOLDEN_VALUES_IO` row passed
unchanged: on that 16-page cache each multi-log flush is larger than
the cache, so every deferred batch is written back whole at once and
costs exactly what write-through did.

When the edge log began deleting its consumed generation at rotation,
only BFS's ``cache16+readahead`` row in :data:`GOLDEN_STACKS` was
re-recorded: one clean edge-log page left the cache by that deletion
instead of by eviction (``cache.evictions`` 368 -> 367).  Every
:data:`GOLDEN_VALUES_IO` row passed unchanged.

When each stream of a send-side reduce became charged the cheaper of
its merge and a stable counting sort by destination (DESIGN.md §15),
the rows whose compute moved were re-recorded, as for the sort-reduce
before it: MultiLogVC's and plain GraFBoost's ``pagerank``, ``bfs``,
``sssp`` and ``wcc`` and every stack row (``sort_send`` / ``sort_log``
moved, and ``send_reduce`` and the reducing ``extsort`` events gained
``counted``).  Every :data:`GOLDEN_VALUES_IO` row, the cached ones
included, passed unchanged: only compute time moved.

When the cache's CLOCK hand began taking a clean victim before a dirty
one (DESIGN.md §10), only the two ``cache16+readahead`` rows were
re-recorded, in both tables: their final values and every superstep
record field but the I/O ones (``pages_read``, ``pages_read_by_class``,
``pages_written``, ``storage_time_us``) stayed as they were; the SSD
stats, ``cache.*`` gauges and trace moved.  No other row holds a dirty
page, so every other row passed unchanged.

When a send-side reduce became charged as the one stable sort by
destination that ``precombine`` runs over the whole batch (DESIGN.md
§15), with no per-source-interval streams and no cross-interval merge,
the same rows were re-recorded: MultiLogVC's and plain GraFBoost's
``pagerank``, ``bfs``, ``sssp`` and ``wcc`` and every stack row
(``sort_send`` / ``sort_log`` moved, and ``send_reduce`` and the
reducing ``extsort`` events traded ``intervals`` for ``span``, their
``natural_runs`` now the whole batch's).  Every :data:`GOLDEN_VALUES_IO`
row passed unrecorded: only compute time moved.

When a read miss began entering the cache's CLOCK ring on probation,
and a frame freed by invalidation began coming from a free-slot stack
(DESIGN.md §10), only the two ``cache16+readahead`` rows were
re-recorded, in both tables.  Their final values bytes were checked
equal, and every superstep record field but ``pages_read``,
``pages_read_by_class``, ``pages_written`` and ``storage_time_us`` (and
``total_time_us``, their sum with the unchanged compute time) equal;
the SSD stats, ``cache.*`` gauges and trace moved (PageRank 1 360 ->
1 302 pages read, BFS 398 -> 336; pages written unchanged).  Every
other row passed unrecorded.

When a write-through multi-log eviction began freeing whole stripes of
``ssd.channels`` pages (DESIGN.md §5), MultiLogVC's ``cdlp`` and
``coloring`` rows and the six ``devices4-*`` and ``lanes2+coalesce``
stack rows were re-recorded, in every table that holds them.  Their final values bytes were checked
equal, and every superstep record field but ``pages_read``,
``pages_read_by_class`` (``mlog`` only), ``pages_written``,
``storage_time_us`` and ``total_time_us`` equal.  The cached rows and
every other row passed unrecorded: under a write-back cache the
eviction is not charged and frees what it did before.

When the device stats became the one storage account, MultiLogVC's
six :data:`GOLDEN` rows and every :data:`GOLDEN_STACKS` row were
re-recorded: the ``loader.edgelog_pages`` gauge, which counted the
edge-log pages ``edgelog.pages_read`` counts, left their digests.
Values bytes, every superstep record, the SSD stats, every trace event
and every other gauge were checked equal to the parent's, but for
``edgelog.pages_read`` on the cached BFS row (0 -> 3: it now counts the
cache hits of planned reads, as it always did unplanned).  Every
:data:`GOLDEN_VALUES_IO` row passed unrecorded.

When BFS, SSSP and WCC began reading edge pages only for the vertices
their update improves (``loads_edges``, DESIGN.md §6), MultiLogVC's
``bfs``, ``sssp`` and ``wcc`` rows and the four ``bfs`` stack rows were
re-recorded, in every table that holds them.  Their final values bytes,
compute time and every superstep's ``active_vertices``,
``updates_processed``, ``messages_sent`` and ``edges_scanned`` were
checked equal to the parent's; pages, storage time, the ``loader.*``
gauges and the trace (``group_process`` gained ``edge_vertices``)
moved.  Every PageRank, CDLP and coloring row passed unrecorded.

When every charge began landing in the device stats as it is made,
with no per-group charge queue replayed after preparation, MultiLogVC's
``cdlp`` and ``coloring`` :data:`GOLDEN` rows and the ``cache16+readahead``
and ``devices4-*`` :data:`GOLDEN_STACKS` rows were re-recorded.  Values
bytes, every superstep record, the SSD stats, every gauge and every
trace event's kind and fields were checked equal to the parent's.  The
traces differed only in the key order of ``group_load``'s
``pages_by_class`` (now the order of the stats, not of the group's
charges) and in the ``t_us`` of events emitted during a group's
preparation (the cached rows' ``writeback`` events, now stamped after
the group's earlier reads).  Every :data:`GOLDEN_VALUES_IO` row and
every other row passed unrecorded.

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
    ("grafboost", "bfs"): "d6e4aeda134ebbf09f658e0bf8a008fbec38906f8666e16594b1804328a63d26",
    ("grafboost", "pagerank"): "b328d88053515477f652013dac202d452f2cda03698d0ea4429f11a5a83a8aa0",
    ("grafboost", "sssp"): "ef03b2d0003d5b98950a423e9c866976dbfa703c42e91ec0b9428a59e841a80c",
    ("grafboost", "wcc"): "1565ef7fe125ab3dc65f35cb6985268593e21e076c79d928929ce3ff16449e51",
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
    ("multilogvc", "bfs"): "43d5f975ed6d4dfedadcde61e84bbb952b03541ca36783fb09e5d8fbed8bc206",
    ("multilogvc", "cdlp"): "9c4b91e5e41c2f0980cc8d3c86826848ba056a13efa21a9e58c9b4714d7b20e5",
    ("multilogvc", "coloring"): "126ebc5ae86b4593c81b8686b4dae740d63b829ec724904a448b6719cc137630",
    ("multilogvc", "pagerank"): "b6a2183cb5b57c5c59f62dfbf46cc01fa109793e34bf9d19a47fcb154a152040",
    ("multilogvc", "sssp"): "9053593521efc04fab2829de1bd8d8d9df0bf116cd2e0f734b7e6a3dbb09dbd4",
    ("multilogvc", "wcc"): "d73d37a24c4d8b4bfdf71849ec9be7fac1ca4b9fdce3e91589c84b8642041c52",
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
    ("cache16+readahead", "bfs"): "bc89e989a1f7fa288cb5ca6bff4f21974e191ec38d46ef043e3d56e1c495d9ef",
    ("cache16+readahead", "pagerank"): "fa3c9e678856477b6c2169b63653446289cb18af9a05fc9510a3cb6397f8b3ec",
    ("devices4-affinity", "bfs"): "daf70adc17d1eabc20a5ad22584ee6a89dac101e8cec342fa3945eb76f7ba568",
    ("devices4-affinity", "pagerank"): "aa3065184633c7e832be6ca86055b4fb8e90dde96c09412b4d3eed4ca906966b",
    ("devices4-stripe", "bfs"): "1e8cd0d2454f4b1b915c3adbe46baf5a4d965ceb7aa69bdc4e71c0e10da47ccf",
    ("devices4-stripe", "pagerank"): "35fc0e661bdfd5f770fe03341ba31dc9e02e6d02a7c534bf7a452bcc95b7beba",
    ("lanes2+coalesce", "bfs"): "eb1daf35ab85f9ed9e61c127b1f3b2793d0845ccfee61c9672334d6ed54b238d",
    ("lanes2+coalesce", "pagerank"): "58b791f5e823b9b34a2b8214f0e5fdb4fa8ab2939d2eb9db7d7eaee836b58bfb",
}

#: Values and I/O only, per row of :data:`GOLDEN` and (stack, program) of
#: :data:`GOLDEN_STACKS`: final values, every superstep record less
#: ``compute_time_us`` (and the total it feeds) and the SSD stats.  A
#: change that re-records a row above for compute time alone leaves its
#: row here as it is.
GOLDEN_VALUES_IO = {
    ("grafboost", "bfs"): "40a4794e701c975ac5842074b3b6e2682ec2b2eb2b9614e3d6867cae21eeb08b",
    ("grafboost", "pagerank"): "1c34d0829eafc2304a5759607284d6c5835aa4d8c34f5d4069cc11a9eac005a7",
    ("grafboost", "sssp"): "0548ae6ade206daff4f4c8f922d59e3b2ebe4e70290dd742e298192a90b16d62",
    ("grafboost", "wcc"): "7794ed9a66a36cc18e221e7d6131e6b89d741c88c050356d920b97d47fae3243",
    ("grafboost-adapted", "bfs"): "8c65b977df5a66cf73ce29554c659de7bacdb790b3487d450fddb26b07f903de",
    ("grafboost-adapted", "cdlp"): "d7a02db97404701c4b180e6671211e7bdab687a7eda1b52fc1d10398cd2d7caa",
    ("grafboost-adapted", "coloring"): "26f60fa65c9f1154474d7c88bbbc24e58461d92613ae97e834783f8b1adc3e10",
    ("grafboost-adapted", "pagerank"): "b6220852a3b810d843484357b523e0aba72ba5549c0fad1be85fd1cb43bb917b",
    ("grafboost-adapted", "sssp"): "176c97e6f663146f5c968674ce61cc3c08c13298fddb692eec1e725d23bc27b5",
    ("grafboost-adapted", "wcc"): "d336d9b9b51d859733eccf0043b28d018ad931cd4c7d8043c6a71f580ef5f53e",
    ("graphchi", "bfs"): "7321b50474855c9c08444b90f7b8795f1012834fd79b32ed590c1bc978cc3b7d",
    ("graphchi", "cdlp"): "260ca6272191d2c89585bf640d05b30207ecc57a7cf4b81ab8290258beacd701",
    ("graphchi", "coloring"): "916c5a5d6edb4230388971d68239acb64691c7ac48ac26cedccf7d525ba3e04f",
    ("graphchi", "pagerank"): "4f49eb5ea16dda9e786809ef8b8a297ae7b20c0c26ae48a13ce75e7e761eca34",
    ("graphchi", "sssp"): "dfd4dd5f1ea3fc9905b6dde08585599f84f4ec2c405dedfd8d75d0f58b8f4b31",
    ("graphchi", "wcc"): "d60e9798b34632f9b9ec476d367cb12fd8cf39012463dd4e43c15ca28d0f4cef",
    ("gridgraph", "bfs"): "63dd9e1f64f1b031ccb11a40846a133d524965d57874ff4cc54daaafe962faef",
    ("gridgraph", "pagerank"): "a4d08a16b215909acd51b6afec7c7e74b9203aa0279d87d1bc6c7260c5f605bd",
    ("gridgraph", "sssp"): "11b672523340d410d002fbf7dc88e9df5bc39b1b1ade1f25a5cccaec438fbc42",
    ("gridgraph", "wcc"): "9ff12dfddf89a67bd527ba7d7e233dbf8317b4bc5a060a47ae4c2930e7ec6c0e",
    ("multilogvc", "bfs"): "c700f8ecd162474aa93fb032d7add060a533455b18e746a11fa29545b7ef7cc7",
    ("multilogvc", "cdlp"): "975d80b312f13594c8ebe923d7497feefd308fac0cfc646284fb12a443186fec",
    ("multilogvc", "coloring"): "a9a38d47fd23a33ce8bc49da35b926adde7e51e7491def76a710b66bbb52f6a8",
    ("multilogvc", "pagerank"): "1268586cee7af1601894c3fd2c248d659fd81072feb778bcbe386f0a3f4c32f7",
    ("multilogvc", "sssp"): "97e14547bc0ea615ab080c7f9bd27d09e937d57b3d9da1a5ab446a8f9fd223ef",
    ("multilogvc", "wcc"): "4ce55b69224870849351c3d8b38ba221c43aa9ff98b4bf0103e1544fa8079b36",
    ("oracle", "bfs"): "659c34b344833374e02a8b34b62c58efaa51b6f870b90c2e19423517c819fbc4",
    ("oracle", "cdlp"): "cc49de1e19e6bca9342dd8d0baeadf9980acbb07a3a63a461346915ea5e80c7f",
    ("oracle", "coloring"): "389715d1721829dff766a98cb4ee43ae91990631f34cb2b796b40e067110df11",
    ("oracle", "pagerank"): "c64b7566d2c6e3225df335a50dc026af91b97ea2583dbfcc4fc3bbfc21249b13",
    ("oracle", "sssp"): "cdf53fbc3fff088596b6f82304e067c47cd62d61cb63fd277b2753256a3a0899",
    ("oracle", "wcc"): "159a5ef3addd734d18fa4ea1b0a31caa63fd7e0d31b4d5b9f2d982009742d116",
    ("xstream", "bfs"): "c8d4933e14d23f6b6490efce36dc3e396076d4088507b4b65d7da9799860ee1d",
    ("xstream", "pagerank"): "a4d08a16b215909acd51b6afec7c7e74b9203aa0279d87d1bc6c7260c5f605bd",
    ("xstream", "sssp"): "a42b27ddfb2791dd4a1419aae03393cd605a21c87bbcdc8be1366670b113c177",
    ("xstream", "wcc"): "b89031cbed6404a567c149c55fb070412b96d43ee4e18b55d15132974e9d541f",
    ("cache16+readahead", "bfs"): "1f3e81d9b3b660d6bff2d02948a929834b46ed524733f17f8d5891af47be3a99",
    ("cache16+readahead", "pagerank"): "171a1df9f378f78febb9aca4454c0166ace95e67656a14336cd37964201ebb52",
    ("devices4-affinity", "bfs"): "1b5d18743cf3fefccd4a5b6286e18e6c801528d973ad64bcd3804d44313f6d31",
    ("devices4-affinity", "pagerank"): "9a48ea77279fe5c39be3c0681d0bf03d11a2ca3e3ac98ad347efe7d58f21db26",
    ("devices4-stripe", "bfs"): "1b5d18743cf3fefccd4a5b6286e18e6c801528d973ad64bcd3804d44313f6d31",
    ("devices4-stripe", "pagerank"): "9a48ea77279fe5c39be3c0681d0bf03d11a2ca3e3ac98ad347efe7d58f21db26",
    ("lanes2+coalesce", "bfs"): "5abffd70a91c7e1f6733d22f580d0533b9f775f31c946de73603466b17285f03",
    ("lanes2+coalesce", "pagerank"): "ab47b5dc65c196006d8c50e2e7f464762deba5755d0cad9d95492e9a656832ef",
}

#: sha256 of the ``repro.engines()`` capability table
GOLDEN_CAPABILITIES = (
    "bd16a5c6bed2042792b05c3c5d7bec8bd47d9f9154d847cb70219ad671dfe4bb"
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
    """Two sha256 digests of one run (None: unsupported).

    The first covers values, records, stats and trace; the second
    (:data:`GOLDEN_VALUES_IO`) only values, records less their compute
    time, and stats.
    """
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
        return None, None
    assert math.isclose(sum(res.compute_by_site.values()), res.compute_time_us, rel_tol=1e-9)
    assert {k: res.metrics[f"compute.{k}_us"] for k in COMPUTE_SITES} == res.compute_by_site
    values = np.ascontiguousarray(res.values, dtype=np.float64).tobytes()
    stats = _digest(res.stats.to_dict()).encode()
    h = hashlib.sha256(values)
    h.update(_digest([r.to_dict() for r in res.supersteps]).encode())
    h.update(stats)
    h.update(_digest([[e.kind, e.fields, e.t_us] for e in tracer.events]).encode())
    if engine == "multilogvc":
        gauges = {k: v for k, v in sorted(res.metrics.items()) if k.startswith(GAUGE_PREFIXES)}
        h.update(_digest(gauges).encode())
    v = hashlib.sha256(values)
    v.update(_digest([_untimed(r.to_dict()) for r in res.supersteps]).encode())
    v.update(stats)
    return h.hexdigest(), v.hexdigest()


def _untimed(record: dict) -> dict:
    """A superstep record without its compute time (nor the total it feeds)."""
    return {k: x for k, x in record.items() if k not in ("compute_time_us", "total_time_us")}


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
    full, values_io = fingerprint(label, program)
    assert values_io == GOLDEN_VALUES_IO.get((label, program))
    assert full == GOLDEN.get((label, program))


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("program", ["bfs", "pagerank"])
def test_multilogvc_stack_fingerprint(stack, program):
    full, values_io = fingerprint("multilogvc", program, stack)
    assert values_io == GOLDEN_VALUES_IO[(stack, program)]
    assert full == GOLDEN_STACKS[(stack, program)]


def test_capability_table_fingerprint():
    assert capabilities_digest() == GOLDEN_CAPABILITIES
