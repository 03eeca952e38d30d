"""Configuration validation and derived quantities."""

import dataclasses
from pathlib import Path

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    KNOBS,
    STACK_KNOBS,
    ComputeConfig,
    MemoryConfig,
    RecordConfig,
    SimConfig,
    SSDConfig,
    small_test_config,
)
from repro.errors import ConfigError


class TestSSDConfig:
    def test_defaults_valid(self):
        SSDConfig().validate()

    def test_page_size_must_be_multiple_of_512(self):
        with pytest.raises(ConfigError):
            SSDConfig(page_size=1000).validate()

    def test_page_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            SSDConfig(page_size=0).validate()

    def test_channels_positive(self):
        with pytest.raises(ConfigError):
            SSDConfig(channels=0).validate()

    def test_latencies_positive(self):
        with pytest.raises(ConfigError):
            SSDConfig(read_latency_us=0).validate()
        with pytest.raises(ConfigError):
            SSDConfig(write_latency_us=-1).validate()

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            SSDConfig(batch_overhead_us=-1).validate()

    def test_peak_bandwidth(self):
        c = SSDConfig(page_size=4096, channels=8, read_latency_us=75.0)
        # bytes per microsecond == MB/s
        assert c.peak_read_bandwidth_mbps == pytest.approx(8 * 4096 / 75.0)

    def test_write_bandwidth_below_read(self):
        c = SSDConfig()
        assert c.peak_write_bandwidth_mbps < c.peak_read_bandwidth_mbps


class TestMemoryConfig:
    def test_defaults_valid(self):
        MemoryConfig().validate()

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            MemoryConfig(sort_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            MemoryConfig(sort_fraction=1.0).validate()

    def test_fractions_must_sum_below_one(self):
        with pytest.raises(ConfigError):
            MemoryConfig(sort_fraction=0.9, multilog_fraction=0.09, edgelog_fraction=0.02).validate()

    def test_watermark_ordering(self):
        with pytest.raises(ConfigError):
            MemoryConfig(evict_low_free_fraction=0.5, evict_high_free_fraction=0.3).validate()

    def test_split_bytes(self):
        m = MemoryConfig(total_bytes=1000_000)
        assert m.sort_bytes == 750_000
        assert m.multilog_bytes == 50_000
        assert m.edgelog_bytes == 50_000

    def test_total_positive(self):
        with pytest.raises(ConfigError):
            MemoryConfig(total_bytes=0).validate()


class TestRecordConfig:
    def test_paper_sizes(self):
        r = RecordConfig()
        assert r.vid_bytes == 4
        assert r.rowptr_bytes == 8
        assert r.update_bytes == 16  # dest + src + 8-byte payload
        assert r.edge_record_bytes == 16  # src + dst + value

    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            RecordConfig(vid_bytes=0).validate()

    def test_edgelog_entry(self):
        r = RecordConfig()
        assert r.edgelog_entry_bytes == r.vid_bytes + r.weight_bytes


class TestComputeConfig:
    def test_defaults_valid(self):
        ComputeConfig().validate()

    def test_cores_positive(self):
        with pytest.raises(ConfigError):
            ComputeConfig(cores=0).validate()

    def test_costs_non_negative(self):
        with pytest.raises(ConfigError):
            ComputeConfig(per_edge_us=-0.1).validate()


class TestSimConfig:
    def test_default_instance_valid(self):
        DEFAULT_CONFIG.validate()

    def test_post_init_validates(self):
        with pytest.raises(ConfigError):
            SimConfig(ssd=SSDConfig(channels=-1))

    def test_with_memory(self):
        c = DEFAULT_CONFIG.with_memory(2 * 1024 * 1024)
        assert c.memory.total_bytes == 2 * 1024 * 1024
        assert DEFAULT_CONFIG.memory.total_bytes != c.memory.total_bytes

    def test_with_channels(self):
        c = DEFAULT_CONFIG.with_channels(4)
        assert c.ssd.channels == 4

    def test_updates_per_page(self):
        c = DEFAULT_CONFIG
        assert c.updates_per_page == c.ssd.page_size // c.records.update_bytes

    def test_sort_capacity(self):
        c = DEFAULT_CONFIG
        assert c.sort_capacity_updates == c.memory.sort_bytes // 16

    def test_pages_for_bytes(self):
        c = DEFAULT_CONFIG
        p = c.ssd.page_size
        assert c.pages_for_bytes(0) == 0
        assert c.pages_for_bytes(1) == 1
        assert c.pages_for_bytes(p) == 1
        assert c.pages_for_bytes(p + 1) == 2

    def test_multilog_buffer_must_hold_a_page(self):
        with pytest.raises(ConfigError):
            SimConfig(memory=MemoryConfig(total_bytes=16 * 1024, multilog_fraction=0.01))

    def test_history_window_positive(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CONFIG, edgelog_history_window=0)

    def test_efficiency_threshold_bounds(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CONFIG, page_efficiency_threshold=1.5)

    def test_mutation_threshold_positive(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(DEFAULT_CONFIG, mutation_merge_threshold=0)

    def test_small_test_config(self):
        c = small_test_config()
        assert c.ssd.page_size == 4096
        c.validate()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.edgelog_history_window = 3


class TestStackKnobs:
    """The storage-stack knobs and their CI-matrix environment defaults."""

    def test_builtin_defaults(self, monkeypatch):
        for var in ("REPRO_NUM_WORKERS", "REPRO_IO_PLAN", "REPRO_DEVICES"):
            monkeypatch.delenv(var, raising=False)
        cfg = SimConfig()
        assert {k: getattr(cfg, k) for k in STACK_KNOBS} == STACK_KNOBS

    @pytest.mark.parametrize(
        "var, knob, text, expected",
        [
            ("REPRO_NUM_WORKERS", "num_workers", "5", 5),
            ("REPRO_NUM_WORKERS", "num_workers", "0", 1),  # clamped, not an error
            ("REPRO_NUM_WORKERS", "num_workers", "junk", 1),
            ("REPRO_NUM_WORKERS", "num_workers", None, 1),
            ("REPRO_IO_PLAN", "io_plan", "coalesce+readahead", "coalesce+readahead"),
            ("REPRO_IO_PLAN", "io_plan", "nonsense", "off"),
            ("REPRO_IO_PLAN", "io_plan", None, "off"),
            ("REPRO_DEVICES", "num_devices", "4", 4),
            ("REPRO_DEVICES", "num_devices", "not-a-number", 1),
            ("REPRO_DEVICES", "num_devices", None, 1),
        ],
    )
    def test_env_default(self, monkeypatch, var, knob, text, expected):
        if text is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, text)
        assert getattr(SimConfig(), knob) == expected
        # An explicit value always wins over the environment.
        assert getattr(SimConfig(**{knob: STACK_KNOBS[knob]}), knob) == STACK_KNOBS[knob]


def render_knob_table():
    """README's "Knobs" table, one row per ``config.KNOBS`` entry."""
    rows = [
        "| `SimConfig` field | CLI flag (`compute`) | env default | default | meaning |",
        "|---|---|---|---|---|",
    ]
    for knob in KNOBS.values():
        arg = "\\|".join(knob.choices) if knob.choices else "N"
        env = f"`{knob.env}`" if knob.env else "—"
        rows.append(
            f"| `{knob.name}` | `{knob.flag} {arg}` | {env} | `{knob.default!r}` | {knob.help} |"
        )
    return rows


def test_readme_knob_table_is_rendered_from_the_declaration():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Knobs") :].splitlines()
    start = next(i for i, line in enumerate(section) if line.startswith("|"))
    end = next(i for i in range(start, len(section)) if not section[i].startswith("|"))
    assert section[start:end] == render_knob_table()


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_out_of_domain_value_names_the_field(name):
    knob = KNOBS[name]
    bad = "bogus" if knob.choices else 0
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        SimConfig(**{name: bad})
