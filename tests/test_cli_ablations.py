"""CLI behaviour and ablation experiments."""

import pytest

from repro import engines
from repro.cli import _stack_config, build_parser, main
from repro.config import KNOBS
from repro.experiments import ablations

#: A valid non-default command-line value for every stack knob.
NON_DEFAULT_FLAG_VALUES = {
    "num_devices": "3",
    "placement": "stripe",
    "io_plan": "coalesce",
    "cache_policy": "clock",
    "cache_bytes": "65536",
    "num_workers": "3",
}


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "ablations" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SSD" in out and "memory" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "regenerated" in out

    def test_run_fig2_with_datasets(self, capsys):
        assert main(["run", "fig2", "--scale", "test", "--datasets", "cf"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAblations:
    def test_edgelog_ablation(self):
        r = ablations.run_edgelog("test", steps=8)
        on, off = r.rows
        assert on[0] == "on" and off[0] == "off"
        assert on[1] <= off[1]  # edge log never increases colidx reads
        assert off[2] == 0  # no edgelog pages when disabled

    def test_fusing_ablation(self):
        r = ablations.run_fusing("test", steps=8)
        on, off = r.rows
        assert on[1] <= off[1]  # fusing lowers read-batch count
        # page totals identical: fusing changes batching, not data
        assert on[2] == off[2]

    def test_channel_ablation_monotone(self):
        r = ablations.run_channels("test", steps=8)
        times = [row[1] for row in r.rows]
        assert times == sorted(times, reverse=True)

    def test_history_window_ablation(self):
        r = ablations.run_history_window("test", steps=8)
        logged = [row[1] for row in r.rows]
        assert logged[0] <= logged[-1]

    def test_precombine_ablation(self):
        r = ablations.run_precombine("test", steps=8)
        for on, off in (r.rows[0:2], r.rows[2:4]):
            assert on[0] == off[0] and on[1] == "before log"
            assert on[2] == off[2] == off[3]  # same sends; off logs them all
            assert on[3] < off[3]  # fewer records reach the log
            assert on[4] <= off[4] and on[5] <= off[5] and on[6] < off[6]

    def test_run_all_wrapper(self):
        results = ablations.run("test", steps=4)
        assert len(results) == 6
        assert all(res.rows for res in results)
        # The sort-charge sensitivity table: a dearer sort is more
        # compute, so the storage share can only fall.
        sort_charge = results[-1]
        assert [row[0] for row in sort_charge.rows] == ["x0.5", "x1", "x2"]
        storage = [row[1] for row in sort_charge.rows]
        assert storage == sorted(storage, reverse=True) and storage[0] > storage[-1]
        assert all(row[2] > 0 and row[3] > 0 for row in sort_charge.rows)


class TestPreprocessing:
    def test_costs_positive_and_ordered(self):
        from repro.experiments import ext_preprocessing

        r = ext_preprocessing.run("test")
        by = {row[1]: row for row in r.rows}
        assert set(by) == set(ext_preprocessing.ENGINES)
        for row in r.rows:
            assert row[2] > 0 and row[3] > 0 and row[5] > 0
        # GraphChi's 16-byte shard records cost more writes than CSR builds.
        assert by["graphchi"][3] > by["multilogvc"][3]

    def test_gridgraph_needs_no_sort(self):
        from repro.experiments import ext_preprocessing
        from repro.graph.datasets import cf_like

        c = ext_preprocessing.preprocessing_cost("gridgraph", cf_like("test"))
        assert c["sort_passes"] == 0

    def test_unknown_engine(self):
        from repro.experiments import ext_preprocessing
        from repro.graph.datasets import cf_like

        with pytest.raises(ValueError):
            ext_preprocessing.preprocessing_cost("nope", cf_like("test"))


class TestComputeIOPlanKnobs:
    def test_help_lists_io_plan_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for token in ("--io-plan", "coalesce+readahead"):
            assert token in out
        for knob in KNOBS.values():
            assert knob.flag in out
            if knob.choices:
                assert "{" + ",".join(knob.choices) + "}" in out

    def test_bad_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "pagerank", "--io-plan", "sideways"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_readahead_requires_cache(self, capsys):
        rc = main(["compute", "pagerank", "--dataset", "chain",
                   "--io-plan", "coalesce+readahead"])
        assert rc == 2
        assert "requires a page cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, complaint",
        [
            (["--workers", "0"], "num_workers"),
            (["--cache-bytes", "100"], "cache_bytes"),
            (["--devices", "0"], "num_devices"),
            (["--checkpoint-every", "-1"], "checkpoint_every"),
            (["--max-supersteps", "-1"], "max_supersteps"),
        ],
    )
    def test_out_of_range_knob_exits_2_with_a_message(self, capsys, flags, complaint):
        """A ConfigError is a usage error: one stderr line, no traceback."""
        rc = main(["compute", "pagerank", "--dataset", "chain", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and complaint in err
        assert len(err.strip().splitlines()) == 1

    def test_coalesce_runs_without_cache(self, capsys):
        rc = main(["compute", "pagerank", "--dataset", "chain",
                   "--io-plan", "coalesce", "--max-supersteps", "4"])
        assert rc == 0

    def test_readahead_runs_with_cache(self, capsys):
        rc = main(["compute", "pagerank", "--dataset", "chain",
                   "--cache-policy", "clock",
                   "--io-plan", "coalesce+readahead",
                   "--max-supersteps", "4"])
        assert rc == 0


class TestStackFlags:
    """Each ``compute`` stack flag is derived from its ``config.KNOBS`` entry."""

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_flag_sets_its_config_field(self, name):
        knob, text = KNOBS[name], NON_DEFAULT_FLAG_VALUES[name]
        args = build_parser().parse_args(["compute", "pagerank", knob.flag, text])
        cfg = _stack_config(args, engines()[args.engine])
        value = text if knob.choices else int(text)
        assert value != knob.default
        assert getattr(cfg, name) == value

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_flag_rejected_by_an_in_memory_engine(self, capsys, name):
        assert engines()["oracle"].in_memory
        rc = main(["compute", "pagerank", "--engine", "oracle",
                   KNOBS[name].flag, NON_DEFAULT_FLAG_VALUES[name]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no simulated I/O" in err and KNOBS[name].flag in err
