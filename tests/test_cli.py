"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.__main__ import _parse_overrides, main


class TestOverrideParsing:
    def test_type_coercion(self):
        overrides = _parse_overrides(["a=1", "b=2.5", "c=true", "d=False", "e=text"])
        assert overrides == {"a": 1, "b": 2.5, "c": True, "d": False, "e": "text"}

    def test_malformed_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["novalue"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "abl-superseed" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_command_lists_commands(self, capsys):
        # An experiment id is not a command: it needs the 'run' word.
        assert main(["fig6"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'fig6'" in err
        assert "commands:" in err and "run" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "fig6", "bogus=1"], "fig6 takes no parameter bogus (accepted: "),
            (["run", "fig3", "seed=x"], "bad seed"),
            (["run", "fig10_cells", "cells=0", "scale=0.004"], "cells must be >= 1"),
            (["run", "fig10", "partitions=2"], "fig10 takes no parameter partitions"),
            # A cell that misses max_time fails the run the same way
            # whether the cells run inline or on worker processes.
            (["run", "fig10_cells", "scale=0.004", "max_time=200"],
             "cell 'swarm0' did not complete"),
            (["run", "fig10_cells", "partitions=2", "scale=0.004", "max_time=200"],
             "cell 'swarm0' did not complete"),
        ],
    )
    def test_bad_input_is_an_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--parallel", "-1", "must be >= 0"),
            ("--max-attempts", "0", "must be >= 1"),
            ("--replications", "0", "must be >= 1"),
            ("--timeout", "0", "must be > 0"),
            ("--timeout", "-1", "must be > 0"),
        ],
    )
    def test_sweep_rejects_bad_numbers_at_parse_time(self, option, value, message, capsys):
        argv = ["sweep", "fig6", f"{option}={value}", "rule_count=0", "pings_per_point=1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: {message}" in err
        assert "Traceback" not in err

    def test_run_with_overrides(self, capsys):
        assert main(["run", "fig3", "instances=10"]) == 0
        out = capsys.readouterr().out
        assert "10 instances" in out

    def test_run_fig7(self, capsys):
        assert main(["run", "fig7", "scale=0.02", "num_pnodes=2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "wall]" in out

    def test_run_tbl_connect(self, capsys):
        assert main(["run", "tblA", "cycles=50"]) == 0
        assert "libc" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["metrics"], ["trace", "quickstart"]])
    def test_nested_field_override_rejected(self, command, capsys, tmp_path):
        # ``profile`` is SwarmConfig's link profile, not a scalar: a
        # clean exit 2, not a traceback.
        assert main([*command, "profile=true", f"out={tmp_path / 'x.json'}"]) == 2
        assert "profile is not a scalar field" in capsys.readouterr().err


#: Small-swarm overrides so metrics CLI tests run in well under a second.
FAST = ["leechers=2", "file_size=262144", "num_pnodes=2"]


class TestMetricsCommand:
    def test_json_output_parses_and_covers_layers(self, capsys):
        assert main(["metrics", *FAST]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"manifest", "metrics", "spans"}
        assert doc["manifest"]["seed"] == 42
        for name in (
            "sim.kernel.events_processed",
            "net.ipfw.rules_scanned_total",
            "net.tcp.segments_sent",
            "bt.swarm.completions",
        ):
            assert name in doc["metrics"], name
        assert any(s["name"] == "bt.swarm.run" for s in doc["spans"])

    def test_deterministic_json_is_byte_identical(self, capsys):
        assert main(["metrics", *FAST, "deterministic=true"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", *FAST, "deterministic=true"]) == 0
        assert capsys.readouterr().out == first
        assert "wall_time_seconds" not in first

    def test_text_format(self, capsys):
        assert main(["metrics", *FAST, "format=text"]) == 0
        out = capsys.readouterr().out
        assert "sim.kernel.events_processed" in out
        assert "seed" in out

    def test_json_out_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(["metrics", *FAST, f"out={path}"]) == 0
        doc = json.loads(path.read_text())
        assert doc["metrics"]["bt.swarm.completions"]["value"] == 2

    def test_csv_out_file(self, tmp_path):
        path = tmp_path / "run.csv"
        assert main(["metrics", *FAST, f"out={path}", "format=csv"]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,kind,field,value"
        assert any(line.startswith("net.tcp.segments_sent,") for line in lines)

    def test_csv_without_out_rejected(self, capsys):
        assert main(["metrics", "format=csv"]) == 2
        assert "requires out=" in capsys.readouterr().err

    def test_unknown_format_rejected(self, capsys):
        assert main(["metrics", *FAST, "format=xml"]) == 2
        assert "unknown format" in capsys.readouterr().err

    def test_bad_override_rejected(self, capsys):
        assert main(["metrics", "bogus_param=1"]) == 2
        assert "bad override" in capsys.readouterr().err
