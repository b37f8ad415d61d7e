"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-dataset")
    code = main(["simulate", str(directory), "--seed", "3", "--scale", "small"])
    assert code == 0
    return directory


class TestSimulate:
    def test_creates_dataset(self, dataset_dir):
        assert (dataset_dir / "traces.txt").exists()
        assert (dataset_dir / "manifest.json").exists()
        assert (dataset_dir / "hostnames.txt").exists()

    def test_no_hostnames_flag(self, tmp_path):
        code = main(
            ["simulate", str(tmp_path / "d"), "--seed", "1", "--no-hostnames"]
        )
        assert code == 0
        assert not (tmp_path / "d" / "hostnames.txt").exists()

    def test_preset_names_have_factories(self):
        from repro.cli import _PRESETS
        from repro.sim.presets import SCENARIO_PRESETS

        assert set(_PRESETS) <= set(SCENARIO_PRESETS)


class TestRun:
    def test_writes_inferences(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "inferences.txt"
        code = main(["run", str(dataset_dir), "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert "AS" in text and "<->" in text
        captured = capsys.readouterr()
        assert "inferences" in captured.err

    def test_stdout_mode(self, dataset_dir, capsys):
        assert main(["run", str(dataset_dir)]) == 0
        captured = capsys.readouterr()
        assert "<->" in captured.out

    def test_f_flag_changes_output(self, dataset_dir, tmp_path):
        loose, strict = tmp_path / "loose.txt", tmp_path / "strict.txt"
        main(["run", str(dataset_dir), "--f", "0.0", "--output", str(loose)])
        main(["run", str(dataset_dir), "--f", "1.0", "--output", str(strict)])
        assert len(strict.read_text().splitlines()) <= len(
            loose.read_text().splitlines()
        )


class TestEvaluate:
    def test_scores_manifest_networks(self, dataset_dir, capsys):
        assert main(["evaluate", str(dataset_dir)]) == 0
        captured = capsys.readouterr()
        assert "Precision%" in captured.out
        assert captured.out.count("AS") >= 3

    def test_explicit_asn(self, dataset_dir, capsys):
        import json

        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        asn = manifest["verification_asns"][0]
        assert main(["evaluate", str(dataset_dir), "--asn", str(asn)]) == 0
        captured = capsys.readouterr()
        assert f"AS{asn}" in captured.out

    def test_without_ground_truth(self, tmp_path, capsys):
        (tmp_path / "traces.txt").write_text("m|9.1.0.9|9.0.0.1 9.1.0.1\n")
        (tmp_path / "cymru.txt").write_text("9.0.0.0/16|100\n")
        assert main(["evaluate", str(tmp_path)]) == 2

    def test_scores_what_the_object_pipeline_scores(self, tmp_path, capsys):
        """Scoring sees every address of a retained trace, special ones
        included, and no quoted-TTL-0 hop: a border link numbered from
        RFC 1918 space by the connected AS, seen only on its private
        side, is eligible and missing, and an internal interface seen
        only as a TTL-0 hop is not the target's.  Uncached, cold and
        warm, ``mapit evaluate`` prints exactly the object pipeline's
        rows."""
        import io

        from repro.cli import _print_rows
        from repro.core.config import MapItConfig
        from repro.core.mapit import run_mapit_graph
        from repro.eval.verify import build_verification, score_inferences
        from repro.graph.neighbors import graph_from_traces
        from repro.io.bundle import load_bundle
        from repro.net.ipv4 import parse_address

        dataset = tmp_path / "ds"
        dataset.mkdir()
        (dataset / "cymru.txt").write_text(
            "9.0.0.0/16|100\n9.1.0.0/16|200\n9.2.0.0/16|300\n"
        )
        (dataset / "traces.txt").write_text(
            "m1|9.2.0.99|9.0.0.1 9.0.0.5 10.0.0.1 9.1.0.1 9.1.0.5 9.2.0.1\n"
            "m1|9.2.0.98|9.0.0.1 9.0.0.5 9.0.0.7@0 9.1.0.2 9.2.0.2\n"
            "m2|9.2.0.97|9.0.0.9 9.0.0.5 9.1.0.1 9.1.0.6\n"
        )
        (dataset / "groundtruth.txt").write_text(
            "border|10.0.0.1|100|200|10.0.0.2|200\n"
            "border|10.0.0.2|200|100|10.0.0.1|200\n"
            "border|9.0.0.5|100|200|9.0.0.6|100\n"
            "internal|9.0.0.1|100\n"
            "internal|9.0.0.7|100\n"
        )
        objects = load_bundle(dataset)
        graph, report = graph_from_traces(objects.traces)
        assert parse_address("10.0.0.1") in report.retained_addresses
        assert parse_address("9.0.0.7") not in report.retained_addresses
        result = run_mapit_graph(
            graph,
            objects.ip2as,
            org=objects.as2org,
            rel=objects.relationships,
            config=MapItConfig(f=0.5, enable_stub_heuristic=True, remove_rule="majority"),
        )
        verification = build_verification(
            objects.ground_truth, 100, graph, report.retained_addresses, objects.ip2as.asn
        )
        private_link = (parse_address("10.0.0.1"), parse_address("10.0.0.2"))
        assert private_link in verification.eligible
        score = score_inferences(result.inferences, verification, objects.as2org, graph)
        assert score.fn >= 1
        expected = io.StringIO()
        _print_rows([{"network": "AS100", **score.row()}], stream=expected)
        evaluate = ["evaluate", str(dataset), "--asn", "100"]
        cache = ["--cache", str(tmp_path / "cache")]
        for extra in (["--no-cache"], cache, cache):
            capsys.readouterr()
            assert main(evaluate + extra) == 0
            assert capsys.readouterr().out == expected.getvalue()
        assert len(list((tmp_path / "cache").glob("*.mapitc"))) == 1


class TestExperiment:
    def test_stats(self, capsys):
        assert main(["experiment", "stats", "--scale", "small", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "discard fraction" in captured.out

    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "small", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "Stub Transit" in captured.out
        assert "Total" in captured.out

    def test_fig8(self, capsys):
        assert main(["experiment", "fig8", "--scale", "small", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        for method in ("MAP-IT", "Simple", "Convention", "ITDK-MIDAR", "ITDK-Kapar"):
            assert method in captured.out

    def test_fig7(self, capsys):
        assert main(["experiment", "fig7", "--scale", "small", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "stub heuristic" in captured.out


class TestExplain:
    def test_explains_interfaces(self, dataset_dir, capsys):
        import re

        assert main(["run", str(dataset_dir)]) == 0
        captured = capsys.readouterr()
        address = re.match(r"(\S+)_[fb] ", captured.out.splitlines()[0]).group(1)
        assert main(["explain", str(dataset_dir), address]) == 0
        captured = capsys.readouterr()
        assert f"interface {address}" in captured.out
        assert "neighbors" in captured.out
        assert "inference:" in captured.out

    def test_multiple_addresses(self, dataset_dir, capsys):
        assert main(["explain", str(dataset_dir), "1.0.0.1", "1.0.0.2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("interface ") == 2


class TestReport:
    def test_report(self, dataset_dir, capsys):
        assert main(["report", str(dataset_dir)]) == 0
        captured = capsys.readouterr()
        assert "MAP-IT run report" in captured.out
        assert "AS-level links" in captured.out


class TestJsonOutput:
    def test_run_json(self, dataset_dir, tmp_path):
        import json

        out = tmp_path / "result.json"
        assert main(["run", str(dataset_dir), "--json", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["converged"]
        assert data["inferences"]
        assert {"address", "direction", "kind"} <= set(data["inferences"][0])

    def test_json_roundtrips_through_result(self, dataset_dir, tmp_path):
        from repro.core.results import MapItResult

        out = tmp_path / "result.json"
        main(["run", str(dataset_dir), "--json", "--output", str(out)])
        result = MapItResult.from_json(out.read_text())
        assert result.inferences

    def test_interrupted_write_keeps_previous_output(
        self, dataset_dir, tmp_path, monkeypatch
    ):
        """A SIGINT while the result is encoded exits 130 and leaves the
        earlier ``--output`` file whole, with no temp file beside it."""
        from repro.core.results import MapItResult

        out = tmp_path / "result.json"
        argv = ["run", str(dataset_dir), "--json", "--output", str(out)]
        assert main(argv) == 0
        before = out.read_bytes()

        def interrupted(self, indent=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(MapItResult, "to_json", interrupted)
        assert main(argv) == 130
        assert out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp.*"))


class TestAspathExperiment:
    def test_aspath(self, capsys):
        assert main(["experiment", "aspath", "--scale", "small", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "corrected_accuracy" in captured.out


class TestServeFlags:
    """Serve's flags are checked where they are parsed: a usage error
    (exit 2) naming the flag, not a silent clamp, a spinning daemon or
    a traceback from ``bind()``."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--quiesce-every", "-3"),
            ("--checkpoint-every", "-2"),
            ("--queue-limit", "0"),
            ("--poll-interval", "0"),
            ("--poll-interval", "-1"),
            ("--poll-interval", "inf"),
            ("--http", "70000"),
            ("--http", "-1"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(tmp_path), "--once", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_checkpoint_cadence_needs_a_journal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MAPIT_JOURNAL", raising=False)
        assert main(["serve", str(tmp_path), "--once", "--checkpoint-every", "5"]) == 2
        assert "--checkpoint-every requires --journal" in capsys.readouterr().err

    def test_daemon_rejects_what_the_cli_rejects(self):
        from repro.serve.daemon import ServeDaemon

        for kwargs in (
            {"quiesce_every": -3},
            {"checkpoint_every": -2},
            {"queue_limit": 0},
            {"checkpoint_every": 5},
        ):
            with pytest.raises(ValueError):
                ServeDaemon(None, **kwargs)
