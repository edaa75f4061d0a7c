import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from sigfit import cli, ingest, pipeline, synth
from sigfit.errors import InvalidParamsError

FAST = ["--terms", "3", "--max-iterations", "60"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    assert cli.main(["synth", "--users", "2", "--out", str(root)]) == 0
    return root


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestFitCommand:
    def test_writes_report_with_gof(self, data_dir, tmp_path):
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--channel", "1",
             "--family", "sum-of-sines", "--terms", "11", "--algorithm", "lm",
             "--out", tmp_path]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert "r_squared" in payload["gof"]
        assert payload["algorithm"] == "levenberg-marquardt"
        assert payload["termination"] in ("converged", "stalled", "max-iterations")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert str(tmp_path / "fit.json") in manifest["outputs"]

    def test_a_stalled_fit_exits_0(self, data_dir, tmp_path):
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--channel", "2", "--terms", "3",
             "--out", tmp_path]
        )
        assert code == 0
        assert json.loads((tmp_path / "fit.json").read_text())["termination"] == "stalled"

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code = run_cli(["fit", "--file", tmp_path / "nope.TXT", "--out", tmp_path])
        assert code == 4
        assert "error" in capsys.readouterr().err

    def test_unparseable_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.TXT"
        bad.write_text("2\n1 2 3\n4 5 6\n")
        assert run_cli(["fit", "--file", bad, "--out", tmp_path]) == 2

    def test_gn_and_lm_agree_on_linear_family(self, data_dir, tmp_path):
        params = {}
        for alg in ("gn", "lm"):
            out = tmp_path / alg
            code = run_cli(
                ["fit", "--file", data_dir / "U1S3.TXT", "--channel", "3",
                 "--family", "polynomial", "--terms", "1", "--algorithm", alg,
                 "--out", out]
            )
            assert code == 0
            params[alg] = json.loads((out / "fit.json").read_text())["params"]["coefficients"]
        for a, b in zip(params["gn"], params["lm"]):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_trace_flag(self, data_dir, tmp_path):
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--family", "polynomial",
             "--terms", "2", "--channel", "3", "--trace", "--out", tmp_path]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert len(payload["trace"]) >= 1


class TestRankCommand:
    def test_reference_channel_winner(self, data_dir, tmp_path):
        code = run_cli(
            ["rank", "--file", data_dir / "U1S1.TXT", "--channel", "1", "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "ranking.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[0] == "sinusoidal"

    def test_single_candidate(self, data_dir, tmp_path):
        code = run_cli(
            ["rank", "--file", data_dir / "U1S2.TXT", "--candidates", "parabolic",
             "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "ranking.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_segment_size_stability(self, data_dir, tmp_path):
        winners = []
        for size in (10, 20):
            out = tmp_path / str(size)
            assert run_cli(
                ["rank", "--file", data_dir / "U1S1.TXT", "--segment-size", size,
                 "--out", out]
            ) == 0
            winners.append(
                (out / "ranking.csv").read_text().strip().splitlines()[1].split(",")[0]
            )
        assert winners[0] == winners[1]


class TestPreprocessCommand:
    def test_vector_csv_and_reports(self, data_dir, tmp_path):
        code = run_cli(["preprocess", "--root", data_dir, "--out", tmp_path, *FAST])
        assert code == 0
        lines = (tmp_path / "vectors.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 80
        assert len(lines[0].split(",")) == 3 + 7 * 9
        report = json.loads((tmp_path / "batch_report.json").read_text())
        assert report["n_vectors"] == 80
        assert (tmp_path / "dataset_manifest.json").is_file()
        assert (tmp_path / "vectors.json").is_file()

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        first = tmp_path / "first"
        code = run_cli(["preprocess", "--root", data_dir, "--out", first, *FAST])
        assert code == 0
        second = tmp_path / "second"
        assert run_cli(["rerun", first / "manifest.json", "--out", second]) == 0
        assert (second / "vectors.csv").read_bytes() == (first / "vectors.csv").read_bytes()

    def test_rerun_accepts_a_recorded_segment_size(self, tmp_path):
        # manifests written before preprocess dropped its unused
        # --segment-size still carry the key; they must replay unchanged
        data = tmp_path / "data"
        assert run_cli(["synth", "--users", "1", "--genuine", "2", "--forged", "1",
                        "--out", data]) == 0
        first = tmp_path / "first"
        code = run_cli(["preprocess", "--root", data, "--out", first, "--terms", "2",
                        "--max-iterations", "20", "--jobs", "1"])
        assert code == 0
        manifest_path = first / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["segment-size"] = 20
        manifest_path.write_text(json.dumps(manifest))
        second = tmp_path / "second"
        assert run_cli(["rerun", manifest_path, "--out", second]) == 0
        assert (second / "vectors.csv").read_bytes() == (first / "vectors.csv").read_bytes()

    def test_per_segment_mode_changes_header(self, data_dir, tmp_path):
        out = tmp_path / "seg"
        code = run_cli(
            ["preprocess", "--root", data_dir, "--out", out, "--per-segment-fit",
             "--segments", "4", "--max-iterations", "60"]
        )
        assert code == 0
        header = (out / "vectors.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 3 + 7 * 12


class TestEvalCommand:
    def test_eer_table_and_roc(self, data_dir, tmp_path):
        code = run_cli(
            ["eval", "--root", data_dir, "--out", tmp_path, "--seed", "7", *FAST]
        )
        assert code == 0
        eer_lines = (tmp_path / "eer.csv").read_text().strip().splitlines()
        assert eer_lines[0] == "config,eer,n_trials"
        assert {line.split(",")[0] for line in eer_lines[1:]} == {
            "fitted", "truncate", "zero-pad"
        }
        roc = (tmp_path / "roc_fitted.csv").read_text().strip().splitlines()
        fars = [float(line.split(",")[1]) for line in roc[1:]]
        assert fars == sorted(fars)

    def test_seeded_runs_identical(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                ["eval", "--root", data_dir, "--out", out, "--seed", "7", *FAST]
            ) == 0
            outs.append((out / "eer.csv").read_bytes())
        assert outs[0] == outs[1]


    def test_rerun_keeps_max_iterations(self, data_dir, tmp_path):
        first = tmp_path / "first"
        code = run_cli(
            ["eval", "--root", data_dir, "--out", first, "--seed", "7", "--terms", "3",
             "--max-iterations", "3", "--jobs", "1"]
        )
        assert code == 0
        second = tmp_path / "second"
        assert run_cli(["rerun", first / "manifest.json", "--out", second]) == 0
        name = "roc_fitted.csv"
        assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_rerun_keeps_config_file_only_keys(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"per-segment-fit": True, "segments": 4, "timestamp-degree": 2})
        )
        first = tmp_path / "first"
        code = run_cli(
            ["eval", "--root", data_dir, "--out", first, "--config", config,
             "--max-iterations", "3", "--jobs", "1"]
        )
        assert code == 0
        recorded = json.loads((first / "manifest.json").read_text())["config"]
        assert (recorded["per-segment-fit"], recorded["segments"],
                recorded["timestamp-degree"], recorded["max-iterations"]) == (True, 4, 2, 3)
        second = tmp_path / "second"
        assert run_cli(["rerun", first / "manifest.json", "--out", second]) == 0
        name = "roc_fitted.csv"
        assert (second / name).read_bytes() == (first / name).read_bytes()


class TestRerun:
    def test_fit_and_rank_replay(self, data_dir, tmp_path):
        one_channel = ["--file", data_dir / "U1S2.TXT", "--channel", "2"]
        for command, extra, output in (
            ("fit", [*one_channel, "--family", "polynomial", "--terms", "2", "--trace"],
             "fit.json"),
            ("rank", [*one_channel, "--candidates", "sinusoidal,parabolic",
                      "--segment-size", "30"], "ranking.csv"),
            ("synth", ["--users", "1", "--genuine", "2", "--forged", "1", "--seed", "3"],
             "U1S21.TXT"),
        ):
            first, second = tmp_path / command / "a", tmp_path / command / "b"
            code = run_cli([command, *extra, "--out", first])
            assert code == 0
            assert run_cli(["rerun", first / "manifest.json", "--out", second]) == 0
            assert (second / output).read_bytes() == (first / output).read_bytes()

    def test_manifest_records_the_environment_and_still_replays(self, data_dir, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        args = ["rank", "--file", data_dir / "U1S2.TXT", "--channel", "2"]
        assert run_cli([*args, "--out", first]) == 0
        environment = json.loads((first / "manifest.json").read_text())["environment"]
        assert set(environment) == {
            "python", "numpy", "backend", "blas_threads", "cpu_count", "start_method"
        }
        assert environment["python"] == platform.python_version()
        assert environment["backend"] == "numpy"
        assert run_cli(["rerun", first / "manifest.json", "--out", second]) == 0
        assert (second / "ranking.csv").read_bytes() == (first / "ranking.csv").read_bytes()

    def test_unknown_command_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "nope", "config": {}}))
        assert run_cli(["rerun", manifest]) == 2


class TestSettings:
    def test_preprocess_defaults_are_the_library_defaults(self):
        args = cli._build_parser().parse_args(["preprocess"])
        assert cli._pipeline_config(cli._settings(args)) == pipeline.PipelineConfig()

    @pytest.mark.parametrize("command, config", [
        ("fit", {"family": "nope"}),
        ("preprocess", {"abscissa": "nope"}),
        ("preprocess", {"per-segment-fit": "false"}),
        ("fit", []),  # not a JSON object
        ("fit", {"terms": 2.7}),
        ("fit", {"max-iterations": True}),
    ])
    def test_config_file_values_are_checked(self, data_dir, tmp_path, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if command == "fit":
            source = ["--file", data_dir / "U1S1.TXT"]
        else:
            source = ["--root", data_dir, "--jobs", "1"]
        out = tmp_path / "out"
        # no FAST flags: a flag would stand in for the config-file value under test
        assert run_cli([command, *source, "--config", path, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("preprocess", ["--max-iterations", "0"]),
        ("eval", ["--max-iterations", "0"]),
        ("preprocess", ["--timestamp-degree=-1"]),
        ("preprocess", ["--terms", "0"]),
        ("fit", ["--max-iterations", "0"]),
        ("fit", ["--terms", "0"]),
        ("fit", ["--family", "polynomial", "--terms=-1"]),
        ("fit", ["--channel", "0"]),
        ("rank", ["--channel", "8"]),
        ("rank", ["--segment-size", "1"]),
        ("eval", ["--enroll", "0"]),
        ("preprocess", ["--terms", "1", "--timestamp-degree", "3"]),
        ("eval", ["--per-segment-fit", "--timestamp-degree", "3"]),
    ])
    def test_out_of_range_values_exit_2_before_fitting(self, data_dir, tmp_path, command, flags):
        if command in ("fit", "rank"):
            source = ["--file", data_dir / "U1S1.TXT"]
        else:
            source = ["--root", data_dir, "--jobs", "1"]
        out = tmp_path / "out"
        assert run_cli([command, *source, *flags, "--out", out]) == 2
        assert not out.exists()

    def test_a_polynomial_of_degree_0_fits(self, data_dir, tmp_path):
        code = run_cli(["fit", "--file", data_dir / "U1S1.TXT", "--family", "polynomial",
                        "--terms", "0", "--out", tmp_path])
        assert code == 0
        assert len(json.loads((tmp_path / "fit.json").read_text())["params"]["coefficients"]) == 1

    def test_config_file_algorithm_is_named(self, data_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithm": "foo"}))
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--config", config, "--out", tmp_path]
        )
        assert code == 2
        assert "'foo'" in capsys.readouterr().err

    def test_config_file_trace_takes_effect(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trace": True}))
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--channel", "3", "--family",
             "polynomial", "--terms", "2", "--config", config, "--out", tmp_path]
        )
        assert code == 0
        assert len(json.loads((tmp_path / "fit.json").read_text())["trace"]) >= 1

    def test_config_file_root_takes_effect(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("SIGFIT_DATA_ROOT", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root": str(data_dir)}))
        code = run_cli(
            ["preprocess", "--config", config, "--out", tmp_path / "out", "--terms", "2",
             "--max-iterations", "20", "--jobs", "1"]
        )
        assert code == 0
        assert (tmp_path / "out" / "vectors.csv").is_file()

    @pytest.mark.parametrize("command, key", [("preprocess", "per-segment-fit"), ("fit", "trace")])
    def test_a_flag_turns_off_a_config_file_boolean(self, tmp_path, command, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: True}))
        parse = cli._build_parser().parse_args
        assert cli._settings(parse([command, "--config", str(config)]))[key] is True
        assert cli._settings(parse([command, "--config", str(config), f"--no-{key}"]))[key] is False

    def test_no_trace_flag_drops_a_config_file_trace(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trace": True}))
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--channel", "3", "--family",
             "polynomial", "--terms", "2", "--config", config, "--no-trace", "--out", tmp_path]
        )
        assert code == 0
        assert "trace" not in json.loads((tmp_path / "fit.json").read_text())
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["trace"] is False


class TestDatasetRootFallback:
    def test_env_var_supplies_root(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGFIT_DATA_ROOT", str(data_dir))
        code = run_cli(
            ["preprocess", "--out", tmp_path, "--terms", "2",
             "--max-iterations", "40", "--jobs", "1"]
        )
        assert code == 0
        assert (tmp_path / "vectors.csv").is_file()

    def test_no_root_anywhere_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SIGFIT_DATA_ROOT", raising=False)
        assert run_cli(["preprocess", "--out", tmp_path]) == 2


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["synth", "--users", "1", "--out", a]) == 0
        assert run_cli(["synth", "--users", "1", "--out", b]) == 0
        assert (a / "U1S1.TXT").read_bytes() == (b / "U1S1.TXT").read_bytes()
        assert len(list(a.glob("U*.TXT"))) == 40

    def test_a_smaller_split_keeps_its_labels(self, tmp_path):
        assert run_cli(["synth", "--users", "1", "--genuine", "3", "--forged", "2",
                        "--out", tmp_path]) == 0
        assert ingest.load_dataset(tmp_path).counts() == {"1": (3, 2)}

    def test_more_genuine_than_the_loader_labels_exits_2(self, tmp_path):
        out = tmp_path / "out"
        limit = ingest.GENUINE_MAX
        assert run_cli(["synth", "--users", "1", "--genuine", limit + 1, "--out", out]) == 2
        assert not list(out.glob("*.TXT"))

    @pytest.mark.parametrize(
        "users,genuine,forged",
        [(0, 20, 20), (1, 20, -5), (1, -1, 3), (1, 0, 0)],
        ids=["no-users", "negative-forged", "negative-genuine", "no-samples"],
    )
    def test_counts_it_cannot_honour_exit_2(self, tmp_path, users, genuine, forged):
        with pytest.raises(InvalidParamsError):
            synth.generate_samples(n_users=users, genuine=genuine, forged=forged)
        out = tmp_path / "out"
        args = ["--users", users, "--genuine", genuine, "--forged", forged, "--out", out]
        assert run_cli(["synth", *args]) == 2
        assert not list(out.glob("*.TXT"))


class TestEntryPoint:
    def test_module_invocation(self):
        # the checkout's src/ first, whether or not the package is installed
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "sigfit.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        assert "sigfit" in out.stdout

    def test_config_file_precedence(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "polynomial", "terms": 2, "channel": 3}))
        code = run_cli(
            ["fit", "--file", data_dir / "U1S1.TXT", "--config", config,
             "--terms", "1", "--out", tmp_path]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["family"] == "polynomial"  # from the config file
        assert len(payload["params"]["coefficients"]) == 2  # flag overrides terms
