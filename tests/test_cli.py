import io
import json
import os

import numpy as np
import pytest

from mbweibull import cli, fitting, studies
from mbweibull.cli import EXIT_CONVERGENCE, EXIT_INVALID, EXIT_OK, main
from mbweibull.mixture import DEFAULT_PARAMS, mbw_params
from mbweibull.sampler import SeededStream, sample_mbw
from mbweibull.studies import StudyConfig
from mbweibull.vannman import VANNMAN_DATA, vannman_data


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_row_count_and_determinism(self, tmp_path):
        out = tmp_path / "a.csv"
        argv = ["simulate", "--n", "5", "--seed", "42", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = _read(out)
        assert main(argv) == EXIT_OK
        assert _read(out) == first
        lines = first.decode().strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 6

    def test_bytes_equal_savetxt(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--n", "50", "--seed", "9", "--out", str(out)]) == EXIT_OK
        pts = sample_mbw(50, mbw_params(**DEFAULT_PARAMS), SeededStream(seed=9))
        buf = io.StringIO()
        np.savetxt(buf, pts, fmt="%.17g", delimiter=",", header="x,y", comments="")
        assert _read(out).decode() == buf.getvalue()

    def test_zero_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["simulate", "--n", "0", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert _read(out).decode() == "x,y\n"

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["simulate", "--n", "3", "--seed", "7", "--out", str(out)])
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["timestamp"] == "2023-11-14T22:13:20Z"

    def test_inclusion_probability(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["simulate", "--n", "2000", "--seed", "3", "--out", str(out)])
        data = np.genfromtxt(out, delimiter=",", names=True)
        inside = np.mean((data["x"] <= 0.1) & (data["y"] <= 0.1))
        # p + q F2(d,d) is essentially p for the default tiny rectangle
        assert inside == pytest.approx(0.3, abs=3 * np.sqrt(0.3 * 0.7 / 2000))

    def test_invalid_params(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["simulate", "--n", "5", "--p", "1.5", "--out", str(out)]) == EXIT_INVALID

    @pytest.mark.parametrize("flag", ["--beta1", "--d"])
    def test_infinite_param_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "e.csv"
        assert main(["simulate", "--n", "5", flag, "inf", "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestFit:
    def test_m1_on_vannman(self, tmp_path, capsys):
        out = tmp_path / "m1.json"
        code = main(["fit", "--data", "vannman", "--model", "m1", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "228.4698" in text
        payload = json.loads(_read(out))
        assert payload["aic"] == pytest.approx(228.4698, abs=1e-3)

    def test_m3_on_vannman(self, capsys):
        code = main(
            ["fit", "--data", "vannman", "--model", "m3", "--minpts", "4", "--eps", "1.6"]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "d" in text
        assert "1.400000" in text

    def test_missing_file(self, capsys):
        code = main(["fit", "--data", "/nonexistent/file.csv", "--model", "m1"])
        assert code != EXIT_OK
        assert "error" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        assert main(["fit", "--data", str(bad), "--model", "m1"]) == EXIT_INVALID

    def test_header_line_required(self, tmp_path, capsys):
        # read with its first row as column names, a headerless file would
        # fit n - 1 rows
        pts = np.random.default_rng(0).exponential(1.0, (12, 2))
        rows = "".join(f"{a:.17g},{b:.17g}\n" for a, b in pts)
        csv = tmp_path / "pts.csv"
        csv.write_text(rows)
        assert main(["fit", "--data", str(csv), "--model", "m1"]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "header line" in err and "x,y" in err
        csv.write_text("x,y\n" + rows)
        np.testing.assert_array_equal(cli._read_xy_csv(csv), pts)

    def test_csv_input(self, tmp_path):
        csv = tmp_path / "pts.csv"
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.exponential(2, 30), rng.exponential(1, 30)])
        csv.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in pts) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(csv), "--model", "m1", "--out", str(out)]) == EXIT_OK
        payload = json.loads(_read(out))
        assert payload["estimates"]["beta1"] == pytest.approx(pts[:, 0].mean())
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["input_digest"].startswith("sha256:")

    @pytest.mark.parametrize("text, message", [
        ("x\n1.5\n2.5\n", "could not parse x,y columns"),
        ("x,y\n1.5,2.5\n0.5,abc\n", "non-numeric values"),
    ], ids=["one-column", "non-numeric"])
    def test_malformed_csv_rejected(self, tmp_path, capsys, text, message):
        csv = tmp_path / "pts.csv"
        csv.write_text(text)
        assert main(["fit", "--data", str(csv), "--model", "m1"]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_unconverged_fit_warns_and_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fitting, "_MAX_EVALS", 3)
        out = tmp_path / "m3.json"
        argv = ["fit", "--data", "vannman", "--model", "m3", "--minpts", "4", "--eps", "1.6",
                "--out", str(out)]
        assert main(argv) == EXIT_CONVERGENCE == 3
        assert "warning: optimizer did not converge" in capsys.readouterr().out
        payload = json.loads(_read(out))
        assert payload["converged"] is False
        assert payload["n_evals"] >= 3
        assert payload["estimates"]["d"] == pytest.approx(1.4)

    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    def test_negative_lifetime_rejected(self, tmp_path, capsys, model):
        csv = tmp_path / "pts.csv"
        pts = np.random.default_rng(0).exponential(1.0, (30, 2))
        pts[4, 0] = -0.5
        csv.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in pts) + "\n")
        assert main(["fit", "--data", str(csv), "--model", model]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("model", ["m1", "m2"])
    @pytest.mark.parametrize("flags", [
        ["--copula", "gaussian"], ["--copula-a", "2"], ["--copula-b", "0.5"],
        ["--copula-a", "nan"], ["--eps", "0.5"], ["--minpts", "5"],
        ["--copula", "gaussian", "--eps", "0.5"],
    ], ids=["gaussian", "a-2", "b-0.5", "a-nan", "eps", "minpts", "gaussian-eps"])
    def test_m1_m2_refuse_the_flags_they_fix(self, tmp_path, monkeypatch, capsys, model, flags):
        # neither model has a copula setting or a stage 1: a flag away from
        # the GFGM(1, 1) copula or the stage-1 defaults exits 2 before any fit
        calls = []
        monkeypatch.setattr(cli, f"fit_{model}", lambda data: calls.append(data))
        out = tmp_path / "f.json"
        argv = ["fit", "--data", "vannman", "--model", model, *flags, "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert all(flag in err for flag in flags)
        assert calls == [] and not os.listdir(tmp_path)

    @pytest.mark.parametrize("model", ["m1", "m2"])
    def test_m1_m2_take_the_values_they_fix(self, tmp_path, capsys, model):
        # the values the models fix, given explicitly, write the same bytes
        # as the command without them
        runs = [[], ["--copula", "gfgm", "--copula-a", "1", "--copula-b", "1.0",
                     "--minpts", "4"]]
        written = []
        for i, flags in enumerate(runs):
            out = str(tmp_path / f"f{i}.json")
            assert main(["fit", "--data", "vannman", "--model", model, *flags,
                         "--out", out]) == EXIT_OK
            written.append((capsys.readouterr().out, _read(out),
                            _read(out + ".manifest.json")))
        assert written[0] == written[1]

    @pytest.mark.parametrize("flags", [
        ["--copula-a", "0.5"], ["--copula-b", "0.5"], ["--copula-a", "nan"],
        ["--copula-a", "inf"],
    ], ids=["a-0.5", "b-0.5", "a-nan", "a-inf"])
    def test_invalid_copula_exponent_runs_no_fit(self, monkeypatch, capsys, flags):
        calls = []
        monkeypatch.setattr(fitting, "loglik_mbw", lambda d, m: calls.append(m))
        assert main(["fit", "--data", "vannman", *flags]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []


class TestStudy:
    def _config(self, tmp_path, **over):
        cfg = {
            "true_params": {
                "alpha1": 4.0, "beta1": 1.5, "alpha2": 3.5, "beta2": 5.0,
                "rho": 0.6, "d": 0.1, "p": 0.3,
            },
            "sample_sizes": [100],
            "n_replicates": 4,
            "base_seed": 20260823,
        }
        cfg.update(over)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_single_size_report(self, tmp_path):
        cfg = self._config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "study_n100.csv").exists()
        assert (out_dir / "study_n100.json").exists()
        report = json.loads(_read(out_dir / "study_n100.json"))
        assert report["sample_size"] == 100
        assert set(report["rows"]) == {"alpha1", "beta1", "alpha2", "beta2", "rho", "d", "p"}

    def test_byte_deterministic_across_workers(self, tmp_path):
        cfg = self._config(tmp_path)
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["study", "--config", str(cfg), "--out-dir", str(d1), "--workers", "1"]) == EXIT_OK
        assert main(["study", "--config", str(cfg), "--out-dir", str(d2), "--workers", "2"]) == EXIT_OK
        for name in ("study_n100.csv", "study_n100.json", "study_n100.csv.manifest.json"):
            assert _read(d1 / name) == _read(d2 / name)

    def test_invalid_level(self, tmp_path):
        cfg = self._config(tmp_path, level=1.5)
        assert main(["study", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_INVALID

    def test_unknown_copula(self, tmp_path, capsys):
        cfg = self._config(tmp_path, copula="clayton")
        assert main(["study", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_INVALID
        assert "clayton" in capsys.readouterr().err

    def test_too_many_failed_replicates(self, tmp_path, capsys):
        # a radius this small leaves DBSCAN no origin cluster in any replicate
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(
            {"sample_sizes": [20], "n_replicates": 3, "eps_by_n": {"20": 1e-9}}
        ))
        code = main(["study", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        assert "error: 3/3 replicates failed at n=20" in capsys.readouterr().err

    def test_misspelt_true_param(self, tmp_path, capsys):
        cfg = self._config(tmp_path, true_params={"alpha_1": 2.0})
        assert main(["study", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_INVALID
        assert "alpha_1" in capsys.readouterr().err

    @staticmethod
    def _run_captured(monkeypatch, path, *flags):
        """Run ``mbw study`` with run_study replaced by a recorder; returns
        the exit code and the configs that reached run_study."""
        seen = []
        monkeypatch.setattr(cli, "run_study", lambda cfg: seen.append(cfg) or {})
        code = main(["study", "--config", str(path), "--out-dir", str(path.parent), *flags])
        return code, seen

    @pytest.mark.parametrize("key", ["n_replicate", "workers"])
    def test_unknown_key_runs_no_replicate(self, tmp_path, monkeypatch, capsys, key):
        cfg = self._config(tmp_path, **{key: 2})
        code, seen = self._run_captured(monkeypatch, cfg)
        assert (code, seen) == (EXIT_INVALID, [])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"sample_sizes": 100},
        {"sample_sizes": "300"},
        {"true_params": {"alpha1": "x"}},
    ], ids=["not-an-object", "scalar-sizes", "string-sizes", "string-param"])
    def test_malformed_config(self, tmp_path, monkeypatch, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, seen = self._run_captured(monkeypatch, path)
        assert (code, seen) == (EXIT_INVALID, [])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(cfg), "--out-dir", str(tmp_path), "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_decoded_config(self, tmp_path, monkeypatch, workers):
        # the criterion-7 config; every setting it leaves out takes the
        # StudyConfig default, and --workers is the only worker setting
        code, seen = self._run_captured(monkeypatch, self._config(tmp_path), "--workers", workers)
        assert code == EXIT_OK
        assert seen == [StudyConfig(
            true_params=mbw_params(**DEFAULT_PARAMS),
            sample_sizes=(100,),
            n_replicates=4,
            base_seed=20260823,
            workers=int(workers),
        )]

    @pytest.mark.parametrize("over, flags, word", [
        ({"sample_sizes": [5]}, (), "sample sizes"),
        ({"sample_sizes": [100, 100]}, (), "distinct"),
        ({"min_pts": 0}, (), "min_pts"),
        ({"eps_by_n": {"100": 0}}, (), "eps_by_n"),
        ({}, ("--workers", "-3"), "workers"),
        ({}, ("--workers", "0"), "workers"),
    ], ids=["size-5", "size-repeated", "min-pts-0", "eps-0", "workers-negative", "workers-0"])
    def test_invalid_setting_runs_no_replicate(self, tmp_path, monkeypatch, capsys, over,
                                               flags, word):
        code, seen = self._run_captured(monkeypatch, self._config(tmp_path, **over), *flags)
        assert (code, seen) == (EXIT_INVALID, [])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err

    @pytest.mark.parametrize("value", [1.9, "7", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("key", ["n_replicates", "base_seed", "min_pts", "sample_sizes"])
    def test_non_integer_runs_no_replicate(self, tmp_path, monkeypatch, capsys, key, value):
        fits = []
        monkeypatch.setattr(studies, "fit_mbw", lambda *a, **k: fits.append(a))
        cfg = self._config(tmp_path, **{key: [value] if key == "sample_sizes" else value})
        assert main(["study", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_INVALID
        assert fits == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("value", ["0.9", True], ids=["string", "bool"])
    @pytest.mark.parametrize("key", ["level", "copula_a", "copula_b", "true_params", "eps_by_n"])
    def test_non_number_runs_no_replicate(self, tmp_path, monkeypatch, capsys, key, value):
        fits = []
        monkeypatch.setattr(studies, "fit_mbw", lambda *a, **k: fits.append(a))
        nested = {"true_params": {"alpha1": value}, "eps_by_n": {"100": value}}
        cfg = self._config(tmp_path, **{key: nested.get(key, value)})
        assert main(["study", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_INVALID
        assert fits == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_empty_eps_by_n_presets_no_radius(self, tmp_path, monkeypatch):
        code, seen = self._run_captured(monkeypatch, self._config(tmp_path, eps_by_n={}))
        assert code == EXIT_OK
        assert seen[0].eps_by_n == {}


class TestVannman:
    def test_output(self, capsys):
        assert main(["vannman"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "22,1.40,0.09" in text
        assert "19,0.82,0.02" in text
        assert "deviance m3 vs m2" in text
        # AIC ordering m3 < m2 < m1
        import re

        aics = {}
        rows = re.findall(r"^(m\d)\s+(-?\d+\.\d+)\s+(\d+\.\d+)$", text, re.M)
        for model, _, a in rows:
            aics[model] = float(a)
        assert aics["m3"] < aics["m2"] < aics["m1"]

    def test_boundary_rho_prints_no_standard_error(self, capsys):
        # rho-hat = 1 in both M2 and M3: no SE, no p-value, and the flag
        assert main(["vannman"]) == EXIT_OK
        rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("rho ")]
        assert len(rows) == 2
        for row in rows:
            _, est, se, pv, flag = row.split()
            assert float(est) == pytest.approx(1.0)
            assert (se, pv, flag) == ("nan", "nan", "(boundary)")


    def test_data_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            VANNMAN_DATA[0] = (50, 50)
        copy = vannman_data()
        assert copy.flags.writeable
        assert np.array_equal(copy, VANNMAN_DATA)


class TestHazardGrid:
    def test_figure_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        argv = [
            "hazard-grid", "--alpha1", "0.5", "--beta1", "1", "--alpha2", "0.5",
            "--beta2", "1", "--rho", "0.5", "--d", "0.4", "--p", "0.3",
            "--x-min", "0.01", "--x-max", "0.8", "--y-min", "0.01", "--y-max", "0.8",
            "--step", "0.05", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert set(data.dtype.names) == {"x", "y", "f", "R", "h"}
        assert np.all(data["h"] > 0)
        first = _read(out)
        assert main(argv) == EXIT_OK
        assert _read(out) == first

    def test_plateau_visible(self, tmp_path):
        out = tmp_path / "plateau.csv"
        main(
            ["hazard-grid", "--alpha1", "2", "--alpha2", "2", "--d", "0.4", "--p", "0.3",
             "--x-min", "0.05", "--x-max", "0.75", "--y-min", "0.05", "--y-max", "0.75",
             "--step", "0.1", "--out", str(out)]
        )
        data = np.genfromtxt(out, delimiter=",", names=True)
        inside = (data["x"] <= 0.4) & (data["y"] <= 0.4)
        # the uniform plateau lifts the density by p/d^2 = 1.875
        assert data["f"][inside].min() > data["f"][~inside].max()

    def test_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(
            ["hazard-grid", "--x-min", "0.2", "--x-max", "0.3", "--y-min", "0.2",
             "--y-max", "0.3", "--step", "5.0", "--out", str(out)]
        ) == EXIT_OK
        assert len(_read(out).decode().strip().split("\n")) == 2

    @pytest.mark.parametrize("command", [
        ["hazard-grid", "--x-min", "0.2", "--x-max", "0.3", "--y-min", "0.2", "--y-max", "0.3"],
        ["fit", "--data", "vannman", "--model", "m3"],
    ])
    def test_manifest_records_copula_exponents(self, tmp_path, command):
        out = tmp_path / "out"
        argv = command + ["--copula-a", "2", "--copula-b", "3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        params = json.loads(_read(str(out) + ".manifest.json"))["parameters"]
        assert (params["copula_a"], params["copula_b"]) == (2.0, 3.0)

    def test_invalid_grid(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert main(
            ["hazard-grid", "--x-min", "1.0", "--x-max", "0.0", "--out", str(out)]
        ) == EXIT_INVALID


def _strict(path):
    # NaN, Infinity and -Infinity are not JSON; a strict parser rejects them
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


class TestStrictJson:
    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    def test_vannman_fit(self, tmp_path, model):
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", "vannman", "--model", model, "--out", str(out)]) == EXIT_OK
        fit = _strict(out)
        _strict(str(out) + ".manifest.json")
        if model != "m1":
            # rho-hat sits on its boundary: no SE, no p-value
            assert "rho" in fit["boundary_flags"]
            assert fit["std_errors"]["rho"] is None
            assert fit["p_values"]["rho"] is None

    def test_manifest_parameters_are_the_flags(self, tmp_path):
        out = str(tmp_path / "out")
        model = set(DEFAULT_PARAMS)
        runs = [
            (["simulate", "--n", "5"], {"n"} | model),
            (["fit", "--data", "vannman", "--model", "m1"],
             {"model", "minpts", "eps", "copula", "copula_a", "copula_b"}),
            (["hazard-grid", "--x-min", "0.2", "--x-max", "0.3", "--y-min", "0.2",
              "--y-max", "0.3"], {"x_min", "x_max", "y_min", "y_max", "step"} | model),
        ]
        for argv, keys in runs:
            assert main(argv + ["--out", out]) == EXIT_OK
            manifest = _strict(out + ".manifest.json")
            assert manifest["command"] == argv[0]
            assert set(manifest["parameters"]) == keys

    def test_study(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"sample_sizes": [100], "n_replicates": 2}))
        assert main(["study", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        report = _strict(tmp_path / "study_n100.json")
        assert report["n_replicates"] == 2
        manifest = _strict(tmp_path / "study_n100.csv.manifest.json")
        assert manifest["parameters"] == {"sample_size": 100, "n_replicates": 2}

    def test_non_finite_numbers_become_null(self, tmp_path):
        out = tmp_path / "x.json"
        cli._write_json(out, {"a": [1.0, float("nan")], "b": {"c": (float("inf"), -np.inf)}})
        assert _strict(out) == {"a": [1.0, None], "b": {"c": [None, None]}}
