import argparse
import csv
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import bootband
import bootband.cli as cli
import bootband.pipeline as pl
from bootband.cli import main
from conftest import gbm_prices, strip_volatile, write_price_csv


def fast_flags(out, extra=()):
    """Keep runs tiny: small splits, few replicates, one or two epochs."""
    return [
        "--output-dir", str(out),
        "--train-len", "60",
        "--lookback", "4",
        "--batch-size", "10",
        "--epochs", "1",
        "--hidden", "3",
        "--scale-window", "30",
        "--reps", "3",
        "--selector-reps", "5",
        "--lmax", "4",
        "--seed", "7",
        *extra,
    ]


@pytest.fixture
def csv90(tmp_path):
    return str(write_price_csv(tmp_path / "prices.csv", gbm_prices(90, seed=17)))


PIPELINE_STAGES = ("log-returns", "block-length-selection", "bootstrap", "train-predict",
                   "quantile-band")


def read_json(path):
    return json.loads(Path(path).read_text())


class TestResample:
    def test_happy_path(self, csv90, tmp_path):
        out = tmp_path / "out"
        code = main(["resample", "--input", csv90, "--method", "mbb", "--block-len", "3",
                     "--count", "4", "--seed", "5", "--output-dir", str(out)])
        assert code == 0
        with open(out / "pseudo_series.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "rep_0", "rep_1", "rep_2", "rep_3"]
        assert len(rows) == 91  # 90 prices -> 89 returns -> 90-point pseudo paths
        starts = read_json(out / "starts.json")
        assert len(starts["starts"]) == 4
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "resample"
        assert manifest["seed"] == 5
        assert manifest["input_sha256"]

    def test_price_space(self, csv90, tmp_path):
        out = tmp_path / "out"
        code = main(["resample", "--input", csv90, "--method", "nbb", "--block-len", "5",
                     "--space", "price", "--seed", "1", "--output-dir", str(out)])
        assert code == 0
        with open(out / "pseudo_series.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 91  # price space keeps the 90 source points
        values = {float(r[1]) for r in rows[1:]}
        assert values <= set(gbm_prices(90, seed=17))

    def test_missing_required_flag(self, csv90):
        assert main(["resample", "--input", csv90, "--method", "mbb"]) == 2

    def test_missing_input_file(self, tmp_path):
        code = main(["resample", "--input", str(tmp_path / "nope.csv"),
                     "--method", "mbb", "--block-len", "2", "--seed", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 3

    def test_bad_column(self, csv90, tmp_path):
        code = main(["resample", "--input", csv90, "--method", "mbb", "--block-len", "2",
                     "--column", "Nope", "--seed", "1", "--output-dir", str(tmp_path)])
        assert code == 4


class TestNonFinitePrice:
    @pytest.mark.parametrize("command,flags", [
        ("select-block", ["--method", "mbb", "--reps", "5", "--seed", "3"]),
        ("band", ["--method", "lbb", "--jobs", "1"]),
        ("compare", ["--jobs", "1"]),
    ])
    def test_infinite_price_is_a_data_error(self, tmp_path, capsys, command, flags):
        values = gbm_prices(300, seed=21)
        values[50] = np.inf
        path = write_price_csv(tmp_path / "prices.csv", values)
        out = tmp_path / "out"
        extra = flags if command == "select-block" else fast_flags(out, flags)
        code = main([command, "--input", str(path), "--output-dir", str(out), *extra])
        assert code == 4
        assert "prices.csv:52: non-finite 'Close' cell 'inf'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestBadNumericFlags:
    @pytest.mark.parametrize("command,flags,field", [
        ("band", ["--method", "lbb", "--learning-rate", "-1"], "learning_rate"),
        ("band", ["--method", "lbb", "--learning-rate", "nan"], "learning_rate"),
        ("band", ["--method", "lbb", "--l2", "nan"], "l2_coeff"),
        ("compare", ["--learning-rate", "0"], "learning_rate"),
        ("band", ["--method", "lbb", "--t", "nan"], "penalty exponent t"),
        ("select-block", ["--method", "mbb", "--t", "nan"], "penalty exponent t"),
        ("select-block", ["--method", "mbb", "--t", "inf"], "penalty exponent t"),
    ])
    def test_exit_4_before_any_artifact(self, csv90, tmp_path, capsys, command, flags, field):
        out = tmp_path / "out"
        extra = (["--output-dir", str(out), "--reps", "5", "--seed", "3", *flags]
                 if command == "select-block" else fast_flags(out, [*flags, "--jobs", "1"]))
        code = main([command, "--input", csv90, *extra])
        assert code == 4
        assert field in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestSelectBlock:
    def test_artifacts(self, csv90, tmp_path):
        out = tmp_path / "out"
        code = main(["select-block", "--input", csv90, "--method", "nbb", "--reps", "10",
                     "--lmax", "6", "--seed", "3", "--output-dir", str(out)])
        assert code == 0
        curve = (out / "selector_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "l,distance,penalty,objective"
        assert len(curve) == 7
        sel = read_json(out / "selection.json")
        assert 1 <= sel["l_opt"] <= 6
        # l_opt really is the curve argmin
        objs = [float(r.split(",")[3]) for r in curve[1:]]
        assert objs.index(min(objs)) + 1 == sel["l_opt"]


class TestTrain:
    def test_artifacts_and_metric_spaces(self, csv90, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--input", csv90, "--train-len", "60", "--lookback", "4",
                     "--epochs", "2", "--hidden", "3", "--scale-window", "30",
                     "--seed", "9", "--output-dir", str(out)])
        assert code == 0
        metrics = read_json(out / "metrics.json")
        for key in ("train_rmse_scaled", "train_rmse_price", "test_rmse_scaled", "test_rmse_price"):
            assert key in metrics and metrics[key] >= 0
        log = (out / "rmse_log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,train_rmse_scaled"
        assert len(log) == 3
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert (out / "model.json").exists()

    def test_model_reloadable(self, csv90, tmp_path):
        from bootband.lstm import load_model

        out = tmp_path / "out"
        main(["train", "--input", csv90, "--train-len", "60", "--epochs", "1",
              "--hidden", "3", "--seed", "9", "--output-dir", str(out)])
        model = load_model(out / "model.json")
        assert model.cfg.hidden_size == 3


class TestBand:
    def test_artifacts(self, csv90, tmp_path):
        out = tmp_path / "out"
        code = main(["band", "--input", csv90, "--method", "lbb",
                     *fast_flags(out, ["--dump-replicates"])])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["method"] == "lbb"
        assert report["reps"] == 3
        assert report["comparing_factor"] > 0
        assert 0 <= report["coverage"] <= 1
        band_rows = (out / "band.csv").read_text().strip().splitlines()
        assert band_rows[0] == "date,lower,median,upper,actual"
        assert len(band_rows) == 31
        with open(out / "replicates.csv") as fh:
            rep_rows = list(csv.reader(fh))
        assert len(rep_rows) == 4  # header + 3 replicates
        assert len(rep_rows[0]) == 31  # "replicate" + 30 dates
        timings = read_json(out / "manifest.json")["execution"]["timings_seconds"]
        assert set(timings) == {"pipeline", "write", *PIPELINE_STAGES}

    def test_factor_recomputable_from_band_file(self, csv90, tmp_path):
        out = tmp_path / "out"
        main(["band", "--input", csv90, "--method", "mbb", *fast_flags(out)])
        report = read_json(out / "report.json")
        total = 0.0
        with open(out / "band.csv") as fh:
            for row in csv.DictReader(fh):
                total += float(row["upper"]) - float(row["lower"])
        assert abs(total - report["comparing_factor"]) < 1e-9

    def test_deterministic_across_runs_and_jobs(self, csv90, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["band", "--input", csv90, "--method", "nbb", "--jobs", "1", *fast_flags(out1)])
        main(["band", "--input", csv90, "--method", "nbb", "--jobs", "1", *fast_flags(out2)])
        main(["band", "--input", csv90, "--method", "nbb", "--jobs", "2", *fast_flags(out3)])
        assert strip_volatile(out1) == strip_volatile(out2) == strip_volatile(out3)

    def test_divergence_exit_code(self, csv90, tmp_path):
        code = main(["band", "--input", csv90, "--method", "mbb",
                     *fast_flags(tmp_path / "o", ["--learning-rate", "1e200"])])
        assert code == 5

    def test_divergence_prints_each_cause_and_nothing_else(self, csv90, tmp_path):
        # in process, pytest records numpy's warnings; a new interpreter prints them
        with pytest.raises(subprocess.CalledProcessError) as err:
            fresh_python(["-m", "bootband", "band", "--input", csv90, "--method", "mbb",
                          *fast_flags(tmp_path / "o", ["--learning-rate", "1e200"])], tmp_path)
        assert err.value.returncode == 5
        assert err.value.stderr.splitlines() == [
            "error[train]: 3 replicate(s) failed (allowed: 0): "
            + "; ".join(f"replicate {k}: non-finite loss at epoch 0, batch 1" for k in range(3))
        ]

    def test_broken_worker_pool_exit_code(self, csv90, tmp_path, monkeypatch, capsys):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(pl, "ProcessPoolExecutor", BrokenPool)
        code = main(["band", "--input", csv90, "--method", "mbb", "--jobs", "2",
                     *fast_flags(tmp_path / "o")])
        assert code == 5
        assert "error[train]: a worker process died" in capsys.readouterr().err

    def test_default_jobs_are_the_usable_cpus(self, csv90, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out = tmp_path / "out"
        assert main(["band", "--input", csv90, "--method", "nbb", *fast_flags(out)]) == 0
        assert read_json(out / "manifest.json")["execution"]["jobs"] == 1


class TestCompare:
    def test_ranked_report_and_bands(self, csv90, tmp_path):
        out = tmp_path / "out"
        code = main(["compare", "--input", csv90, *fast_flags(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert {r["method"] for r in report["ranking"]} == {"nbb", "mbb", "lbb"}
        factors = [r["comparing_factor"] for r in report["ranking"]]
        assert factors == sorted(factors)
        assert report["best_method"] == report["ranking"][0]["method"]
        for m in ("nbb", "mbb", "lbb"):
            assert (out / f"band_{m}.csv").exists()
            assert (out / f"selector_curve_{m}.csv").exists()
        timings = read_json(out / "manifest.json")["execution"]["timings_seconds"]
        assert set(timings) == {"compare", "write"} | {
            f"{m}:{stage}" for m in ("nbb", "mbb", "lbb") for stage in PIPELINE_STAGES
        }


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_python(args, cwd, **blas):
    """Run a new interpreter on this source tree, with only the given BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    src = str(Path(bootband.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True)


class TestBlasThreadPin:
    # In this process numpy is already loaded, so only a new interpreter shows
    # what importing bootband does to the environment BLAS reads at start-up.
    SHOW = ("import json, os, bootband; "
            f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))")

    def test_import_pins_unset_variables(self, tmp_path):
        seen = json.loads(fresh_python(["-c", self.SHOW], tmp_path).stdout)
        assert seen == dict.fromkeys(BLAS_VARS, "1")

    def test_import_keeps_a_user_value(self, tmp_path):
        seen = json.loads(fresh_python(["-c", self.SHOW], tmp_path,
                                       OPENBLAS_NUM_THREADS="3").stdout)
        assert seen == {**dict.fromkeys(BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": "3"}

    def test_band_bytes_do_not_depend_on_blas_threads(self, csv90, tmp_path):
        # hidden 32 gives the reference-scale recurrent matmul
        bands, recorded = [], []
        for name, blas in (("pinned", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / name
            fresh_python(["-m", "bootband", "band", "--input", csv90, "--method", "mbb",
                          "--jobs", "2", *fast_flags(out, ["--hidden", "32"])],
                         tmp_path, **blas)
            bands.append((out / "band.csv").read_bytes())
            recorded.append(read_json(out / "manifest.json")["execution"]["blas_threads"])
        assert bands[0] == bands[1]
        assert recorded[0] == dict.fromkeys(BLAS_VARS, "1")
        assert recorded[1] == {**dict.fromkeys(BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": "2"}


class TestConfigPrecedence:
    def test_file_overrides_default_flag_overrides_file(self, csv90, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 2\nhidden = 3\n# comment\nscale-window = 30\n")
        out1 = tmp_path / "o1"
        main(["train", "--input", csv90, "--train-len", "60", "--seed", "4",
              "--config", str(cfg_file), "--output-dir", str(out1)])
        m1 = read_json(out1 / "manifest.json")
        assert m1["config"]["epochs"] == 2          # from file
        assert m1["config"]["scale_window"] == 30   # dash key normalized

        out2 = tmp_path / "o2"
        main(["train", "--input", csv90, "--train-len", "60", "--seed", "4",
              "--config", str(cfg_file), "--epochs", "1", "--output-dir", str(out2)])
        m2 = read_json(out2 / "manifest.json")
        assert m2["config"]["epochs"] == 1          # flag wins

    def test_file_supplies_required_values(self, csv90, tmp_path):
        # method and block length from the file give the same bytes as the flags
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method = nbb\nblock_len = 7\n")
        common = ["--input", csv90, "--count", "3", "--seed", "2"]
        out1, out2 = tmp_path / "flags", tmp_path / "file"
        assert main(["resample", *common, "--method", "nbb", "--block-len", "7",
                     "--output-dir", str(out1)]) == 0
        assert main(["resample", *common, "--config", str(cfg_file),
                     "--output-dir", str(out2)]) == 0
        assert strip_volatile(out1) == strip_volatile(out2)

    def test_file_value_outside_choices(self, csv90, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method = foo\nblock_len = 3\n")
        code = main(["resample", "--input", csv90, "--config", str(cfg_file),
                     "--seed", "1", "--output-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command, line", [
        (["resample", "--method", "nbb"], "block_len = abc"),
        (["band", "--method", "mbb"], "reps = 2.5"),
    ])
    def test_file_value_of_wrong_type(self, csv90, tmp_path, capsys, command, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / "o"
        code = main([*command, "--input", csv90, "--config", str(cfg_file),
                     "--output-dir", str(out)])
        assert code == 2
        key, value = (part.strip() for part in line.split("="))
        err = capsys.readouterr()
        assert key in err.err and repr(value) in err.err
        assert err.out == ""  # no random seed was even chosen
        assert not out.exists()

    def test_unknown_config_key(self, csv90, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_option = 5\n")
        code = main(["train", "--input", csv90, "--config", str(cfg_file),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2


class TestSeedHandling:
    def test_random_seed_printed_and_recorded(self, csv90, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["select-block", "--input", csv90, "--method", "mbb", "--reps", "5",
                     "--lmax", "3", "--output-dir", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "seed:" in printed
        seed = int(printed.split("seed:")[1].split()[0])
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == seed

    def test_manifest_reproduces_run(self, csv90, tmp_path):
        # re-invoking with the manifest's recorded config reproduces artifacts
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["band", "--input", csv90, "--method", "lbb", *fast_flags(out1)])
        cfg = read_json(out1 / "manifest.json")["config"]
        args = ["band", "--input", csv90, "--method", cfg["method"], "--output-dir", str(out2)]
        for key in ("train_len", "lookback", "batch_size", "epochs", "hidden", "scale_window",
                    "reps", "selector_reps", "lmax", "seed"):
            args += ["--" + key.replace("_", "-"), str(cfg[key])]
        main(args)
        a = {k: v for k, v in strip_volatile(out1).items() if k != "manifest.json"}
        b = {k: v for k, v in strip_volatile(out2).items() if k != "manifest.json"}
        assert a == b


class TestHelp:
    def test_each_subcommand_takes_its_table(self):
        tables = {
            "resample": cli._RESAMPLE_OPTS,
            "select-block": cli._SELECT_BLOCK_OPTS,
            "train": cli._TRAIN_CMD_OPTS,
            "band": cli._BAND_OPTS,
            "compare": cli._COMPARE_OPTS,
        }
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(tables)
        for name, table in tables.items():
            dests = {a.dest for a in sub.choices[name]._actions}
            assert dests == {"help", "input", "config"} | set(table), name
        # only the commands that train replicates take a worker count
        assert {n for n, t in tables.items() if "jobs" in t} == {"band", "compare"}

    def test_help_documents_defaults(self, capsys):
        assert main(["band", "--help"]) == 0
        text = capsys.readouterr().out
        for needle in ("default: 5", "default: 15", "default: 19", "default: 0.2",
                       "default: 1000", "default: 0.05", "default: 2.0"):
            assert needle in text
