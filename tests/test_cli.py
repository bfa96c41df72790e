import argparse
import concurrent.futures.process
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import bootband
import bootband.cli as cli
import bootband.pipeline as pl
from bootband import BootstrapMethod, PipelineConfig, SelectorConfig, TrainConfig
from bootband._rng import derive_seed
from bootband.cli import main
from bootband.errors import ValidationError
import make_gbm_csv
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


class TestBadLocality:
    @pytest.mark.parametrize("command,flags,value", [
        ("band", ["--method", "lbb"], "0"),
        ("band", ["--method", "lbb"], "2"),
        ("band", ["--method", "lbb"], "nan"),
        ("compare", [], "0"),
        ("select-block", ["--method", "lbb"], "0"),
    ])
    def test_exit_4_before_any_selection(self, csv90, tmp_path, monkeypatch, capsys,
                                         command, flags, value):
        monkeypatch.setattr(pl, "select_block_length", None)
        out = tmp_path / "out"
        flags = [*flags, "--locality", value]
        extra = (["--output-dir", str(out), "--reps", "5", "--seed", "3", *flags]
                 if command == "select-block" else fast_flags(out, [*flags, "--jobs", "1"]))
        code = main([command, "--input", csv90, *extra])
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"error[data]: locality must lie in (0, 1], got {float(value)}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", ["0", "2", "nan"])
    def test_resample_names_the_value(self, csv90, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = main(["resample", "--input", csv90, "--method", "lbb", "--block-len", "4",
                     "--locality", value, "--output-dir", str(out), "--seed", "3"])
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"error[data]: locality must lie in (0, 1], got {float(value)}\n"
        assert not (out / "pseudo_series.csv").exists()

    def test_every_help_states_the_range(self, capsys):
        for command in ("resample", "select-block", "band", "compare"):
            assert main([command, "--help"]) == 0
            text = " ".join(capsys.readouterr().out.split())
            assert "--locality LOCALITY LBB locality fraction B in (0, 1] (default: 0.1)" in text

    @pytest.mark.parametrize("method", ["nbb", "mbb"])
    def test_other_methods_ignore_it(self, csv90, tmp_path, method):
        out = tmp_path / "out"
        flags = ["--method", method, "--locality", "0", "--jobs", "1"]
        assert main(["band", "--input", csv90, *fast_flags(out, flags)]) == 0
        assert (out / "band.csv").exists()

    @pytest.mark.parametrize("command,flags,value", [
        ("resample", ["--method", "nbb", "--block-len", "4"], "nan"),
        ("select-block", ["--method", "nbb", "--reps", "5"], "nan"),
        ("band", ["--method", "mbb", "--jobs", "1"], "inf"),
    ])
    def test_non_finite_is_rejected_by_every_method(self, csv90, tmp_path, capsys,
                                                    command, flags, value):
        # a manifest would record it, and strict JSON has no NaN or Infinity
        out = tmp_path / "out"
        flags = [*flags, "--locality", value]
        extra = (fast_flags(out, flags) if command == "band"
                 else ["--output-dir", str(out), "--seed", "3", *flags])
        code = main([command, "--input", csv90, *extra])
        assert code == 4
        assert capsys.readouterr().err == f"error[data]: locality must be finite, got {float(value)}\n"
        assert not (out / "manifest.json").exists()


class TestFailedRunLeavesNoDirectory:
    def test_csv_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"Date,Close\n2020-01-01,100.0\n2020-01-02,101.5 caf\xe9\n")
        out = tmp_path / "out"
        code = main(["select-block", "--input", str(path), "--method", "nbb", "--seed", "1",
                     "--output-dir", str(out)])
        assert code == 4
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_nested_directories_it_made(self, tmp_path, capsys):
        path = write_price_csv(tmp_path / "prices.csv", gbm_prices(300, seed=21))
        out = tmp_path / "a" / "b"
        code = main(["band", "--input", str(path), "--method", "nbb", "--train-len", "5000",
                     "--seed", "1", "--output-dir", str(out)])
        assert code == 4
        assert "leaves no test timestep" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_compare_with_one_replicate(self, csv90, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["compare", "--input", csv90, *fast_flags(out, ["--reps", "1", "--jobs", "1"])])
        assert code == 4
        assert capsys.readouterr().err == "error[data]: reps must be >= 2\n"
        assert not out.exists()

    def test_a_directory_that_existed_is_kept(self, csv90, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["compare", "--input", csv90, *fast_flags(out, ["--reps", "1", "--jobs", "1"])])
        assert code == 4
        assert out.is_dir() and not any(out.iterdir())


class TestSizeChecks:
    @pytest.mark.parametrize("command,flag,message", [
        ("band", "--epochs", "epochs must be >= 1, got 0"),
        ("band", "--hidden", "hidden_size must be >= 1, got 0"),
        ("band", "--batch-size", "batch_size must be >= 1, got 0"),
        ("band", "--lookback", "lookback must be >= 1, got 0"),
        ("band", "--selector-reps", "selector reps must be >= 1, got 0"),
        ("compare", "--selector-reps", "selector reps must be >= 1, got 0"),
        ("select-block", "--reps", "selector reps must be >= 1, got 0"),
    ])
    def test_zero_names_the_field_and_value(self, csv90, tmp_path, capsys, command, flag, message):
        out = tmp_path / "out"
        if command == "select-block":
            extra = ["--method", "mbb", "--output-dir", str(out), "--seed", "3", flag, "0"]
        else:
            method = ["--method", "mbb"] if command == "band" else []
            extra = fast_flags(out, [*method, "--jobs", "1", flag, "0"])
        code = main([command, "--input", csv90, *extra])
        assert code == 4
        assert capsys.readouterr().err == f"error[data]: {message}\n"
        assert not out.exists() or not any(out.iterdir())


class TestBlockLengthBounds:
    @pytest.mark.parametrize("command,flags,message", [
        ("band", ["--method", "nbb", "--lmax", "500"], "l_max 500 exceeds series length 59"),
        ("band", ["--method", "nbb", "--lmin", "400"], "l_min 400 exceeds series length 59"),
        ("compare", ["--lmax", "500"], "l_max 500 exceeds series length 59"),
        ("compare", ["--lmin", "400"], "l_min 400 exceeds series length 59"),
        ("select-block", ["--method", "nbb", "--lmax", "500"], "l_max 500 exceeds series length 59"),
        ("select-block", ["--method", "nbb", "--lmin", "400"], "l_min 400 exceeds series length 59"),
    ])
    def test_exit_4_before_any_selection(self, csv90, tmp_path, monkeypatch, capsys,
                                         command, flags, message):
        # band and compare check the bounds against the training returns before
        # they select; select-block checks them as its selection starts
        monkeypatch.setattr(pl, "select_block_length", None)
        out = tmp_path / "out"
        jobs = [] if command == "select-block" else ["--jobs", "1"]
        code = main([command, "--input", csv90, "--output-dir", str(out), "--train-len", "60",
                     "--seed", "3", *jobs, *flags])
        assert code == 4
        assert capsys.readouterr().err == f"error[data]: {message}\n"
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
        # plain float reprs, which numpy scalars would not be
        trace = [float(line.split(",")[1]) for line in log[1:]]
        assert metrics["final_epoch_rmse_scaled"] == trace[-1]
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

    def test_divergence_prints_its_cause_and_writes_no_artifact(self, csv90, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(subprocess.CalledProcessError) as err:
            fresh_python(["-m", "bootband", "train", "--input", csv90, "--train-len", "60",
                          "--lookback", "4", "--epochs", "2", "--hidden", "3",
                          "--scale-window", "30", "--seed", "9", "--learning-rate", "1e200",
                          "--output-dir", str(out)], tmp_path)
        assert err.value.returncode == 5
        lines = err.value.stderr.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"error\[train\]: non-finite loss at epoch \d+, batch \d+", lines[0])
        assert not (out / "model.json").exists()
        assert not (out / "manifest.json").exists()

    TINY = ["--train-len", "70", "--scale-window", "30", "--lookback", "4", "--hidden", "3",
            "--epochs", "1", "--seed", "9"]

    def test_out_of_memory_fails_as_a_replicate_does(self, csv90, tmp_path, monkeypatch, capsys):
        def short_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pl, "fit", short_of_memory)
        out = tmp_path / "out"
        assert main(["train", "--input", csv90, *self.TINY, "--output-dir", str(out)]) == 5
        assert capsys.readouterr().err.splitlines() == ["error[train]: out of memory"]
        assert not (out / "model.json").exists()
        assert not (out / "manifest.json").exists()

    def test_non_finite_test_prediction_fails(self, csv90, tmp_path, monkeypatch, capsys):
        real_predict = pl.predict_series

        def overflowing(model, context, positions):
            preds = real_predict(model, context, positions)
            preds[0, 5] = np.inf
            return preds

        monkeypatch.setattr(pl, "predict_series", overflowing)
        out = tmp_path / "out"
        assert main(["train", "--input", csv90, *self.TINY, "--output-dir", str(out)]) == 5
        assert capsys.readouterr().err.splitlines() == ["error[train]: non-finite test prediction"]
        assert not (out / "model.json").exists()
        assert not (out / "manifest.json").exists()

    def test_fit_reads_no_price_after_the_training_split(self, tmp_path):
        # 70 is no multiple of 30: the segment 60-89 spans the split
        prices = gbm_prices(90, seed=17)
        later = prices.copy()
        later[-1] *= 1.5
        outs = []
        for name, values in (("base", prices), ("later", later)):
            path = write_price_csv(tmp_path / f"{name}.csv", values)
            outs.append(tmp_path / name)
            assert main(["train", "--input", str(path), *self.TINY, "--output-dir", str(outs[-1])]) == 0
        for artifact in ("model.json", "rmse_log.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_train_is_one_row_of_a_replicate_group(self, csv90, tmp_path):
        from bootband.lstm import load_model
        from bootband.timeseries import load_csv, window_minmax_scale

        out = tmp_path / "out"
        assert main(["train", "--input", csv90, *self.TINY, "--output-dir", str(out)]) == 0
        prices = load_csv(csv90, "Close").values
        cfg = TrainConfig(lookback=4, hidden_size=3, epochs=1, seed=9)
        paths = np.stack([gbm_prices(70, seed=1), prices[:70], gbm_prices(70, seed=2)])
        model, _, _, preds, causes = pl.fit_predict(
            paths, cfg, [derive_seed(9, 0), 9, derive_seed(9, 1)],
            window_minmax_scale(prices, 30), np.arange(70, 90))
        assert causes == [None] * 3
        assert np.array_equal(model.theta[1], load_model(out / "model.json").theta)
        with open(out / "predictions.csv") as fh:
            predicted = [float(row["predicted"]) for row in csv.DictReader(fh)]
        assert np.array_equal(preds[1], predicted)


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
                # the first group returns, then the pool breaks
                yield fn(next(iter(tasks)))
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", BrokenPool)
        # 3 replicates on 2 workers: groups (0, 1), (2)
        code = main(["band", "--input", csv90, "--method", "mbb", "--jobs", "2",
                     *fast_flags(tmp_path / "o")])
        assert code == 5
        assert capsys.readouterr().err.splitlines() == [
            "error[train]: a worker process died: first group without a result: 2"
        ]
        # 3 x 3 rows on 2 workers: groups (nbb 0-2, mbb 0-1), (mbb 2, lbb 0-2)
        code = main(["compare", "--input", csv90, "--jobs", "2", *fast_flags(tmp_path / "c")])
        assert code == 5
        assert capsys.readouterr().err.splitlines() == [
            "error[train]: a worker process died: first group without a result: mbb 2; lbb 0, 1, 2"
        ]

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
        # the three methods share one train-predict stage, recorded once
        assert set(timings) == {"compare", "write", "train-predict"} | {
            f"{m}:{stage}" for m in ("nbb", "mbb", "lbb") for stage in PIPELINE_STAGES
            if stage != "train-predict"
        }

    def test_divergence_names_the_first_failing_method(self, csv90, tmp_path, capsys):
        code = main(["compare", "--input", csv90,
                     *fast_flags(tmp_path / "o", ["--learning-rate", "1e200"])])
        assert code == 5
        assert capsys.readouterr().err.splitlines() == [
            "error[train]: nbb: 3 replicate(s) failed (allowed: 0): "
            + "; ".join(f"replicate {k}: non-finite loss at epoch 0, batch 1" for k in range(3))
        ]


class TestOutOfMemory:
    @pytest.mark.parametrize("command, prefix", [
        (["band", "--method", "mbb"], ""),
        (["compare"], "nbb: "),
    ])
    def test_names_every_replicate(self, csv90, tmp_path, monkeypatch, capsys, command, prefix):
        def short_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pl, "fit", short_of_memory)
        code = main([*command, "--input", csv90, "--jobs", "1", *fast_flags(tmp_path / "o")])
        assert code == 5
        assert capsys.readouterr().err.splitlines() == [
            f"error[train]: {prefix}3 replicate(s) failed (allowed: 0): "
            + "; ".join(f"replicate {k}: out of memory" for k in range(3))
        ]

    ALLOCATION = "Unable to allocate 118. GiB for an array with shape (100000000, 316) and data type uint32"

    @pytest.mark.parametrize("command, message, line", [
        ("select-block", ALLOCATION, ALLOCATION),
        ("band", ALLOCATION, ALLOCATION),
        ("band", "", "out of memory"),
    ], ids=["select-block", "band", "band-no-message"])
    def test_outside_a_group_prints_one_line(self, csv90, tmp_path, monkeypatch, capsys,
                                             command, message, line):
        # raised, never allocated: a host that overcommits memory could grant the real request
        def unable_to_allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "select_block_length", unable_to_allocate)
        monkeypatch.setattr(pl, "select_block_length", unable_to_allocate)
        out = tmp_path / "out"
        flags = (["--output-dir", str(out), "--reps", "5", "--seed", "3"]
                 if command == "select-block" else fast_flags(out, ["--jobs", "1"]))
        assert main([command, "--input", csv90, "--method", "mbb", *flags]) == 5
        assert capsys.readouterr().err.splitlines() == [f"error[memory]: {line}"]
        assert not (out / "manifest.json").exists()


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


POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


class TestPoolStackLoadsOnlyForWorkers:
    # pytest's own process may already hold multiprocessing, so only a new
    # interpreter shows what a run loads.  argv[1] is a JSON list of command lines.
    SHOW = ("import json, sys; from bootband.cli import main; "
            "codes = [main(args) for args in json.loads(sys.argv[1])]; "
            f"print(json.dumps([codes, [m in sys.modules for m in {POOL_MODULES!r}]]))")

    def run_fresh(self, commands, tmp_path):
        out = fresh_python(["-c", self.SHOW, json.dumps(commands)], tmp_path).stdout
        return json.loads(out.splitlines()[-1])

    def test_in_process_runs_never_load_it(self, csv90, tmp_path):
        commands = [
            ["select-block", "--input", csv90, "--method", "nbb", "--reps", "5", "--lmax", "4",
             "--seed", "3", "--output-dir", str(tmp_path / "s")],
            ["train", "--input", csv90, "--train-len", "60", "--lookback", "4", "--epochs", "1",
             "--hidden", "3", "--scale-window", "30", "--seed", "9",
             "--output-dir", str(tmp_path / "t")],
            ["resample", "--input", csv90, "--method", "mbb", "--block-len", "3", "--count", "4",
             "--seed", "5", "--output-dir", str(tmp_path / "r")],
            ["band", "--input", csv90, "--method", "lbb", *fast_flags(tmp_path / "b", ["--jobs", "1"])],
            ["compare", "--input", csv90, *fast_flags(tmp_path / "c", ["--jobs", "1"])],
        ]
        assert self.run_fresh(commands, tmp_path) == [[0] * 5, [False, False]]

    def test_a_two_worker_pool_loads_it(self, csv90, tmp_path):
        # two replicates on two workers: two groups, one per worker
        command = ["band", "--input", csv90, "--method", "mbb",
                   *fast_flags(tmp_path / "b", ["--jobs", "2", "--reps", "2"])]
        assert self.run_fresh([command], tmp_path) == [[0], [True, True]]
        assert read_json(tmp_path / "b" / "manifest.json")["execution"]["jobs"] == 2

    def test_in_process_group_error_reaches_main(self, csv90, tmp_path, monkeypatch, capsys):
        def refuse(args):
            raise ValidationError("group refused")

        monkeypatch.setattr(pl, "_group_task", refuse)
        code = main(["band", "--input", csv90, "--method", "nbb",
                     *fast_flags(tmp_path / "o", ["--jobs", "1"])])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == ["error[data]: group refused"]


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

    @pytest.mark.parametrize("command", [
        ["resample", "--method", "nbb", "--block-len", "4"],
        ["select-block", "--method", "mbb"],
        ["train"],
        ["band", "--method", "nbb"],
        ["compare"],
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_a_usage_error(self, csv90, tmp_path, capsys, command, source):
        out = tmp_path / "out"
        if source == "flag":
            seed = ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n")
            seed = ["--config", str(tmp_path / "run.cfg")]
        code = main([*command, "--input", csv90, "--output-dir", str(out), *seed])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"
        assert not out.exists()

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
        # every default the help states is the library's own
        train, selector = TrainConfig(), SelectorConfig()
        training = {
            "lookback": train.lookback, "batch-size": train.batch_size, "epochs": train.epochs,
            "dropout": train.dropout_rate, "l2": train.l2_coeff, "hidden": train.hidden_size,
            "learning-rate": train.learning_rate, "scale-window": PipelineConfig.scale_window,
        }
        selection = {"t": selector.t, "lmin": selector.l_min, "locality": selector.locality}
        pipeline = {
            **training, **selection, "reps": PipelineConfig.reps, "alpha": PipelineConfig.alpha,
            "selector-reps": selector.reps, "allow-failures": PipelineConfig.allow_failures,
        }
        expected = {
            "train": training,
            "select-block": {**selection, "reps": selector.reps},
            "band": pipeline,
            "compare": pipeline,
        }
        for command, defaults in expected.items():
            assert main([command, "--help"]) == 0
            # one entry per option, its help text unwrapped
            text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
            entries = {entry.split()[0]: entry for entry in re.split(r" (?=--[a-z])", text)}
            for flag, value in defaults.items():
                assert entries["--" + flag].endswith(f"(default: {value})"), (command, flag)


COMMAND_TABLES = {
    "resample": cli._RESAMPLE_OPTS,
    "select-block": cli._SELECT_BLOCK_OPTS,
    "train": cli._TRAIN_CMD_OPTS,
    "band": cli._BAND_OPTS,
    "compare": cli._COMPARE_OPTS,
}


class TestManifestConfig:
    @pytest.mark.parametrize("command", [
        ["resample", "--method", "nbb", "--block-len", "4"],
        ["resample", "--method", "lbb", "--block-len", "4", "--space", "price"],
        ["select-block", "--method", "mbb", "--reps", "5", "--lmax", "3", "--seed", "7"],
        ["train", "--train-len", "60", "--epochs", "1", "--hidden", "3", "--scale-window", "30",
         "--seed", "7"],
        ["band", "--method", "lbb", "--jobs", "1"],
        ["compare", "--jobs", "1"],
    ], ids=["resample-nbb", "resample-lbb-price", "select-block", "train", "band", "compare"])
    def test_records_every_option_but_output_dir_and_jobs(self, csv90, tmp_path, command):
        # the resolved options, not the ones a command happens to read
        out = tmp_path / "out"
        flags = fast_flags(out) if command[0] in ("band", "compare") else ["--output-dir", str(out)]
        assert main([*command, "--input", csv90, *flags]) == 0
        config = read_json(out / "manifest.json")["config"]
        assert set(config) == set(COMMAND_TABLES[command[0]]) - {"output_dir", "jobs"}


class Captured(Exception):
    pass


def captured_configs(monkeypatch, argv):
    """Run the CLI up to the library call that takes the built config; return it by kind."""
    def capture(_, cfg, *args, **kwargs):
        raise Captured(cfg)

    for name in ("run", "compare_methods", "fit_predict", "select_block_length"):
        monkeypatch.setattr(cli, name, capture)
    with pytest.raises(Captured) as caught:
        main(argv)
    cfg = caught.value.args[0]
    if isinstance(cfg, PipelineConfig):
        return {"pipeline": cfg, "selector": cfg.selector, "train": cfg.train}
    return {"train" if isinstance(cfg, TrainConfig) else "selector": cfg}


class TestOptionsReachTheirConfig:
    # option -> (config, field, a value other than the option's default)
    FIELDS = {
        "method": ("selector", "method", "nbb"),
        "t": ("selector", "t", 1.5),
        "lmin": ("selector", "l_min", 2),
        "lmax": ("selector", "l_max", 7),
        "locality": ("selector", "locality", 0.3),
        "selector_reps": ("selector", "reps", 6),
        "lookback": ("train", "lookback", 4),
        "batch_size": ("train", "batch_size", 9),
        "epochs": ("train", "epochs", 2),
        "dropout": ("train", "dropout_rate", 0.1),
        "l2": ("train", "l2_coeff", 0.002),
        "hidden": ("train", "hidden_size", 5),
        "learning_rate": ("train", "learning_rate", 0.003),
        "train_len": ("pipeline", "train_len", 61),
        "reps": ("pipeline", "reps", 7),
        "alpha": ("pipeline", "alpha", 0.1),
        "scale_window": ("pipeline", "scale_window", 31),
        "allow_failures": ("pipeline", "allow_failures", 1),
    }
    # the configs each command builds, options that set another field there,
    # and the flags that let the command reach its library call on 90 prices
    BUILDS = {
        "band": ({"pipeline", "selector", "train"}, {}, []),
        "compare": ({"pipeline", "selector", "train"}, {}, []),
        "train": ({"train"}, {}, ["--train-len", "61"]),
        "select-block": ({"selector"}, {"reps": ("selector", "reps", 7)}, []),
    }

    @pytest.mark.parametrize("command, source", [
        ("band", "flag"), ("band", "config"), ("compare", "flag"), ("train", "flag"),
        ("select-block", "flag"),
    ])
    def test_each_value_arrives_in_its_field(self, csv90, tmp_path, monkeypatch, command, source):
        table = COMMAND_TABLES[command]
        kinds, overrides, extra = self.BUILDS[command]
        fields = {**self.FIELDS, **overrides}
        # every option that names a config field has a test value
        assert {name for name, opt in table.items() if opt.cls is not None} <= set(fields)
        given = {name: fields[name] for name in table if name in fields and fields[name][0] in kinds}
        for name, (_, _, value) in given.items():
            assert value != table[name].default, name
        argv = [command, "--input", csv90, "--seed", "7", "--output-dir", str(tmp_path / "o"), *extra]
        if source == "flag":
            for name, (_, _, value) in given.items():
                argv += ["--" + name.replace("_", "-"), str(value)]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("".join(f"{name} = {value}\n" for name, (_, _, value) in given.items()))
            argv += ["--config", str(cfg_file)]
        configs = captured_configs(monkeypatch, argv)
        assert set(configs) == kinds
        for name, (kind, field, value) in given.items():
            expected = BootstrapMethod(value) if field == "method" else value
            assert getattr(configs[kind], field) == expected, name
        if "pipeline" in kinds:
            assert configs["pipeline"].seed == 7
            assert configs["selector"].seed == derive_seed(7, 1)
            assert configs["train"].seed == derive_seed(7, 2)
        else:
            (cfg,) = configs.values()
            assert cfg.seed == 7


class TestDemoScript:
    def test_child_imports_this_checkout(self, tmp_path, monkeypatch):
        # the demo must run from a checkout where bootband is not installed
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_gbm_demo.py"
        spec = importlib.util.spec_from_file_location("run_gbm_demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        calls = []

        def record(cmd, **kwargs):
            calls.append((cmd, kwargs.get("env")))
            if "-m" in cmd:
                (tmp_path / "report.json").write_text(json.dumps({"ranking": []}))

        monkeypatch.setattr(demo.subprocess, "run", record)
        monkeypatch.setattr(sys, "argv", ["run_gbm_demo.py", "--output-dir", str(tmp_path)])
        monkeypatch.setenv("PYTHONPATH", "elsewhere")
        demo.main()
        env = next(env for cmd, env in calls if cmd[1:3] == ["-m", "bootband"])
        src = str(path.parents[1] / "src")
        assert env["PYTHONPATH"] == os.pathsep.join([src, "elsewhere"])

    def test_failed_child_passes_on_its_exit_code(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_gbm_demo.py"
        with pytest.raises(subprocess.CalledProcessError) as err:
            fresh_python([str(path), "--n", "100", "--train-len", "200",
                          "--output-dir", str(tmp_path / "demo")], tmp_path)
        assert err.value.returncode == 4
        assert err.value.stderr.splitlines() == [
            "error[data]: training length 200 leaves no test timestep in 100 prices"
        ]
        assert "Traceback" not in err.value.stderr


class TestGbmCsvScript:
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_prices_is_a_usage_error(self, n, tmp_path, monkeypatch, capsys):
        out = tmp_path / "gbm.csv"
        monkeypatch.setattr(sys, "argv", ["make_gbm_csv.py", "--n", str(n), "--out", str(out)])
        with pytest.raises(SystemExit) as err:
            make_gbm_csv.main()
        assert err.value.code == 2
        assert f"--n must be at least 2, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_two_prices_are_written(self, tmp_path, monkeypatch):
        out = tmp_path / "gbm.csv"
        monkeypatch.setattr(sys, "argv", ["make_gbm_csv.py", "--n", "2", "--out", str(out)])
        make_gbm_csv.main()
        assert len(out.read_text().splitlines()) == 3
