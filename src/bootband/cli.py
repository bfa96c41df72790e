"""Command-line interface: resample, select-block, train, band, compare.

Every subcommand reads a dated CSV, writes UTF-8 CSV/JSON artifacts into
``--output-dir``, and drops a ``manifest.json`` recording the fully resolved
configuration, the input hash, and per-stage timings (the command's own
stages, timed with :func:`bootband.manifest.timed`, plus the pipeline's;
``compare`` names those ``<method>:<stage>``).  Configuration
precedence is CLI flags > ``--config`` file (``key = value`` lines, ``#``
comments) > built-in defaults.  All randomness derives from the single
``--seed``; when omitted a random seed is chosen, printed, and recorded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import derive_seed
from .blocklen import SelectorConfig, select_block_length
from .bootstrap import BlockPlan, BootstrapMethod, batch_resample
from .errors import (
    DataError,
    DivergenceError,
    PipelineError,
    ValidationError,
)
from .lstm import TrainConfig, fit, predict_series, save_model
from .manifest import RunManifest, sha256_of, timed
from .pipeline import PipelineConfig, compare_methods, run
from .timeseries import from_log_returns, load_csv, to_log_returns, window_minmax_scale

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_COMPUTE = 5

METHOD_CHOICES = [m.value for m in BootstrapMethod]


class UsageError(Exception):
    pass


def _bool_from(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


# name -> (converter, default, help); None default means "resolved at runtime"
# (seed: random; jobs: usable CPUs; lmax: min(50, n // 4)).  _REQUIRED marks a
# value a flag or the config file must give.  A list converter is a list of
# choices.
_REQUIRED = object()

_COMMON_OPTS = {
    "column": (str, "Close", "CSV column with the closing price"),
    "output_dir": (str, ".", "directory for artifacts"),
    "seed": (int, None, "master seed (default: random, printed and recorded)"),
}

# only band and compare train replicates, so only they take a worker count
_PARALLEL_OPTS = {
    **_COMMON_OPTS,
    "jobs": (int, None, "max parallel workers (default: available CPUs); outputs are identical for any value"),
}

_SELECTOR_OPTS = {
    "t": (float, 2.0, "penalty exponent"),
    "lmin": (int, 1, "smallest candidate block length"),
    "lmax": (int, None, "largest candidate block length (default: min(50, n // 4))"),
    "locality": (float, 0.1, "LBB locality fraction B in (0, 1]"),
}

_TRAIN_OPTS = {
    "train_len": (int, 800, "number of leading observations used for training"),
    "lookback": (int, 5, "window length fed to the LSTM"),
    "batch_size": (int, 15, "minibatch size"),
    "epochs": (int, 19, "training epochs"),
    "dropout": (float, 0.2, "dropout rate on the final hidden state"),
    "l2": (float, 1e-4, "L2 coefficient on input kernels and dense weights"),
    "hidden": (int, 32, "LSTM hidden size"),
    "learning_rate": (float, 1e-3, "Adam learning rate"),
    "scale_window": (int, 200, "segment length for window min-max scaling"),
}

_METHOD_OPT = {"method": (METHOD_CHOICES, _REQUIRED, None)}

# one table per subcommand: it drives both the parser and the config resolver
_RESAMPLE_OPTS = {
    **_COMMON_OPTS, **_METHOD_OPT,
    "block_len": (int, _REQUIRED, "block length l"),
    "locality": (float, 0.1, "LBB locality fraction B"),
    "count": (int, 1, "number of pseudo-series"),
    "space": (["log-return", "price"], "log-return",
              "'log-return' (reverse-transformed to prices) or 'price'"),
}

_SELECT_BLOCK_OPTS = {
    **_COMMON_OPTS, **_METHOD_OPT, **_SELECTOR_OPTS,
    "reps": (int, 100, "bootstrap replicates per candidate length"),
    "train_len": (int, None, "restrict to the first train-len prices (default: whole series)"),
}

_TRAIN_CMD_OPTS = {**_COMMON_OPTS, **_TRAIN_OPTS}

_COMPARE_OPTS = {
    **_PARALLEL_OPTS, **_SELECTOR_OPTS, **_TRAIN_OPTS,
    "reps": (int, 1000, "bootstrap replicates M"),
    "alpha": (float, 0.05, "miscoverage level (0.05 gives a 95 percent band)"),
    "selector_reps": (int, 100, "replicates per candidate in block-length selection"),
    "allow_failures": (int, 0, "tolerated failed replicates (non-finite loss or forecast) before aborting"),
    "dump_replicates": (bool, False, "also write the M x T replicate prediction matrix"),
}

_BAND_OPTS = {**_PARALLEL_OPTS, **_METHOD_OPT, **_COMPARE_OPTS}


def _add_opts(parser: argparse.ArgumentParser, opts: dict) -> None:
    for name, (conv, default, help_) in opts.items():
        flag = "--" + name.replace("_", "-")
        suffix = "" if default is None or default is _REQUIRED else f" (default: {default})"
        if conv is bool:
            parser.add_argument(flag, action="store_const", const=True, default=None,
                                help=help_ + (" (default: off)" if default is False else ""))
        elif isinstance(conv, list):
            parser.add_argument(flag, choices=conv, default=None,
                                help=None if help_ is None else help_ + suffix)
        else:
            parser.add_argument(flag, type=conv, default=None, help=help_ + suffix)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _from_file(name: str, conv, raw: str):
    """Convert one config-file value; a bad one is a usage error naming it."""
    if conv is bool:
        return _bool_from(raw)
    if isinstance(conv, list):
        if raw not in conv:
            raise UsageError(f"config {name} = {raw!r}: choose from {', '.join(conv)}")
        return raw
    try:
        return conv(raw)
    except ValueError:
        raise UsageError(f"config {name} = {raw!r}: not a valid {conv.__name__}") from None


class _Resolver:
    """Applies flag > config-file > default precedence and records the result."""

    def __init__(self, args: argparse.Namespace, opts: dict):
        self.args = args
        self.opts = opts
        raw_values = _read_config_file(args.config) if args.config else {}
        for key in raw_values:
            if key not in opts:
                raise UsageError(f"unknown config key {key!r}")
        # a bad file value or a missing required value fails before the
        # command does any work
        self.file_values = {key: _from_file(key, opts[key][0], raw)
                            for key, raw in raw_values.items()}
        self.resolved: dict = {}
        for name, (_, default, _) in opts.items():
            if default is _REQUIRED:
                self.get(name)

    def get(self, name):
        _, default, _ = self.opts[name]
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file_values.get(name)
        if value is None:
            if default is _REQUIRED:
                raise UsageError(f"--{name.replace('_', '-')} is required, as a flag or in --config")
            value = default
        self.resolved[name] = value
        return value


def _resolve_seed(res: _Resolver) -> int:
    seed = res.get("seed")
    if seed is None:
        seed = int.from_bytes(os.urandom(6), "big")
        print(f"seed: {seed}")
        res.resolved["seed"] = seed
    return seed


def _resolve_jobs(res: _Resolver) -> int:
    jobs = res.get("jobs")
    if jobs is None:
        # the CPUs this process may run on, which respects affinity masks
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    return jobs


def _out_dir(res: _Resolver) -> Path:
    out = Path(res.get("output_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _identity_config(res: _Resolver) -> dict:
    """The resolved settings that determine artifact bytes.

    Output location and worker count are execution details: they never
    change what gets computed, so they stay out of the reproducibility
    identity (jobs is recorded in the manifest's execution block).
    """
    return {k: v for k, v in res.resolved.items() if k not in ("output_dir", "jobs")}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _pipeline_config(res: _Resolver, method: str, seed: int) -> PipelineConfig:
    """Assemble the pipeline config; sub-seeds derive from the master seed."""
    return PipelineConfig(
        train_len=res.get("train_len"),
        reps=res.get("reps"),
        alpha=res.get("alpha"),
        selector=SelectorConfig(
            method=BootstrapMethod(method),
            reps=res.get("selector_reps"),
            l_min=res.get("lmin"),
            l_max=res.get("lmax"),
            t=res.get("t"),
            locality=res.get("locality"),
            seed=derive_seed(seed, 1),
        ),
        train=TrainConfig(
            lookback=res.get("lookback"),
            batch_size=res.get("batch_size"),
            epochs=res.get("epochs"),
            dropout_rate=res.get("dropout"),
            l2_coeff=res.get("l2"),
            hidden_size=res.get("hidden"),
            learning_rate=res.get("learning_rate"),
            seed=derive_seed(seed, 2),
        ),
        seed=seed,
        scale_window=res.get("scale_window"),
        allow_failures=res.get("allow_failures"),
    )


def _write_replicate_matrix(path: Path, result) -> None:
    """M x T audit dump: one row per replicate, one column per test date."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate"] + [ts.isoformat() for ts in result.band.timestamps])
        for rid, row in zip(result.replicate_ids, result.predictions):
            w.writerow([rid] + [repr(float(v)) for v in row])


def cmd_resample(args: argparse.Namespace) -> int:
    res = _Resolver(args, _RESAMPLE_OPTS)
    seed = _resolve_seed(res)
    out = _out_dir(res)
    method = res.get("method")
    block_len = res.get("block_len")
    space = res.get("space")
    prices = load_csv(args.input, res.get("column"))

    manifest = RunManifest(
        command="resample", config={}, input_path=str(args.input),
        input_sha256=sha256_of(args.input), seed=seed,
    )
    locality = res.get("locality") if method == "lbb" else None
    plan = BlockPlan(method=BootstrapMethod(method), block_len=block_len,
                     locality=locality, seed=seed)
    with timed(manifest.timings, "resample"):
        if space == "log-return":
            draws, starts = batch_resample(to_log_returns(prices.values), plan, res.get("count"))
            paths = from_log_returns(draws, prices.values[0])
        else:
            paths, starts = batch_resample(prices.values, plan, res.get("count"))

    with timed(manifest.timings, "write"):
        with open(out / "pseudo_series.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"rep_{k}" for k in range(len(paths))])
            for t, column in enumerate(paths.T.tolist()):
                w.writerow([t] + [repr(v) for v in column])
        _write_json(out / "starts.json", {
            "method": method, "block_len": block_len, "space": space,
            "starts": [row.tolist() for row in starts],
        })
    manifest.config = _identity_config(res)
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_select_block(args: argparse.Namespace) -> int:
    res = _Resolver(args, _SELECT_BLOCK_OPTS)
    seed = _resolve_seed(res)
    out = _out_dir(res)
    prices = load_csv(args.input, res.get("column"))
    train_len = res.get("train_len")
    if train_len is not None and not 1 < train_len <= len(prices):
        raise ValidationError(f"--train-len {train_len} must lie in (1, {len(prices)}]")
    method = res.get("method")
    returns = to_log_returns(prices.values[:train_len])

    cfg = SelectorConfig(
        method=BootstrapMethod(method), reps=res.get("reps"), l_min=res.get("lmin"),
        l_max=res.get("lmax"), t=res.get("t"), locality=res.get("locality"), seed=seed,
    )
    manifest = RunManifest(
        command="select-block", config={}, input_path=str(args.input),
        input_sha256=sha256_of(args.input), seed=seed,
    )
    with timed(manifest.timings, "select"):
        l_opt, curve = select_block_length(returns, cfg)
    curve.to_csv(out / "selector_curve.csv")
    _write_json(out / "selection.json", {
        "method": method, "l_opt": l_opt, "reps": cfg.reps, "t": cfg.t, "seed": seed,
        "n_returns": len(returns),
    })
    manifest.config = _identity_config(res)
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    res = _Resolver(args, _TRAIN_CMD_OPTS)
    seed = _resolve_seed(res)
    out = _out_dir(res)
    prices = load_csv(args.input, res.get("column"))
    n = len(prices)
    train_len = res.get("train_len")
    if not 0 < train_len < n:
        raise ValidationError(f"--train-len {train_len} must lie in (0, {n}) for this input")

    cfg = TrainConfig(
        lookback=res.get("lookback"), batch_size=res.get("batch_size"),
        epochs=res.get("epochs"), dropout_rate=res.get("dropout"), l2_coeff=res.get("l2"),
        hidden_size=res.get("hidden"), learning_rate=res.get("learning_rate"), seed=seed,
    )
    manifest = RunManifest(
        command="train", config={}, input_path=str(args.input),
        input_sha256=sha256_of(args.input), seed=seed,
    )
    scale_window = res.get("scale_window")
    with timed(manifest.timings, "scale"):
        scaled, scale = window_minmax_scale(prices.values, scale_window)
    with timed(manifest.timings, "fit"):
        model, rmse_trace = fit(scaled[:train_len], cfg)
    with timed(manifest.timings, "predict"):
        test_pos = np.arange(train_len, n)
        train_pos = np.arange(cfg.lookback, train_len)
        test_scaled = predict_series(model, scaled, test_pos)
        train_scaled = predict_series(model, scaled, train_pos)
        test_price = scale.denormalize(test_scaled, test_pos)
        train_price = scale.denormalize(train_scaled, train_pos)

    def rmse(a, b):
        return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))

    save_model(model, out / "model.json")
    with open(out / "rmse_log.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_rmse_scaled"])
        for e, v in enumerate(rmse_trace, start=1):
            w.writerow([e, repr(v)])
    with open(out / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "actual", "predicted"])
        for ts, act, pred in zip(prices.timestamps[train_len:], prices.values[train_len:], test_price):
            w.writerow([ts.isoformat(), repr(float(act)), repr(float(pred))])
    _write_json(out / "metrics.json", {
        "train_rmse_scaled": rmse(train_scaled, scaled[cfg.lookback:train_len]),
        "train_rmse_price": rmse(train_price, prices.values[cfg.lookback:train_len]),
        "test_rmse_scaled": rmse(test_scaled, scaled[train_len:]),
        "test_rmse_price": rmse(test_price, prices.values[train_len:]),
        "final_epoch_rmse_scaled": rmse_trace[-1],
        "seed": seed,
    })
    manifest.config = _identity_config(res)
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_band(args: argparse.Namespace) -> int:
    res = _Resolver(args, _BAND_OPTS)
    seed = _resolve_seed(res)
    jobs = _resolve_jobs(res)
    out = _out_dir(res)
    prices = load_csv(args.input, res.get("column"))
    cfg = _pipeline_config(res, res.get("method"), seed)

    manifest = RunManifest(
        command="band", config={}, input_path=str(args.input),
        input_sha256=sha256_of(args.input), seed=seed, jobs=jobs,
    )
    with timed(manifest.timings, "pipeline"):
        result = run(prices, cfg, jobs=jobs)
    manifest.timings.update(result.timings)
    with timed(manifest.timings, "write"):
        result.band.to_csv(out / "band.csv", actual=result.actual)
        result.curve.to_csv(out / "selector_curve.csv")
        _write_json(out / "report.json", {
            **result.report(seed), "alpha": cfg.alpha,
            "runtime_seconds": manifest.timings.get("pipeline"),
        })
        if res.get("dump_replicates"):
            _write_replicate_matrix(out / "replicates.csv", result)
    manifest.config = _identity_config(res)
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    res = _Resolver(args, _COMPARE_OPTS)
    seed = _resolve_seed(res)
    jobs = _resolve_jobs(res)
    out = _out_dir(res)
    prices = load_csv(args.input, res.get("column"))
    cfg = _pipeline_config(res, "lbb", seed)

    manifest = RunManifest(
        command="compare", config={}, input_path=str(args.input),
        input_sha256=sha256_of(args.input), seed=seed, jobs=jobs,
    )
    with timed(manifest.timings, "compare"):
        comparison = compare_methods(prices, cfg, jobs=jobs)
    for method, result in comparison.results.items():
        for stage, seconds in result.timings.items():
            manifest.timings[f"{method.value}:{stage}"] = seconds
    with timed(manifest.timings, "write"):
        for method, result in comparison.results.items():
            result.band.to_csv(out / f"band_{method.value}.csv", actual=result.actual)
            result.curve.to_csv(out / f"selector_curve_{method.value}.csv")
            if res.get("dump_replicates"):
                _write_replicate_matrix(out / f"replicates_{method.value}.csv", result)
        _write_json(out / "report.json", {
            "ranking": comparison.report(seed=seed),
            "best_method": comparison.ranking[0].value,
            "seed": seed,
            "runtime_seconds": manifest.timings.get("compare"),
        })
    manifest.config = _identity_config(res)
    manifest.write(out / "manifest.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootband",
        description="Block-bootstrap confidence bands for LSTM price forecasts.",
    )
    parser.add_argument("--version", action="version", version=f"bootband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, opts, help_ in (
        ("resample", cmd_resample, _RESAMPLE_OPTS, "draw block-bootstrap pseudo-series"),
        ("select-block", cmd_select_block, _SELECT_BLOCK_OPTS,
         "choose the block length by the penalized objective"),
        ("train", cmd_train, _TRAIN_CMD_OPTS, "train a single LSTM on the training split"),
        ("band", cmd_band, _BAND_OPTS, "full bootstrap confidence band for one method"),
        ("compare", cmd_compare, _COMPARE_OPTS,
         "rank all three bootstrap methods by comparing factor"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", required=True, help="dated CSV of prices")
        p.add_argument("--config", default=None, help="key = value config file")
        _add_opts(p, opts)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DataError, ValidationError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        print(f"error[{exc.stage}]: {exc.detail}", file=sys.stderr)
        return EXIT_COMPUTE
    except DivergenceError as exc:
        print(f"error[train]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
