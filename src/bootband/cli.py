"""Command-line interface: resample, select-block, train, band, compare.

Every subcommand reads a dated CSV, writes UTF-8 CSV/JSON artifacts into
``--output-dir``, and drops a ``manifest.json`` recording the input hash,
per-stage timings (the command's own stages, timed with
:func:`bootband.manifest.timed`, plus the pipeline's under the keys the
pipeline gives them: ``compare`` gets ``<method>:<stage>`` for each method's
own stages and ``train-predict`` once) and, as its ``config``, every option of
the command after resolution except ``output_dir`` and ``jobs``.  Each
subcommand has one option table, which drives its parser, its resolution and
the configs it builds: a table entry that sets a field of :class:`TrainConfig`,
:class:`SelectorConfig` or :class:`PipelineConfig` names that field and takes
its default from it, so a new option is one table entry plus its dataclass
field.  One runner, :func:`_execute`, resolves the whole table into one dict
before the body runs, picks the seed, loads the input, writes the manifest
and removes the directories a failed run made; each subcommand body only
computes its artifacts.  Configuration precedence is CLI flags >
``--config`` file (``key = value`` lines, ``#`` comments) > defaults.  All
randomness derives from the single ``--seed``; when omitted a random seed is
chosen, printed, and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from ._rng import derive_seed
from .blocklen import SelectorConfig, select_block_length
from .bootstrap import BlockPlan, BootstrapMethod, batch_resample
from .errors import DataError, PipelineError, ValidationError
from .lstm import LstmModel, TrainConfig, predict_series, save_model
from .manifest import RunManifest, sha256_of, timed, write_json
from .pipeline import PipelineConfig, compare_methods, fit_predict, run
from .timeseries import PriceSeries, from_log_returns, load_csv, to_log_returns, window_minmax_scale, write_csv

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


# _REQUIRED marks a value a flag or the config file must give.
_REQUIRED = object()


class _Opt(NamedTuple):
    """One table entry: converter, default, help, and the config field it sets, if any.

    A list converter is a list of choices.  A None default means "resolved at
    runtime" (seed: random; jobs: usable CPUs; lmax: min(50, n // 4)).
    """

    conv: object
    default: object
    help: str | None
    cls: type | None = None
    field: str | None = None


def _sets(conv, cls: type, field: str, help_: str | None, default=None) -> _Opt:
    """An option that sets ``cls.field``; its default is the dataclass's unless given."""
    return _Opt(conv, getattr(cls, field) if default is None else default, help_, cls, field)


_COMMON_OPTS = {
    "column": _Opt(str, "Close", "CSV column with the closing price"),
    "output_dir": _Opt(str, ".", "directory for artifacts"),
    "seed": _Opt(int, None, "master seed (default: random, printed and recorded)"),
}

# only band and compare train replicates, so only they take a worker count
_PARALLEL_OPTS = {
    **_COMMON_OPTS,
    "jobs": _Opt(int, None, "max parallel workers (default: available CPUs); outputs are identical for any value"),
}

_SELECTOR_OPTS = {
    "t": _sets(float, SelectorConfig, "t", "penalty exponent"),
    "lmin": _sets(int, SelectorConfig, "l_min", "smallest candidate block length"),
    "lmax": _sets(int, SelectorConfig, "l_max", "largest candidate block length (default: min(50, n // 4))"),
    "locality": _sets(float, SelectorConfig, "locality", "LBB locality fraction B in (0, 1]"),
}

_TRAIN_OPTS = {
    # PipelineConfig has no default training length; 800 is the reference split
    "train_len": _sets(int, PipelineConfig, "train_len", "number of leading observations used for training",
                       default=800),
    "lookback": _sets(int, TrainConfig, "lookback", "window length fed to the LSTM"),
    "batch_size": _sets(int, TrainConfig, "batch_size", "minibatch size"),
    "epochs": _sets(int, TrainConfig, "epochs", "training epochs"),
    "dropout": _sets(float, TrainConfig, "dropout_rate", "dropout rate on the final hidden state"),
    "l2": _sets(float, TrainConfig, "l2_coeff", "L2 coefficient on input kernels and dense weights"),
    "hidden": _sets(int, TrainConfig, "hidden_size", "LSTM hidden size"),
    "learning_rate": _sets(float, TrainConfig, "learning_rate", "Adam learning rate"),
    "scale_window": _sets(int, PipelineConfig, "scale_window", "segment length for window min-max scaling"),
}

_METHOD_OPT = {"method": _sets(METHOD_CHOICES, SelectorConfig, "method", None, default=_REQUIRED)}

# the options of one band construction, shared by band and compare
_PIPELINE_OPTS = {
    **_SELECTOR_OPTS, **_TRAIN_OPTS,
    "reps": _sets(int, PipelineConfig, "reps", "bootstrap replicates M"),
    "alpha": _sets(float, PipelineConfig, "alpha", "miscoverage level (0.05 gives a 95 percent band)"),
    "selector_reps": _sets(int, SelectorConfig, "reps", "replicates per candidate in block-length selection"),
    "allow_failures": _sets(int, PipelineConfig, "allow_failures",
                            "tolerated failed replicates (non-finite loss or forecast) before aborting"),
    "dump_replicates": _Opt(bool, False, "also write the M x T replicate prediction matrix"),
}

# one table per subcommand: it drives the parser, the resolution and the configs
_RESAMPLE_OPTS = {
    **_COMMON_OPTS, **_METHOD_OPT,
    "block_len": _Opt(int, _REQUIRED, "block length l"),
    "locality": _SELECTOR_OPTS["locality"],
    "count": _Opt(int, 1, "number of pseudo-series"),
    "space": _Opt(["log-return", "price"], "log-return",
                  "'log-return' (reverse-transformed to prices) or 'price'"),
}

_SELECT_BLOCK_OPTS = {
    **_COMMON_OPTS, **_METHOD_OPT, **_SELECTOR_OPTS,
    "reps": _sets(int, SelectorConfig, "reps", "bootstrap replicates per candidate length"),
    "train_len": _Opt(int, None, "restrict to the first train-len prices (default: whole series)"),
}

_TRAIN_CMD_OPTS = {**_COMMON_OPTS, **_TRAIN_OPTS}
_COMPARE_OPTS = {**_PARALLEL_OPTS, **_PIPELINE_OPTS}
_BAND_OPTS = {**_PARALLEL_OPTS, **_METHOD_OPT, **_PIPELINE_OPTS}


def _add_opts(parser: argparse.ArgumentParser, opts: dict) -> None:
    for name, (conv, default, help_, *_) in opts.items():
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
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
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


def _resolve(args: argparse.Namespace, table: dict) -> dict:
    """Every option of ``table`` by flag > config-file > default precedence.

    A bad file value or a missing required value fails here, before the
    command does any work.
    """
    raw_values = _read_config_file(args.config) if args.config else {}
    for key in raw_values:
        if key not in table:
            raise UsageError(f"unknown config key {key!r}")
    file_values = {key: _from_file(key, table[key].conv, raw) for key, raw in raw_values.items()}
    opts = {}
    for name, opt in table.items():
        value = getattr(args, name)
        if value is None:
            value = file_values.get(name, opt.default)
        if value is _REQUIRED:
            raise UsageError(f"--{name.replace('_', '-')} is required, as a flag or in --config")
        opts[name] = value
    return opts


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        # the CPUs this process may run on, which respects affinity masks
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    return jobs


def _execute(args: argparse.Namespace) -> int:
    """Resolve the options, load the input, make the output directory, run the body, write the manifest."""
    opts = _resolve(args, args.opts)
    if opts["seed"] is None:
        opts["seed"] = int.from_bytes(os.urandom(6), "big")
        print(f"seed: {opts['seed']}")
    if opts["seed"] < 0:
        raise UsageError("--seed must be >= 0")
    jobs = _resolve_jobs(opts["jobs"]) if "jobs" in opts else 1
    prices = load_csv(args.input, opts["column"])
    # Output location and worker count never change what gets computed, so
    # they stay out of the reproducibility identity (jobs is recorded in the
    # manifest's execution block).
    manifest = RunManifest(
        command=args.command,
        config={k: v for k, v in opts.items() if k not in ("output_dir", "jobs")},
        input_path=str(args.input), input_sha256=sha256_of(args.input),
        seed=opts["seed"], jobs=jobs,
    )
    out = Path(opts["output_dir"])
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
        args.func(opts, prices, out, manifest)
        manifest.write(out / "manifest.json")
    except BaseException:
        with contextlib.suppress(OSError):
            for d in made:
                d.rmdir()  # refuses a directory that is not empty
        raise
    return EXIT_OK


def _config(cls: type, opts: dict, table: dict, **given):
    """Build ``cls`` from every option whose table entry sets one of its fields, plus ``given``."""
    fields = {opt.field: opts[name] for name, opt in table.items() if opt.cls is cls}
    return cls(**fields, **given)


def _pipeline_config(opts: dict, table: dict, seed: int, **selector) -> PipelineConfig:
    """Assemble the pipeline config; sub-seeds derive from the master seed."""
    return _config(
        PipelineConfig, opts, table, seed=seed,
        selector=_config(SelectorConfig, opts, table, seed=derive_seed(seed, 1), **selector),
        train=_config(TrainConfig, opts, table, seed=derive_seed(seed, 2)),
    )


def _write_method(out: Path, result, suffix: str, dump_replicates: bool) -> None:
    """One method's band, selector curve and, if asked, its replicate matrix.

    Each file name ends in ``suffix`` (``""`` for ``band``, ``_<method>`` for
    ``compare``).  The M x T replicate dump has one row per replicate and one
    column per test date.
    """
    result.band.to_csv(out / f"band{suffix}.csv", actual=result.actual)
    result.curve.to_csv(out / f"selector_curve{suffix}.csv")
    if dump_replicates:
        write_csv(out / f"replicates{suffix}.csv",
                  ["replicate"] + [ts.isoformat() for ts in result.band.timestamps],
                  ([rid] + [repr(float(v)) for v in row]
                   for rid, row in zip(result.replicate_ids, result.predictions)))


def cmd_resample(opts: dict, prices: PriceSeries, out: Path, manifest: RunManifest) -> None:
    method, block_len, space = opts["method"], opts["block_len"], opts["space"]
    plan = BlockPlan(method=BootstrapMethod(method), block_len=block_len,
                     locality=opts["locality"], seed=manifest.seed)
    with timed(manifest.timings, "resample"):
        if space == "log-return":
            draws, starts = batch_resample(to_log_returns(prices.values), plan, opts["count"])
            paths = from_log_returns(draws, prices.values[0])
        else:
            paths, starts = batch_resample(prices.values, plan, opts["count"])

    with timed(manifest.timings, "write"):
        write_csv(out / "pseudo_series.csv", ["t"] + [f"rep_{k}" for k in range(len(paths))],
                  ([t] + [repr(v) for v in column] for t, column in enumerate(paths.T.tolist())))
        write_json(out / "starts.json", {
            "method": method, "block_len": block_len, "space": space,
            "starts": [row.tolist() for row in starts],
        })


def cmd_select_block(opts: dict, prices: PriceSeries, out: Path, manifest: RunManifest) -> None:
    train_len = opts["train_len"]
    if train_len is not None and not 1 < train_len <= len(prices):
        raise ValidationError(f"--train-len {train_len} must lie in (1, {len(prices)}]")
    returns = to_log_returns(prices.values[:train_len])
    cfg = _config(SelectorConfig, opts, _SELECT_BLOCK_OPTS, seed=manifest.seed)
    with timed(manifest.timings, "select"):
        l_opt, curve = select_block_length(returns, cfg)
    curve.to_csv(out / "selector_curve.csv")
    write_json(out / "selection.json", {
        "method": opts["method"], "l_opt": l_opt, "reps": cfg.reps, "t": cfg.t, "seed": manifest.seed,
        "n_returns": len(returns),
    })


def cmd_train(opts: dict, prices: PriceSeries, out: Path, manifest: RunManifest) -> None:
    n = len(prices)
    train_len = opts["train_len"]
    if not 0 < train_len < n:
        raise ValidationError(f"--train-len {train_len} must lie in (0, {n}) for this input")
    cfg = _config(TrainConfig, opts, _TRAIN_CMD_OPTS, seed=manifest.seed)
    test_pos = np.arange(train_len, n)
    with timed(manifest.timings, "train-predict"):
        scaled, scale = actual = window_minmax_scale(prices.values, opts["scale_window"])
        # the training prices are scaled on their own, as a replicate path is
        group, traces, test_scaled, test_price, (cause,) = fit_predict(
            prices.values[None, :train_len], cfg, [cfg.seed], actual, test_pos, epoch_rmse=True)
        if cause is not None:
            raise PipelineError("train", cause)
        model = LstmModel(theta=group.theta[0], cfg=cfg)
        # a separate call: predict_series bits depend on how many windows one call holds
        train_pos = np.arange(cfg.lookback, train_len)
        train_scaled = predict_series(model, scaled, train_pos)
        train_price = scale.denormalize(train_scaled, train_pos)
    test_scaled, test_price, rmse_trace = test_scaled[0], test_price[0], traces[0].tolist()

    def rmse(a, b):
        return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))

    save_model(model, out / "model.json")
    write_csv(out / "rmse_log.csv", ["epoch", "train_rmse_scaled"],
              ([e, repr(v)] for e, v in enumerate(rmse_trace, start=1)))
    write_csv(out / "predictions.csv", ["date", "actual", "predicted"],
              ([ts.isoformat(), repr(float(act)), repr(float(pred))]
               for ts, act, pred in zip(prices.timestamps[train_len:], prices.values[train_len:],
                                        test_price)))
    write_json(out / "metrics.json", {
        "train_rmse_scaled": rmse(train_scaled, scaled[cfg.lookback:train_len]),
        "train_rmse_price": rmse(train_price, prices.values[cfg.lookback:train_len]),
        "test_rmse_scaled": rmse(test_scaled, scaled[train_len:]),
        "test_rmse_price": rmse(test_price, prices.values[train_len:]),
        "final_epoch_rmse_scaled": rmse_trace[-1],
        "seed": manifest.seed,
    })


def cmd_band(opts: dict, prices: PriceSeries, out: Path, manifest: RunManifest) -> None:
    cfg = _pipeline_config(opts, _BAND_OPTS, manifest.seed)
    with timed(manifest.timings, "pipeline"):
        result = run(prices, cfg, jobs=manifest.jobs)
    manifest.timings.update(result.timings)
    with timed(manifest.timings, "write"):
        _write_method(out, result, "", opts["dump_replicates"])
        write_json(out / "report.json", {**result.report(manifest.seed), "alpha": cfg.alpha})


def cmd_compare(opts: dict, prices: PriceSeries, out: Path, manifest: RunManifest) -> None:
    # compare_methods sets each method itself and checks --locality with LBB's config
    cfg = _pipeline_config(opts, _COMPARE_OPTS, manifest.seed)
    with timed(manifest.timings, "compare"):
        comparison = compare_methods(prices, cfg, jobs=manifest.jobs)
    manifest.timings.update(comparison.timings)
    with timed(manifest.timings, "write"):
        for method, result in comparison.results.items():
            _write_method(out, result, f"_{method.value}", opts["dump_replicates"])
        write_json(out / "report.json", {
            "ranking": comparison.report(seed=manifest.seed),
            "best_method": comparison.ranking[0].value,
            "seed": manifest.seed,
        })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootband",
        description="Block-bootstrap confidence bands for LSTM price forecasts.",
    )
    parser.add_argument("--version", action="version", version=f"bootband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, body, opts, help_ in (
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
        p.set_defaults(func=body, opts=opts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _execute(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValidationError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        print(f"error[{exc.stage}]: {exc.detail}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        # an allocation outside a group's fit; one inside it fails that group's replicates instead
        print(f"error[memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
