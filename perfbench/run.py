#!/usr/bin/env python3
"""Benchmark of the ``bootband`` CLI on seeded synthetic price series.

Usage, from the repository root:

    python3 perfbench/run.py --workload compare-ref --seed 1 --seconds 30 --trace 0

Each workload is a closed batch loop: each client (one, or one per usable CPU)
runs one CLI invocation at a time, back to back, for about ``--seconds`` (at
least ``MIN_SAMPLES`` times), each preceded by a set-up probe: a fresh
interpreter that imports bootband and loads the input.  Clients times
``--jobs`` never exceeds the usable CPUs.  The input is a geometric-Brownian-motion price path from
``gbm()`` in ``scripts/make_gbm_csv.py``, seeded by ``--seed``; the CLI sees
only that CSV and ``--seed``.  BLAS threading is left as found, because that is what users run.  Inputs,
outputs and logs go to ``.perfbench_work/`` under the repository root.

Every invocation's outputs are checked (exit code, one finite band row per
test date, ``lower <= median <= upper``, the report's comparing factor and
coverage recomputed from the band file), and the SHA-256 of every
``band*.csv`` must be the same in all invocations of the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also makes one
untraced and one traced ``--jobs 1`` invocation (see ``traced_cli.py``) and
reports the per-layer metrics instead.  The line before the last holds a JSON
report with machine facts, samples, tail percentiles and band hashes; the last
line is ``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count replicates.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
METHODS = ("nbb", "mbb", "lbb")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape and the closed-loop clients that repeat it.

    ``jobs=None`` means all usable CPUs; ``clients=None`` means one client per
    usable CPU, each running its invocations back to back.
    """

    command: str
    n: int
    train_len: int
    reps: int
    jobs: int | None
    flags: tuple[str, ...]
    method: str | None = None
    clients: int | None = 1

    @property
    def methods(self) -> tuple[str, ...]:
        return METHODS if self.command == "compare" else (self.method,)

    @property
    def band_files(self) -> tuple[str, ...]:
        if self.command == "compare":
            return tuple(f"band_{m}.csv" for m in METHODS)
        return ("band.csv",)


# Why each workload exists (also in BENCHMARK.json):
# compare-ref     - the reference LSTM shapes (hidden 32, lookback 5, batch 15,
#                   800 training points); lstm.fit dominates and each method
#                   opens its own process pool.  Epochs and selector replicates
#                   are cut so that several invocations fit in one run while
#                   fit keeps > 90% of the serial time, as at full size.
# band-many-small - 150 tiny fits: per-replicate fixed cost, pool
#                   dispatch and percentile_band over a large M.
# select-long     - a 5000-point training series with a tiny LSTM at --jobs 1:
#                   block-length selection and resampling dominate.  Selection
#                   is serial, so one client per usable CPU keeps every CPU
#                   busy: a single client's time swings by up to a third with
#                   how the host shares the idle CPU's core, which no run
#                   length smooths out.
WORKLOADS = {
    "compare-ref": Workload(
        "compare", n=1000, train_len=800, reps=2, jobs=None,
        flags=("--hidden", "32", "--epochs", "5", "--lookback", "5", "--batch-size", "15",
               "--selector-reps", "10"),
    ),
    "band-many-small": Workload(
        "band", n=300, train_len=200, reps=150, jobs=None,
        flags=("--hidden", "8", "--epochs", "3"), method="lbb",
    ),
    "select-long": Workload(
        "compare", n=6000, train_len=5000, reps=4, jobs=1,
        flags=("--hidden", "4", "--epochs", "1", "--batch-size", "250"), clients=None,
    ),
}


class LayoutError(Exception):
    """The checkout lacks the program or the input generator."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def load_gbm():
    """Import ``gbm`` from the repository's generator script."""
    script = ROOT / "scripts" / "make_gbm_csv.py"
    if not (ROOT / "src" / "bootband" / "__init__.py").is_file() or not script.is_file():
        raise LayoutError(f"{ROOT} holds no src/bootband package or scripts/make_gbm_csv.py")
    spec = importlib.util.spec_from_file_location("make_gbm_csv", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gbm


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    max_threads = next((tok.split("=", 1)[1] for tok in config.split()
                        if tok.startswith("MAX_THREADS=")), None)
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "max_threads": max_threads},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def write_input(path: Path, gbm, n: int, seed: int) -> tuple[list[str], list[float]]:
    """Write a dated ``Date,Close`` CSV of a seeded GBM path; return dates and prices."""
    prices = [float(v) for v in gbm(n, seed, 100.0, 0.05, 0.2)]
    dates = [(date(2000, 1, 3) + timedelta(days=k)).isoformat() for k in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["Date", "Close"])
        w.writerows(zip(dates, (repr(p) for p in prices)))
    return dates, prices


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float        # user + sys of the process and every descendant it reaped
    maxrss_mb: float    # largest resident set among those processes


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run one process to completion, timing it from outside.

    ``os.wait4`` returns the child's resource use including the pool workers
    it reaped.  A child that outlives ``CHILD_TIMEOUT_S`` is killed with its
    process group and reported with a non-zero code.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def cli_args(wl: Workload, csv_path: Path, out: Path, seed: int, jobs: int) -> list[str]:
    args = [wl.command]
    if wl.method:
        args += ["--method", wl.method]
    return args + [
        "--input", str(csv_path), "--train-len", str(wl.train_len), "--reps", str(wl.reps),
        "--seed", str(seed), "--jobs", str(jobs), "--allow-failures", str(wl.reps),
        "--output-dir", str(out), *wl.flags,
    ]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_band(path: Path, dates: list[str], actual: list[float], report: dict) -> list[str]:
    """Problems found in one band file against the input test segment and its report row."""
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["date", "lower", "median", "upper", "actual"]:
        return [f"{path.name}: bad header {rows[:1]}"]
    body = rows[1:]
    if len(body) != len(dates):
        return [f"{path.name}: {len(body)} rows for {len(dates)} test steps"]
    widths, inside = [], 0
    for k, row in enumerate(body):
        try:
            lo, med, hi, act = (float(v) for v in row[1:])
        except ValueError:
            problems.append(f"{path.name}:{k + 2}: non-numeric row {row}")
            continue
        if row[0] != dates[k] or act != actual[k]:
            problems.append(f"{path.name}:{k + 2}: date/actual differ from the input")
        if not all(math.isfinite(v) for v in (lo, med, hi, act)):
            problems.append(f"{path.name}:{k + 2}: non-finite value")
        elif not lo <= med <= hi:
            problems.append(f"{path.name}:{k + 2}: lower <= median <= upper violated")
        widths.append(hi - lo)
        inside += lo <= act <= hi
    if problems:
        return problems
    factor = math.fsum(widths)
    if not math.isclose(report["comparing_factor"], factor, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"{path.name}: comparing_factor {report['comparing_factor']!r} "
                        f"!= sum of widths {factor!r}")
    coverage = report["coverage"]
    if not 0.0 <= coverage <= 1.0 or not math.isclose(coverage, inside / len(body)):
        problems.append(f"{path.name}: coverage {coverage!r} not in [0, 1] or "
                        f"!= {inside}/{len(body)}")
    return problems


def check_outputs(wl: Workload, out: Path, dates: list[str], prices: list[float]):
    """Check one invocation's artifacts: (trained, failed, {file: sha256}, problems)."""
    test_dates, actual = dates[wl.train_len:], prices[wl.train_len:]
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return 0, 0, {}, [f"report.json unreadable: {exc}"]
    rows = {r["method"]: r for r in report.get("ranking", [report])}
    trained = failed = 0
    hashes, problems = {}, []
    for method, name in zip(wl.methods, wl.band_files):
        row = rows.get(method)
        path = out / name
        if row is None or not path.is_file():
            problems.append(f"{name} or its report row is missing")
            continue
        trained += row["reps"]
        failed += len(row["failed_replicates"])
        if row["reps"] + len(row["failed_replicates"]) != wl.reps:
            problems.append(f"{method}: {row['reps']} trained + "
                            f"{len(row['failed_replicates'])} failed != {wl.reps}")
        problems += check_band(path, test_dates, actual, row)
        hashes[name] = sha256_file(path)
    return trained, failed, hashes, problems


def tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    srt = sorted(samples)
    out = {"n": len(srt), "median": statistics.median(srt), "tail_pct": None, "tail": None}
    if len(srt) >= 11:
        out["tail_pct"] = 100.0 * (len(srt) - 10) / len(srt)
        out["tail"] = srt[len(srt) - 11]
    return out


class Run:
    """One benchmark run of a workload: invocations, checks and their tallies."""

    def __init__(self, name: str, wl: Workload, seed: int, work: Path, gbm):
        self.name, self.wl, self.seed, self.work = name, wl, seed, work
        self.csv = work / "input.csv"
        self.dates, self.prices = write_input(self.csv, gbm, wl.n, seed)
        self.attempted = self.failed = 0
        self.hashes: dict[str, str] = {}
        self.problems: list[str] = []
        self.lock = threading.Lock()   # guards the tallies above across clients

    def setup_probe(self, log: str = "setup.log") -> float:
        """Wall seconds for a fresh interpreter to import bootband and load the input."""
        code = f"import bootband; bootband.load_csv({str(self.csv)!r}, 'Close')"
        child = run_child([sys.executable, "-c", code], self.work / log)
        if child.rc != 0:
            with self.lock:
                self.problems.append(f"setup probe: exit code {child.rc}; see {self.work / log}")
        return child.wall_s

    def invoke(self, label: str, argv_prefix: list[str], jobs: int) -> tuple[ChildRun, int]:
        """Run one CLI invocation, check its outputs; return the run and replicates trained."""
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        argv = argv_prefix + cli_args(self.wl, self.csv, out, self.seed, jobs)
        out.mkdir(parents=True)
        child = run_child(argv, self.work / f"{label}.log")
        attempted = self.wl.reps * len(self.wl.methods)
        if child.rc != 0:
            with self.lock:
                self.attempted += attempted
                self.failed += attempted
                self.problems.append(f"{label}: exit code {child.rc}; see {self.work / label}.log")
            return child, 0
        trained, failed, hashes, problems = check_outputs(self.wl, out, self.dates, self.prices)
        with self.lock:
            self.attempted += attempted
            self.failed += failed
            self.problems += [f"{label}: {p}" for p in problems]
            self.record_hashes(label, hashes)
        return child, trained

    def record_hashes(self, label: str, hashes: dict[str, str]) -> None:
        """Every invocation of a run must write byte-identical band files."""
        for name, digest in hashes.items():
            first = self.hashes.setdefault(name, digest)
            if digest != first:
                self.problems.append(f"{label}: {name} sha256 {digest} != {first}")


def layer_metrics(spans: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, a detail record, and any inconsistency among the spans."""
    problems = []
    child_time = [0.0] * len(spans)
    for s in spans:
        p = s["parent"]
        if p is not None:
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"span {s['name']} is not inside its parent {parent['name']}")
            child_time[p] += s["end"] - s["start"]
    dur = [s["end"] - s["start"] for s in spans]
    self_s = [d - c for d, c in zip(dur, child_time)]
    if min(self_s) < -1e-6:
        problems.append("a span's children overlap")
    root = dur[0]
    if not math.isclose(math.fsum(self_s), root, rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"self times sum to {math.fsum(self_s)} s, root span is {root} s")

    def total(name, values=dur):
        return math.fsum(v for s, v in zip(spans, values) if s["name"] == name)

    def count(name, key=None):
        return sum(s["attrs"].get(key, 0) if key else 1 for s in spans if s["name"] == name)

    fits = [d for s, d in zip(spans, dur) if s["name"] == "lstm.fit"]
    fit_s, steps, flop = math.fsum(fits), count("lstm.fit", "steps"), count("lstm.fit", "flop")
    layers = {}
    for s, v in zip(spans, self_s):
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    runs = [s for s in spans if s["name"] == "pipeline.run"]
    metrics = {
        "lstm.fit_s": (statistics.median(fits), "s"),
        "lstm.fit_s_max": (max(fits), "s"),
        "lstm.fit_calls": (len(fits), "count"),
        "lstm.fit_total_s": (fit_s, "s"),
        "lstm.fit_steps": (steps, "count"),
        "lstm.step_us": (1e6 * fit_s / steps, "us"),
        "lstm.fit_gflop": (flop / 1e9, "GFLOP"),
        "lstm.fit_gflops": (flop / 1e9 / fit_s, "GFLOP/s"),
        "lstm.predict_series_s": (total("lstm.predict_series"), "s"),
        "timeseries.window_minmax_scale_s": (total("timeseries.window_minmax_scale"), "s"),
        "timeseries.window_minmax_scale_calls": (count("timeseries.window_minmax_scale"), "count"),
        "timeseries.load_csv_s": (total("timeseries.load_csv"), "s"),
        "timeseries.from_log_returns_s": (total("timeseries.from_log_returns"), "s"),
        "pipeline.run_s": (total("pipeline.run"), "s"),
        "pipeline.self_s": (total("pipeline.run", self_s)
                            + total("pipeline.compare_methods", self_s), "s"),
        "pipeline.percentile_band_s": (total("pipeline.percentile_band"), "s"),
        "pipeline.trained_replicates": (sum(s["attrs"]["trained"] for s in runs), "count"),
        "blocklen.select_block_length_s": (total("blocklen.select_block_length"), "s"),
        "blocklen.distance_s": (total("blocklen.distance", self_s), "s"),
        "blocklen.candidates": (count("blocklen.select_block_length", "candidates"), "count"),
        "bootstrap.batch_resample_select_s": (total("bootstrap.batch_resample_select"), "s"),
        "bootstrap.batch_resample_draw_s": (total("bootstrap.batch_resample_draw"), "s"),
        "bootstrap.draws": (count("bootstrap.batch_resample_select", "draws")
                            + count("bootstrap.batch_resample_draw", "draws"), "count"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.self_s": (self_s[0], "s"),
    }
    for layer in ("timeseries", "blocklen", "bootstrap", "lstm", "pipeline", "cli"):
        metrics[f"{layer}.share"] = (layers.get(layer, 0.0) / root, "share")
    detail = {
        "root_s": root,
        "layer_self_s": layers,
        "run_s_by_method": {s["attrs"]["method"]: s["end"] - s["start"] for s in runs},
        "select_s_by_method": {s["attrs"]["method"]: s["end"] - s["start"] for s in spans
                               if s["name"] == "blocklen.select_block_length"},
        "failed_replicates": sum(s["attrs"]["failed"] for s in runs),
        "attempted_replicates": sum(s["attrs"]["attempted"] for s in runs),
        "spans": len(spans),
    }
    return metrics, detail, problems


def trace_run(run: Run, jobs: int, jobs_n_wall: float) -> tuple[dict, dict]:
    """One untraced and one traced ``--jobs 1`` invocation; per-layer metrics.

    ``pipeline.parallel_speedup`` divides the lone ``--jobs 1`` wall by the
    run's median wall; with several clients that median is taken while they
    share the CPUs, so the ratio also holds the cost of that sharing.
    """
    plain, _ = run.invoke("jobs1", [sys.executable, "-m", "bootband"], 1)
    spans_path = run.work / "spans.json"
    spans_path.unlink(missing_ok=True)
    run_id = f"{run.name}-{run.seed}"
    traced, _ = run.invoke("traced", [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                                      str(spans_path), run_id, "--"], 1)
    if plain.rc or traced.rc:
        return {}, {}
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    metrics, detail, problems = layer_metrics(spans)
    run.problems += [f"trace: {p}" for p in problems]
    overhead = traced.wall_s - plain.wall_s
    if detail["root_s"] > traced.wall_s:
        run.problems.append("trace: root span longer than the traced invocation")
    metrics.update({
        "pipeline.parallel_speedup": (plain.wall_s / jobs_n_wall, "ratio"),
        "pipeline.jobs1_wall_s": (plain.wall_s, "s"),
        "pipeline.jobsN_wall_s": (jobs_n_wall, "s"),
        "pipeline.jobs": (jobs, "count"),
        "trace.root_s": (detail["root_s"], "s"),
        "trace.traced_wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    detail["run_id"] = run_id
    return metrics, detail


def bench(label: str, wl: Workload, seed: int, seconds: float,
          trace: bool) -> tuple[dict, dict, Run]:
    """Measure one workload; returns (metrics as {name: (value, unit)}, report, run)."""
    gbm = load_gbm()
    work = WORK / f"{label}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(label, wl, seed, work, gbm)
    jobs = min(wl.jobs or usable_cpus(), usable_cpus())
    clients = min(wl.clients or usable_cpus(), usable_cpus())

    run.setup_probe()   # untimed: the first import also fills the bytecode cache
    setup, walls, cpus, rss, rates = [], [], [], [], []
    t0 = time.perf_counter()

    def client(k: int) -> None:
        # Set-up probes alternate with invocations so that both sample the
        # whole window; a client stops when its next invocation would mostly
        # overrun it.
        mine: list[float] = []
        while len(mine) < MIN_SAMPLES or time.perf_counter() - t0 + mine[-1] / 2 < seconds:
            setup.append(run.setup_probe(f"setup{k}.log"))
            child, trained = run.invoke(f"inv{k}.{len(mine)}",
                                        [sys.executable, "-m", "bootband"], jobs)
            mine.append(child.wall_s)
            walls.append(child.wall_s)
            cpus.append(child.cpu_s)
            rss.append(child.maxrss_mb)
            rates.append(trained / child.wall_s)

    with ThreadPoolExecutor(clients) as pool:
        list(pool.map(client, range(clients)))
    wall = tail(walls)
    metrics = {
        "wall_s": (wall["median"], "s"),
        "replicates_per_s": (statistics.median(rates), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "trained_replicate_share": ((run.attempted - run.failed) / run.attempted, "share"),
    }
    report = {
        "workload": label, "seed": seed, "jobs": jobs, "clients": clients, "shape": asdict(wl),
        "machine": machine_facts(),
        "wall_s": wall, "cpu_s": tail(cpus), "setup_s": tail(setup),
        "samples": {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss,
                    "replicates_per_s": rates, "setup_s": setup},
        "replicates": {"attempted": run.attempted, "failed": run.failed,
                       "per_invocation": wl.reps * len(wl.methods)},
    }
    if trace:
        metrics, report["trace"] = trace_run(run, jobs, wall["median"])
    report["band_sha256"] = run.hashes
    report["problems"] = run.problems
    return metrics, report, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        metrics, report, run = bench(args.workload, WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace))
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(json.dumps(report, sort_keys=True))
    correct = not run.problems and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
