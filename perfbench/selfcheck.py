#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at tiny sizes (about ten seconds).

Usage, from the repository root:  python3 perfbench/selfcheck.py

It shows that
* ``BENCHMARK.json`` names exactly the workloads ``run.py`` defines;
* a tiny workload passes every correctness check, traced and untraced, and
  reports exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* a band file with ``lower`` and ``upper`` swapped fails the band check;
* a band file with one changed byte fails the output-identity check;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.
Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench_run  # noqa: E402

TINY = bench_run.Workload(
    "compare", n=120, train_len=90, reps=2, jobs=1,
    flags=("--hidden", "2", "--epochs", "1", "--selector-reps", "5", "--scale-window", "30"),
)


def declared(section: str) -> dict[str, str]:
    """``{name: unit}`` of a BENCHMARK.json section (``unit`` is absent for workloads)."""
    doc = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m.get("unit") for m in doc[section]}


def check_metrics(trace: bool, failures: list[str]) -> bench_run.Run:
    metrics, report, run = bench_run.bench("selfcheck", TINY, seed=3, seconds=0.0, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    got = {name: unit for name, (_, unit) in metrics.items()}
    if run.problems:
        failures.append(f"trace={int(trace)}: checks failed on a correct run: {run.problems}")
    if got != declared(section):
        failures.append(f"trace={int(trace)}: metrics {sorted(got.items())} differ from "
                        f"BENCHMARK.json {section} {sorted(declared(section).items())}")
    if not report["band_sha256"]:
        failures.append(f"trace={int(trace)}: no band hash recorded")
    return run


def mutate_bands(run: bench_run.Run, failures: list[str]) -> None:
    good = run.work / "inv0.0"
    report = json.loads((good / "report.json").read_text(encoding="utf-8"))
    row = next(r for r in report["ranking"] if r["method"] == "nbb")
    test_dates, actual = run.dates[TINY.train_len:], run.prices[TINY.train_len:]
    band = good / "band_nbb.csv"
    if bench_run.check_band(band, test_dates, actual, row):
        failures.append("the unmodified band file fails the band check")

    lines = band.read_text(encoding="utf-8").splitlines(keepends=True)
    swapped = run.work / "swapped.csv"
    with open(swapped, "w", encoding="utf-8") as fh:
        fh.write(lines[0])
        for line in lines[1:]:
            d, lo, med, hi, act = line.rstrip("\r\n").split(",")
            fh.write(",".join((d, hi, med, lo, act)) + "\r\n")
    if not bench_run.check_band(swapped, test_dates, actual, row):
        failures.append("a band with lower and upper swapped passes the band check")

    changed = run.work / "changed"
    shutil.rmtree(changed, ignore_errors=True)
    shutil.copytree(good, changed)
    # Change the last digit of the first row's median: the band stays valid,
    # so only the identity check can notice.
    fields = lines[1].split(",")
    pos = len(lines[0]) + len(",".join(fields[:3])) - 1
    data = bytearray((changed / "band_nbb.csv").read_bytes())
    data[pos] = ord("0") + (data[pos] - ord("0") + 1) % 10
    (changed / "band_nbb.csv").write_bytes(bytes(data))
    before = len(run.problems)
    _, _, hashes, problems = bench_run.check_outputs(TINY, changed, run.dates, run.prices)
    run.record_hashes("changed", hashes)
    if problems or len(run.problems) == before:
        failures.append(f"one changed byte: band check {problems}, identity check "
                        f"{run.problems[before:]}")


def bare_directory_fails(failures: list[str]) -> None:
    bare = bench_run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", bare)
    for path in Path(__file__).resolve().parent.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    failures: list[str] = []
    if set(declared("workloads")) != set(bench_run.WORKLOADS):
        failures.append(f"workloads {sorted(bench_run.WORKLOADS)} differ from BENCHMARK.json")
    check_metrics(trace=True, failures=failures)
    run = check_metrics(trace=False, failures=failures)
    mutate_bands(run, failures)
    bare_directory_fails(failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selfcheck:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
