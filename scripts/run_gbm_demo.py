#!/usr/bin/env python3
"""End-to-end demo on synthetic data: band per method, ranked comparing factors.

Generates a seeded GBM path, runs the three bootstrap strategies at small
settings, and prints the ranked report.  Artifacts land in --output-dir.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# a sibling module: running this file puts its own directory first on sys.path
from make_gbm_csv import gbm, write_price_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="demo_out")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--train-len", type=int, default=200)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--hidden", type=int, default=8)
    ap.add_argument("--seed", type=int, default=99)
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = write_price_csv(out / "gbm.csv", gbm(args.n, args.seed))
    # the child imports bootband from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))

    try:
        subprocess.run(
            [sys.executable, "-m", "bootband", "compare",
             "--input", str(csv_path),
             "--train-len", str(args.train_len),
             "--reps", str(args.reps),
             "--epochs", str(args.epochs),
             "--hidden", str(args.hidden),
             "--seed", str(args.seed),
             "--output-dir", str(out)],
            check=True, env=env,
        )
    except subprocess.CalledProcessError as exc:
        # the child has already printed its one error line; pass its exit code on
        sys.exit(exc.returncode)

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    print("\nranked comparing factors (smaller band = better):")
    for row in report["ranking"]:
        print(f"  {row['method']}: factor={row['comparing_factor']:.4f} "
              f"l_opt={row['l_opt']} coverage={row['coverage']:.3f}")
    print(f"\nartifacts in {out}/ (band_<method>.csv, selector_curve_<method>.csv, report.json)")


if __name__ == "__main__":
    main()
