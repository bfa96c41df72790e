#!/usr/bin/env python3
"""Write a seeded geometric-Brownian-motion price CSV for demos and smoke runs."""

import argparse
import csv
from datetime import date, timedelta

import numpy as np

# gbm and write_price_csv are the one synthetic-price source: the benchmark
# harness, the tests and the demo all draw and write prices with them.


def gbm(n, seed, p0=100.0, mu=0.05, sigma=0.2, dt=1 / 252):
    """Geometric Brownian motion path of ``n`` prices, seeded and reproducible."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    z = rng.standard_normal(n - 1)
    steps = (mu - 0.5 * sigma**2) * dt + sigma * np.sqrt(dt) * z
    prices = np.empty(n)
    prices[0] = p0
    prices[1:] = p0 * np.exp(np.cumsum(steps))
    return prices


def write_price_csv(path, values, start=date(2020, 1, 1), column="Close"):
    """Write ``values`` as a ``Date,<column>`` CSV, one calendar day per row from ``start``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["Date", column])
        for k, v in enumerate(values):
            w.writerow([(start + timedelta(days=k)).isoformat(), repr(float(v))])
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gbm.csv")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--p0", type=float, default=100.0)
    ap.add_argument("--mu", type=float, default=0.05)
    ap.add_argument("--sigma", type=float, default=0.2)
    args = ap.parse_args()
    if args.n < 2:
        # no bootband command accepts fewer than two prices
        ap.error(f"--n must be at least 2, got {args.n}")

    write_price_csv(args.out, gbm(args.n, args.seed, args.p0, args.mu, args.sigma))
    print(f"wrote {args.n} prices to {args.out} (seed {args.seed})")


if __name__ == "__main__":
    main()
