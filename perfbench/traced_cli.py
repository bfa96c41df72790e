#!/usr/bin/env python3
"""Run one ``bootband`` CLI invocation in process, with span recorders on every layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <bootband CLI arguments>

The recorders wrap each layer's public functions at the module attribute its
caller looks up (``bootband.pipeline.fit``, ``bootband.blocklen.batch_resample``,
...), so the program itself is unchanged.  A span holds its name, start, end,
the index of the span that was open when it started, the run id, and counts
derived from the call's arguments or result.  Spans stay in memory and are
written to SPANS_JSON when the invocation ends.  Only ``--jobs 1`` runs nest
properly: calls made inside pool workers are not recorded.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder; ``spans[k]["parent"]`` indexes an earlier span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "run": self.run_id, "attrs": {}})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` recording one span per call; ``attrs(args, result)`` adds counts."""

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            idx = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if attrs is not None:
                self.spans[idx]["attrs"] = attrs(args, result)
            return result

        return recorded


def fit_counts(args, result):
    """Minibatch steps and matmul FLOPs of one ``lstm.fit`` call, computed from shapes.

    Per epoch every training pair goes through one forward pass (4 gate matmuls
    of (b, H) x (H, H) per lookback step: 8*L*H^2 FLOPs per pair) and one
    backward pass (gate-weight and hidden-state gradients: 16*L*H^2), plus the
    inference pass for the epoch RMSE (8*L*H^2); the dense head adds 6*H.
    """
    series, cfg = args[0], args[1]
    pairs = len(series) - cfg.lookback
    hidden, lookback = cfg.hidden_size, cfg.lookback
    return {
        "steps": cfg.epochs * math.ceil(pairs / cfg.batch_size),
        "flop": cfg.epochs * pairs * (32 * lookback * hidden**2 + 6 * hidden),
    }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``bootband`` package."""
    import bootband.blocklen as blocklen
    import bootband.cli as cli
    import bootband.pipeline as pipeline

    def run_counts(args, result):
        return {"method": args[1].method.value, "attempted": args[1].reps,
                "trained": result.band.reps, "failed": len(result.failed_ids)}

    def draw_counts(args, result):
        return {"draws": args[2]}

    targets = [
        (cli, "load_csv", "timeseries.load_csv", None),
        (cli, "run", "pipeline.run", run_counts),
        (cli, "compare_methods", "pipeline.compare_methods", None),
        (pipeline, "run", "pipeline.run", run_counts),
        (pipeline, "select_block_length", "blocklen.select_block_length",
         lambda args, result: {"method": args[1].method.value,
                               "candidates": int(result[1].lengths.size)}),
        (pipeline, "batch_resample", "bootstrap.batch_resample_draw", draw_counts),
        (pipeline, "from_log_returns", "timeseries.from_log_returns", None),
        (pipeline, "window_minmax_scale", "timeseries.window_minmax_scale", None),
        (pipeline, "fit", "lstm.fit", fit_counts),
        (pipeline, "predict_series", "lstm.predict_series",
         lambda args, result: {"windows": int(len(result))}),
        (pipeline, "percentile_band", "pipeline.percentile_band", None),
        (blocklen, "batch_resample", "bootstrap.batch_resample_select", draw_counts),
        (blocklen, "distance", "blocklen.distance", None),
        (pipeline.ConfidenceBand, "to_csv", "cli.write", None),
        (blocklen.SelectorCurve, "to_csv", "cli.write", None),
    ]
    for owner, attr, name, attrs in targets:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    import bootband.cli

    tracer = Tracer(run_id)
    install(tracer)
    root = tracer.start("cli.main")
    try:
        rc = bootband.cli.main(cli_args)
    finally:
        tracer.end(root)
    spans_path.write_text(json.dumps({"run": run_id, "rc": rc, "spans": tracer.spans}),
                          encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
