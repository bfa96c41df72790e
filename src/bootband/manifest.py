"""Run manifests: enough resolved state to reproduce every artifact bit-exactly.

The ``config`` block (plus the input file) fully determines the outputs;
the ``execution`` block holds volatile facts (timings, job count, the BLAS
thread variables, creation time) that vary run to run without affecting any
artifact.  :func:`timed` is the one stage timer: the pipeline and the CLI
both record wall-clock seconds per stage with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import _BLAS_THREAD_VARS, __version__


@contextmanager
def timed(sink: dict, name: str):
    """Record the wall-clock seconds of the ``with`` body as ``sink[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        sink[name] = time.perf_counter() - t0


def sha256_of(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    input_path: str | None
    input_sha256: str | None
    seed: int
    tool_version: str = __version__
    timings: dict = field(default_factory=dict)
    jobs: int = 1

    def write(self, path: str | Path) -> None:
        doc = {
            "command": self.command,
            "config": self.config,
            "input_path": self.input_path,
            "input_sha256": self.input_sha256,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "execution": {
                "jobs": self.jobs,
                "timings_seconds": self.timings,
                "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
                "created_utc": datetime.now(timezone.utc).isoformat(),
            },
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
