"""Run manifests: enough resolved state to reproduce every artifact bit-exactly.

The ``config`` block (plus the input file) fully determines the outputs;
the ``execution`` block holds volatile facts (timings, job count, the BLAS
thread variables, creation time) that vary run to run without affecting any
artifact, and the :func:`numeric_platform`: two runs' bytes agree only where
their platforms match.  :func:`timed` is the one stage timer: the pipeline
and the CLI both record wall-clock seconds per stage with it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

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


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as indented, key-sorted UTF-8 JSON: manifests and reports alike."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs on this CPU, or ``None`` without that library."""
    root = Path(np.__file__).parent
    # a wheel bundles it in numpy.libs beside the package, or in .dylibs inside it
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def numeric_platform() -> dict:
    """The facts that pick the float kernels: numpy release, OpenBLAS core, enabled SIMD targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "openblas_core": _openblas_core(),
        "simd_targets": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    }


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
                "platform": numeric_platform(),
                "created_utc": datetime.now(timezone.utc).isoformat(),
            },
        }
        write_json(path, doc)
