import json
from pathlib import Path

import numpy as np
import pytest

from bootband.manifest import numeric_platform
from make_gbm_csv import gbm as gbm_prices, write_price_csv

# Platforms the pinned float digests are recorded on, as "<numpy release>/<OpenBLAS
# core>/<numpy's enabled SIMD targets>": numpy 2.4.6 on an AVX-512 x86-64 CPU under
# its default kernel and under OPENBLAS_CORETYPE=Haswell, and under the Haswell kernel
# with numpy's AVX-512 dispatch off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR"), the targets of an x86-64 CPU without AVX-512
_AVX512 = "X86_V3+X86_V4+AVX512_ICL+AVX512_SPR"
SKYLAKEX = f"2.4.6/SkylakeX/{_AVX512}"
HASWELL = f"2.4.6/Haswell/{_AVX512}"
HASWELL_X86_V3 = "2.4.6/Haswell/X86_V3"


def ar1_series(n, phi, seed, sigma=1.0):
    """Seeded AR(1) path with standard-normal innovations."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    x = np.empty(n)
    x[0] = rng.standard_normal() * sigma / np.sqrt(1 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + sigma * rng.standard_normal()
    return x


def pinned_digest(digests):
    """The digest recorded for this platform's float kernels; skips the test where none is."""
    platform = numeric_platform()
    targets = "+".join(platform["simd_targets"]) or "baseline"
    key = f"{platform['numpy']}/{platform['openblas_core']}/{targets}"
    if key not in digests:
        pytest.skip(f"no digest recorded for numpy release, BLAS core and SIMD targets {key}")
    return digests[key]


def digest_id(value):
    """A digest table's test id is its SkylakeX digest; other parameters keep pytest's id."""
    return value[SKYLAKEX] if isinstance(value, dict) else None


@pytest.fixture
def gbm_csv(tmp_path):
    """Factory: a dated CSV of a seeded GBM path."""

    def make(n=120, seed=7, name="prices.csv", **kw):
        return write_price_csv(tmp_path / name, gbm_prices(n, seed, **kw))

    return make


def strip_volatile(tree_dir):
    """Canonical bytes of an artifact tree with run-dependent fields removed.

    Manifests lose their execution block (timings, jobs, creation time).
    Everything else is compared raw.
    """
    out = {}
    for p in sorted(Path(tree_dir).rglob("*")):
        if not p.is_file():
            continue
        rel = p.relative_to(tree_dir).as_posix()
        if p.name == "manifest.json":
            doc = json.loads(p.read_text())
            doc.pop("execution", None)
            out[rel] = json.dumps(doc, sort_keys=True)
        else:
            out[rel] = p.read_bytes()
    return out
