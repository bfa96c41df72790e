"""Bootstrap confidence bands for univariate LSTM price forecasts."""

import os

# One BLAS thread per process, set before any submodule loads numpy (and with
# it BLAS).  The largest matmul here is (batch, hidden) x (hidden, 4 * hidden),
# too small for BLAS threads to pay off, and ``--jobs`` worker processes are
# the unit of parallelism: forked workers inherit this BLAS and would
# otherwise oversubscribe the CPUs.  A value already in the environment wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .blocklen import SelectorConfig, SelectorCurve, select_block_length
from .bootstrap import (
    BlockPlan,
    BootstrapMethod,
    PseudoSeries,
    batch_resample,
    resample,
)
from .lstm import LstmModel, TrainConfig, fit, predict_series
from .pipeline import (
    ConfidenceBand,
    MethodComparison,
    PipelineConfig,
    PipelineResult,
    compare_methods,
    percentile_band,
    run,
)
from .timeseries import (
    LogReturnSeries,
    PriceSeries,
    WindowScale,
    from_log_returns,
    load_csv,
    to_log_returns,
    window_minmax_scale,
)

__all__ = [
    "BlockPlan",
    "BootstrapMethod",
    "ConfidenceBand",
    "LogReturnSeries",
    "LstmModel",
    "MethodComparison",
    "PipelineConfig",
    "PipelineResult",
    "PriceSeries",
    "PseudoSeries",
    "SelectorConfig",
    "SelectorCurve",
    "TrainConfig",
    "WindowScale",
    "batch_resample",
    "compare_methods",
    "fit",
    "from_log_returns",
    "load_csv",
    "percentile_band",
    "predict_series",
    "resample",
    "run",
    "select_block_length",
    "to_log_returns",
    "window_minmax_scale",
]
