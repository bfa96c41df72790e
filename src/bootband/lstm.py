"""Single-layer LSTM regressor with a scalar dense head, trained by Adam.

The model maps a lookback window of scaled scalars to the next scaled value.
Gates follow the standard formulation: forget/input/output gates through a
logistic sigmoid, candidate cell state through tanh, new cell state
``i * c_tilde + f * c_prev``, hidden state ``o * tanh(c)``.  Gradients are
computed analytically by backpropagation through time (the test suite checks
them against central finite differences).

All weights live in one float64 vector ``theta``.  :func:`param_views` cuts
it into the input kernel ``W (4H,)``, the recurrent matrix ``U (H, 4H)``, the
bias ``b (4H,)`` and the dense head ``dense_w (H,)``, ``dense_b ()``.  The
four gates sit side by side in the order f, i, o, c, so column block ``k`` of
``U`` is gate ``k``'s recurrent matrix transposed and one step costs one
``h @ U`` matmul.  Gradients and Adam moments are vectors of the same layout.
``model.json`` stores the per-gate named fields of :data:`PARAM_NAMES`.

During training an inverted-dropout mask is applied to the final hidden
state only, and an L2 penalty is applied to the input kernels and dense
weights (not the recurrent matrices or biases).  All arithmetic is float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .errors import DivergenceError, ValidationError

# model.json field names; u_<gate> is that gate's (H, H) recurrent matrix
PARAM_NAMES = (
    "w_f", "w_i", "w_o", "w_c",
    "u_f", "u_i", "u_o", "u_c",
    "b_f", "b_i", "b_o", "b_c",
    "dense_w", "dense_b",
)

MODEL_FORMAT = "bootband-lstm"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (defaults follow the reference experiment)."""

    lookback: int = 5
    batch_size: int = 15
    epochs: int = 19
    dropout_rate: float = 0.2
    l2_coeff: float = 1e-4
    hidden_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if min(self.lookback, self.batch_size, self.epochs, self.hidden_size) < 1:
            raise ValidationError("lookback, batch_size, epochs, hidden_size must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ValidationError("dropout_rate must lie in [0, 1)")
        if self.l2_coeff < 0:
            raise ValidationError("l2_coeff must be >= 0")


def param_count(hidden_size: int) -> int:
    """Length of ``theta``: W, U, b, dense_w and dense_b."""
    return 4 * hidden_size * hidden_size + 9 * hidden_size + 1


def param_views(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views ``(W, U, b, dense_w, dense_b)`` into a flat parameter vector."""
    # param_count(H) = P  <=>  16 P + 65 = (8 H + 9) ** 2
    hidden = (math.isqrt(16 * theta.size + 65) - 9) // 8
    if hidden < 1 or param_count(hidden) != theta.size:
        raise ValidationError(f"{theta.size} is not an LSTM parameter count")
    g = 4 * hidden
    u_end = g + hidden * g
    return (
        theta[:g],
        theta[g:u_end].reshape(hidden, g),
        theta[u_end : u_end + g],
        theta[u_end + g : -1],
        theta[-1:].reshape(()),
    )


def _named_views(theta: np.ndarray) -> dict[str, np.ndarray]:
    """Writable views of ``theta`` under the model.json field names."""
    W, U, b, dense_w, dense_b = param_views(theta)
    hidden = dense_w.size
    named = {"dense_w": dense_w, "dense_b": dense_b}
    for k, gate in enumerate("fioc"):
        cols = slice(k * hidden, (k + 1) * hidden)
        named[f"w_{gate}"], named[f"u_{gate}"], named[f"b_{gate}"] = W[cols], U[:, cols].T, b[cols]
    return {name: named[name] for name in PARAM_NAMES}


def init_params(hidden_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform(+-1/sqrt(hidden)) matrices, zero biases, forget-gate bias +1."""
    bound = 1.0 / np.sqrt(hidden_size)
    theta = np.zeros(param_count(hidden_size))
    named = _named_views(theta)
    # draw order w_f..w_c, u_f..u_c, dense_w fixes every seeded model
    for name in (*PARAM_NAMES[:8], "dense_w"):
        named[name][...] = rng.uniform(-bound, bound, size=named[name].shape)
    named["b_f"][...] = 1.0
    return theta


def kernel_mask(hidden_size: int) -> np.ndarray:
    """True on the entries the L2 penalty applies to: W and dense_w."""
    mask = np.zeros(param_count(hidden_size), dtype=bool)
    W, _, _, dense_w, _ = param_views(mask)
    W[:] = dense_w[:] = True
    return mask


@dataclass
class ForwardCache:
    """Activations of a batched forward pass, for backprop.

    ``h[t]`` and ``c[t]`` are the states after ``t`` steps (``h[0]`` is zero);
    ``gates[t]`` holds step ``t``'s activated f, i, o and c_tilde side by side.
    """

    windows: np.ndarray
    h: np.ndarray
    c: np.ndarray
    gates: np.ndarray
    tanh_c: np.ndarray
    masks: np.ndarray | None
    h_dropped: np.ndarray
    preds: np.ndarray


def _forward_pass(
    theta: np.ndarray, windows: np.ndarray, masks: np.ndarray | None
) -> tuple[np.ndarray, ForwardCache]:
    """Unroll the cell over a (batch, lookback) window matrix from zero state."""
    W, U, b, dense_w, dense_b = param_views(theta)
    windows = np.asarray(windows, dtype=np.float64)
    batch, lookback = windows.shape
    hidden = dense_w.size
    s = 3 * hidden  # the sigmoid gates f, i, o precede the tanh candidate
    h = np.zeros((lookback + 1, batch, hidden))
    c = np.zeros((lookback + 1, batch, hidden))
    gates = np.empty((lookback, batch, 4 * hidden))
    tanh_c = np.empty((lookback, batch, hidden))
    for t in range(lookback):
        # in place: the epoch-end pass runs every window as one batch, and
        # each (batch, 4H) temporary adds to the peak memory of a fit
        a = h[t] @ U
        a += windows[:, t, None] * W
        a += b
        g = gates[t]
        # logistic sigmoid as 0.5 * tanh(a / 2) + 0.5, which cannot overflow
        sig = np.multiply(a[:, :s], 0.5, out=g[:, :s])
        np.tanh(sig, out=sig)
        sig *= 0.5
        sig += 0.5
        np.tanh(a[:, s:], out=g[:, s:])
        c[t + 1] = g[:, hidden : 2 * hidden] * g[:, s:] + g[:, :hidden] * c[t]
        tanh_c[t] = np.tanh(c[t + 1])
        h[t + 1] = g[:, 2 * hidden : s] * tanh_c[t]
    h_dropped = h[lookback] if masks is None else h[lookback] * masks
    preds = h_dropped @ dense_w + dense_b
    cache = ForwardCache(
        windows=windows, h=h, c=c, gates=gates, tanh_c=tanh_c,
        masks=masks, h_dropped=h_dropped, preds=preds,
    )
    return preds, cache


def _loss(
    theta: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    masks: np.ndarray | None,
    l2_coeff: float,
    kernel: np.ndarray,
) -> tuple[float, ForwardCache]:
    """Batch loss and the forward cache its gradient needs."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if targets.size == 0:
        raise ValidationError("empty batch")
    preds, cache = _forward_pass(theta, windows, masks)
    value = float(np.mean((preds - targets) ** 2))
    if l2_coeff:
        value += l2_coeff * float(np.sum(theta[kernel] ** 2))
    return value, cache


def loss(
    theta: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    l2_coeff: float = 0.0,
    masks: np.ndarray | None = None,
) -> float:
    """Mean squared error plus the kernel L2 penalty."""
    kernel = kernel_mask(param_views(theta)[3].size)
    return _loss(theta, windows, targets, masks, l2_coeff, kernel)[0]


def backward(
    theta: np.ndarray,
    targets: np.ndarray,
    cache: ForwardCache,
    l2_coeff: float,
    kernel: np.ndarray,
) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to ``theta``, via BPTT."""
    _, U, _, dense_w, _ = param_views(theta)
    grad = np.zeros_like(theta)
    gW, gU, gb, gdense_w, gdense_b = param_views(grad)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    batch = targets.size
    hidden = dense_w.size
    s = 3 * hidden

    dpred = 2.0 * (cache.preds - targets) / batch
    gdense_w[:] = cache.h_dropped.T @ dpred
    gdense_b[...] = dpred.sum()
    dh = dpred[:, None] * dense_w
    if cache.masks is not None:
        dh = dh * cache.masks
    dc_carry = np.zeros((batch, hidden))
    da = np.empty((batch, 4 * hidden))

    for t in reversed(range(cache.gates.shape[0])):
        g = cache.gates[t]
        f, i, o, c_tilde = g[:, :hidden], g[:, hidden : 2 * hidden], g[:, 2 * hidden : s], g[:, s:]
        tanh_c = cache.tanh_c[t]
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_carry
        da[:, :hidden] = dc * cache.c[t] * f * (1.0 - f)
        da[:, hidden : 2 * hidden] = dc * c_tilde * i * (1.0 - i)
        da[:, 2 * hidden : s] = do * o * (1.0 - o)
        da[:, s:] = dc * i * (1.0 - c_tilde**2)
        gW += cache.windows[:, t] @ da
        gU += cache.h[t].T @ da
        gb += da.sum(axis=0)
        dh = da @ U.T
        dc_carry = dc * f

    if l2_coeff:
        grad[kernel] += 2.0 * l2_coeff * theta[kernel]
    return grad


def adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step_index: int,
    *,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias-corrected Adam update; returns the new (theta, m, v).  ``step_index`` is 1-based."""
    if step_index < 1:
        raise ValidationError("step_index is 1-based")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step_index)
    v_hat = v / (1.0 - beta2**step_index)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


@dataclass
class LstmModel:
    """A trained network: the flat weights and the config that produced them."""

    theta: np.ndarray
    cfg: TrainConfig


def make_windows(series: np.ndarray, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    """Slide a lookback window over the series: (windows, next values)."""
    series = np.asarray(series, dtype=np.float64)
    if series.size <= lookback:
        raise ValidationError(f"series length {series.size} must exceed lookback {lookback}")
    windows = np.lib.stride_tricks.sliding_window_view(series, lookback)[:-1]
    return np.ascontiguousarray(windows), series[lookback:]


def fit(series, cfg: TrainConfig) -> tuple[LstmModel, list[float]]:
    """Train on a scaled series; returns the model and per-epoch training RMSE
    (scaled space, computed in inference mode after each epoch)."""
    series = np.asarray(series, dtype=np.float64)
    windows, targets = make_windows(series, cfg.lookback)
    n_pairs = targets.size
    rng = substream(cfg.seed, 0)
    theta = init_params(cfg.hidden_size, rng)
    kernel = kernel_mask(cfg.hidden_size)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    rmse_trace: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_pairs)
        for b, start in enumerate(range(0, n_pairs, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            w, y = windows[idx], targets[idx]
            masks = None
            if cfg.dropout_rate > 0:
                keep = rng.random((idx.size, cfg.hidden_size)) >= cfg.dropout_rate
                masks = keep / (1.0 - cfg.dropout_rate)
            batch_loss, cache = _loss(theta, w, y, masks, cfg.l2_coeff, kernel)
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {b}", epoch=epoch, batch=b
                )
            grad = backward(theta, y, cache, cfg.l2_coeff, kernel)
            step += 1
            theta, m, v = adam_step(
                theta, grad, m, v, step,
                lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
            )
        epoch_preds = _forward_pass(theta, windows, None)[0]  # drop the cache at once
        rmse_trace.append(float(np.sqrt(np.mean((epoch_preds - targets) ** 2))))
    return LstmModel(theta=theta, cfg=cfg), rmse_trace


def predict_series(model: LstmModel, context, positions) -> np.ndarray:
    """One-step-ahead predictions at the given positions of ``context``.

    Each position ``p`` is predicted from the actual history
    ``context[p - lookback : p]`` (no recursion); inference mode, no dropout.
    """
    context = np.asarray(context, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.intp)
    if positions.size == 0:
        return np.empty(0)
    lookback = model.cfg.lookback
    if positions.min() < lookback or positions.max() > context.size:
        raise ValidationError(
            f"positions must lie in [{lookback}, {context.size}] to have full history"
        )
    windows = np.stack([context[p - lookback : p] for p in positions])
    preds, _ = _forward_pass(model.theta, windows, None)
    return preds


def save_model(model: LstmModel, path: str | Path) -> None:
    """Write weights as a versioned JSON document (shape + row-major values per field)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "config": asdict(model.cfg),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in _named_views(model.theta).items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> LstmModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != MODEL_FORMAT or doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValidationError(f"{path}: not a version-{MODEL_FORMAT_VERSION} {MODEL_FORMAT} file")
    cfg = TrainConfig(**doc["config"])
    theta = np.zeros(param_count(cfg.hidden_size))
    for name, view in _named_views(theta).items():
        entry = doc["params"][name]
        data = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if data.shape != view.shape:
            raise ValidationError(f"{path}: field {name} has shape {data.shape}, expected {view.shape}")
        view[...] = data
    return LstmModel(theta=theta, cfg=cfg)
