"""Single-layer LSTM regressor with a scalar dense head, trained by Adam.

The model maps a lookback window of scaled scalars to the next scaled value.
Gates follow the standard formulation: forget/input/output gates through a
logistic sigmoid, candidate cell state through tanh, new cell state
``i * c_tilde + f * c_prev``, hidden state ``o * tanh(c)``.  Gradients are
computed analytically by backpropagation through time (the test suite checks
them against central finite differences).

All weights of one network live in one float64 vector ``theta`` of length
``P``.  :func:`param_views` cuts it into the input kernel ``W (4H,)``, the
recurrent matrix ``U (H, 4H)``, the bias ``b (4H,)`` and the dense head
``dense_w (H,)``, ``dense_b ()``.  The four gates sit side by side in the
order f, i, o, c, so column block ``k`` of ``U`` is gate ``k``'s recurrent
matrix transposed and one step costs one ``h @ U`` matmul.  Gradients and
Adam moments are vectors of the same layout.  ``model.json`` stores the
per-gate named fields of :data:`PARAM_NAMES`.

A group of ``R`` networks trained side by side is a ``(R, P)`` matrix, one
row per network; every view, activation and gradient then carries that
leading axis (``U`` is ``(R, H, 4H)``, a minibatch of windows is
``(R, batch, lookback)``).  Each product is one stacked ``np.matmul`` and
every other operation works row by row, so a row's numbers are bit-identical
to those of the same network trained alone, and a row that turns non-finite
cannot leak into the others.  :func:`fit` always trains such a group, from a
time-major ``(n, R)`` series and one seed per column; one network is a group
of one.

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
from .errors import ValidationError

# model.json field names; u_<gate> is that gate's (H, H) recurrent matrix
PARAM_NAMES = (
    "w_f", "w_i", "w_o", "w_c",
    "u_f", "u_i", "u_o", "u_c",
    "b_f", "b_i", "b_o", "b_c",
    "dense_w", "dense_b",
)

MODEL_FORMAT = "bootband-lstm"
MODEL_FORMAT_VERSION = 1

# Inference passes (prediction, and the epoch-end RMSE of fit(epoch_rmse=True))
# keep no BPTT cache and run in row slices of at most this many (window, gate)
# pre-activations, about 1 MB: at the reference shapes (795 windows, hidden 32)
# one row at a time.
_INFER_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (defaults follow the reference experiment).

    :func:`fit` does not read ``seed``: it takes one seed per network.  The
    ``train`` command passes ``[seed]`` for its one network, and the pipeline
    derives each replicate's seed from ``seed``.
    """

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
        # written so that NaN fails every check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.l2_coeff) and self.l2_coeff >= 0):
            raise ValidationError(f"l2_coeff must be finite and >= 0, got {self.l2_coeff}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValidationError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ValidationError(f"eps must be > 0, got {self.eps}")


def param_count(hidden_size: int) -> int:
    """Length of ``theta``: W, U, b, dense_w and dense_b."""
    return 4 * hidden_size * hidden_size + 9 * hidden_size + 1


def param_views(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views ``(W, U, b, dense_w, dense_b)`` into a ``(P,)`` or ``(R, P)`` parameter array.

    The views keep any leading axes of ``theta``.
    """
    # param_count(H) = P  <=>  16 P + 65 = (8 H + 9) ** 2
    size = theta.shape[-1]
    hidden = (math.isqrt(16 * size + 65) - 9) // 8
    if hidden < 1 or param_count(hidden) != size:
        raise ValidationError(f"{size} is not an LSTM parameter count")
    g = 4 * hidden
    u_end = g + hidden * g
    return (
        theta[..., :g],
        theta[..., g:u_end].reshape(*theta.shape[:-1], hidden, g),
        theta[..., u_end : u_end + g],
        theta[..., u_end + g : -1],
        theta[..., -1],
    )


def _named_views(theta: np.ndarray) -> dict[str, np.ndarray]:
    """Writable views of a ``(P,)`` ``theta`` under the model.json field names."""
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
    Every array after the time axis has the leading axes of ``theta``.
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
    theta: np.ndarray, windows: np.ndarray, masks: np.ndarray | None, keep_cache: bool = True
) -> tuple[np.ndarray, ForwardCache | None]:
    """Unroll the cell over ``(..., batch, lookback)`` windows from zero state.

    ``theta`` is ``(P,)`` or ``(R, P)``; ``windows`` either carries the same
    leading axis or is shared by every row.  Without ``keep_cache`` the states
    live in two rolling slots and no cache is returned.
    """
    W, U, b, dense_w, dense_b = param_views(theta)
    windows = np.asarray(windows, dtype=np.float64)
    lookback = windows.shape[-1]
    hidden = dense_w.shape[-1]
    shape = (*theta.shape[:-1], windows.shape[-2])
    s = 3 * hidden  # the sigmoid gates f, i, o precede the tanh candidate
    slots = lookback if keep_cache else 1
    h = np.zeros((slots + 1, *shape, hidden))
    c = np.zeros((slots + 1, *shape, hidden))
    gates = np.empty((slots, *shape, 4 * hidden))
    tanh_c = np.empty((slots, *shape, hidden))
    W, b = W[..., None, :], b[..., None, :]
    new = 0
    for t in range(lookback):
        old, new = (t, t + 1) if keep_cache else (t % 2, (t + 1) % 2)
        # in place: each (batch, 4H) temporary adds to the peak memory of a fit
        if t:
            a = h[old] @ U
            a += windows[..., t, None] * W
        else:  # h[0] is zero
            a = windows[..., 0, None] * W
        a += b
        g = gates[t if keep_cache else 0]
        # logistic sigmoid as 0.5 * tanh(a / 2) + 0.5, which cannot overflow,
        # over the whole contiguous block (cheaper than over the strided f, i,
        # o columns); then the candidate columns are overwritten with tanh
        np.multiply(a, 0.5, out=g)
        np.tanh(g, out=g)
        g *= 0.5
        g += 0.5
        np.tanh(a[..., s:], out=g[..., s:])
        c[new] = g[..., hidden : 2 * hidden] * g[..., s:] + g[..., :hidden] * c[old]
        tc = tanh_c[t if keep_cache else 0]
        np.tanh(c[new], out=tc)
        h[new] = g[..., 2 * hidden : s] * tc
    h_dropped = h[new] if masks is None else h[new] * masks
    preds = (h_dropped @ dense_w[..., None])[..., 0] + dense_b[..., None]
    if not keep_cache:
        return preds, None
    cache = ForwardCache(
        windows=windows, h=h, c=c, gates=gates, tanh_c=tanh_c,
        masks=masks, h_dropped=h_dropped, preds=preds,
    )
    return preds, cache


def _infer(theta: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Inference-mode predictions with no BPTT cache, in bounded row slices."""
    group = theta.reshape(-1, theta.shape[-1])
    batch = windows.shape[-2]
    rows = max(1, _INFER_ELEMENTS // (batch * 4 * param_views(group)[3].shape[-1]))
    preds = np.empty((len(group), batch))
    for lo in range(0, len(group), rows):
        part = slice(lo, lo + rows)
        preds[part] = _forward_pass(
            group[part], windows if windows.ndim == 2 else windows[part], None, keep_cache=False
        )[0]
    return preds.reshape(*theta.shape[:-1], batch)


def _loss(
    theta: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    masks: np.ndarray | None,
    l2_coeff: float,
    kernel: np.ndarray,
) -> tuple[np.ndarray, ForwardCache]:
    """Batch loss of each row of ``theta`` and the forward cache its gradient needs.

    ``kernel`` holds the indices of the penalized entries (see :func:`kernel_mask`).
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if targets.shape[-1] == 0:
        raise ValidationError("empty batch")
    preds, cache = _forward_pass(theta, windows, masks)
    value = np.mean((preds - targets) ** 2, axis=-1)
    if l2_coeff:
        value = value + l2_coeff * np.sum(np.take(theta, kernel, axis=-1) ** 2, axis=-1)
    return value, cache


def loss(
    theta: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    l2_coeff: float = 0.0,
    masks: np.ndarray | None = None,
) -> float:
    """Mean squared error plus the kernel L2 penalty."""
    kernel = np.flatnonzero(kernel_mask(param_views(theta)[3].size))
    return float(_loss(theta, windows, targets, masks, l2_coeff, kernel)[0])


def backward(
    theta: np.ndarray,
    targets: np.ndarray,
    cache: ForwardCache,
    l2_coeff: float,
) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to ``theta``, via BPTT, row by row."""
    _, U, _, dense_w, _ = param_views(theta)
    grad = np.zeros_like(theta)
    gW, gU, gb, gdense_w, gdense_b = param_views(grad)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    batch = targets.shape[-1]
    hidden = dense_w.shape[-1]
    s = 3 * hidden
    Ut = U.swapaxes(-1, -2)

    dpred = 2.0 * (cache.preds - targets) / batch
    gdense_w[...] = (cache.h_dropped.swapaxes(-1, -2) @ dpred[..., None])[..., 0]
    gdense_b[...] = dpred.sum(axis=-1)
    dh = dpred[..., None] * dense_w[..., None, :]
    if cache.masks is not None:
        dh = dh * cache.masks
    dc_carry = np.zeros(dh.shape)
    da = np.empty((*dh.shape[:-1], 4 * hidden))

    for t in reversed(range(cache.gates.shape[0])):
        g = cache.gates[t]
        f, i = g[..., :hidden], g[..., hidden : 2 * hidden]
        o, c_tilde = g[..., 2 * hidden : s], g[..., s:]
        tanh_c = cache.tanh_c[t]
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_carry
        da[..., :hidden] = dc * cache.c[t] * f * (1.0 - f)
        da[..., hidden : 2 * hidden] = dc * c_tilde * i * (1.0 - i)
        da[..., 2 * hidden : s] = do * o * (1.0 - o)
        da[..., s:] = dc * i * (1.0 - c_tilde**2)
        gW += (cache.windows[..., None, :, t] @ da)[..., 0, :]
        gb += da.sum(axis=-2)
        if t:  # h[0] is zero, and nothing reads dh or dc_carry after step 0
            gU += cache.h[t].swapaxes(-1, -2) @ da
            dh = da @ Ut
            dc_carry = dc * f

    if l2_coeff:
        # the penalty covers W and dense_w: see kernel_mask
        W, _, _, dense_w, _ = param_views(theta)
        gW += 2.0 * l2_coeff * W
        gdense_w += 2.0 * l2_coeff * dense_w
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
    # theta - lr * m_hat / (sqrt(v_hat) + eps), with as few temporaries as
    # the same rounding allows: a group's moments are (R, P) matrices
    m = beta1 * m
    m += (1.0 - beta1) * grad
    g2 = (1.0 - beta2) * grad
    g2 *= grad
    v = beta2 * v
    v += g2
    step = m / (1.0 - beta1**step_index)
    step *= lr
    denom = np.divide(v, 1.0 - beta2**step_index, out=g2)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    return theta - step, m, v


@dataclass
class LstmModel:
    """A trained network, or a group of them: ``(P,)`` or ``(R, P)`` weights and their config."""

    theta: np.ndarray
    cfg: TrainConfig


def make_windows(series: np.ndarray, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    """Slide a lookback window over the series: (windows, next values).

    A time-major ``(n, R)`` series gives ``(R, n - lookback, lookback)``
    windows and ``(R, n - lookback)`` next values, one row per column.
    """
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= lookback:
        raise ValidationError(f"series length {len(series)} must exceed lookback {lookback}")
    rows = series.T
    windows = np.lib.stride_tricks.sliding_window_view(rows, lookback, axis=-1)[..., :-1, :]
    return np.ascontiguousarray(windows), rows[..., lookback:]


def fit(series, cfg: TrainConfig, seeds, *, epoch_rmse: bool = False):
    """Train ``R`` networks in lockstep on a time-major ``(n, R)`` scaled series.

    Column ``r`` trains from ``seeds[r]``; the config's ``seed`` is not read.
    Returns ``(model, rmse, diverged)``: ``model.theta`` is ``(R, P)`` and
    ``diverged`` maps each row whose batch loss turned non-finite to its
    cause, ``non-finite loss at epoch E, batch B``.  That row's weights are
    NaN, and it stops training without touching the other rows.  ``rmse`` is
    ``None`` unless ``epoch_rmse`` is set; then it is ``(R, epochs)``, the
    training RMSE in scaled space computed in inference mode after each
    epoch (NaN for a diverged row).  That pass writes only ``rmse``, so the
    weights are the same either way.  Every row ends bit-identical to the
    same column and seed trained as a group of one.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValidationError(f"fit takes a time-major (n, R) series, got shape {series.shape}")
    windows, targets = make_windows(series, cfg.lookback)
    seeds = tuple(seeds)
    if len(seeds) != len(windows):
        raise ValidationError(f"{len(windows)} series columns need as many seeds, got {len(seeds)}")
    n_rows, n_pairs = targets.shape
    hidden = cfg.hidden_size
    # each row draws from its own stream in a group of one's order: the
    # initial weights, then per epoch one permutation and (with dropout) the masks
    rngs = [substream(seed, 0) for seed in seeds]
    theta = np.stack([init_params(hidden, rng) for rng in rngs])
    kernel = np.flatnonzero(kernel_mask(hidden))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    live = np.arange(n_rows)  # group rows still training, in order
    diverged: dict[int, str] = {}
    rmse = np.full((n_rows, cfg.epochs), np.nan) if epoch_rmse else None
    step = 0
    # a diverging row overflows on its way to a non-finite loss, which
    # np.isfinite catches below, so its floating-point warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = np.stack([rng.permutation(n_pairs) for rng in rngs])
            ep_windows = windows[np.arange(len(live))[:, None], order]
            ep_targets = np.take_along_axis(targets, order, axis=1)
            ep_kept = None
            if cfg.dropout_rate > 0:
                # one draw per epoch yields the doubles of one draw per batch
                draws = np.empty((n_pairs, hidden))
                ep_kept = np.empty((len(live), n_pairs, hidden), dtype=bool)
                for rng, kept in zip(rngs, ep_kept):
                    np.greater_equal(rng.random(out=draws), cfg.dropout_rate, out=kept)
            for b, start in enumerate(range(0, n_pairs, cfg.batch_size)):
                batch = slice(start, start + cfg.batch_size)
                while live.size:  # until every live row has a finite loss
                    masks = None if ep_kept is None else ep_kept[:, batch] / (1.0 - cfg.dropout_rate)
                    batch_loss, cache = _loss(
                        theta, ep_windows[:, batch], ep_targets[:, batch], masks, cfg.l2_coeff, kernel
                    )
                    bad = ~np.isfinite(batch_loss)
                    if not bad.any():
                        break
                    for row in live[bad]:
                        diverged[int(row)] = f"non-finite loss at epoch {epoch}, batch {b}"
                    # drop the failed rows; the others' numbers do not change
                    ok = ~bad
                    live = live[ok]
                    rngs = [rng for rng, k in zip(rngs, ok) if k]
                    theta, m, v, windows, targets, ep_windows, ep_targets = (
                        x[ok] for x in (theta, m, v, windows, targets, ep_windows, ep_targets)
                    )
                    if ep_kept is not None:
                        ep_kept = ep_kept[ok]
                if not live.size:
                    break
                grad = backward(theta, ep_targets[:, batch], cache, cfg.l2_coeff)
                del cache  # free before Adam's temporaries and the next forward pass
                step += 1
                theta, m, v = adam_step(
                    theta, grad, m, v, step,
                    lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
                )
                del grad
            if not live.size:
                break
            if epoch_rmse:
                preds = _infer(theta, windows)
                rmse[live, epoch] = np.sqrt(np.mean((preds - targets) ** 2, axis=-1))
    weights = np.full((n_rows, theta.shape[-1]), np.nan)
    weights[live] = theta
    return LstmModel(theta=weights, cfg=cfg), rmse, diverged


def predict_series(model: LstmModel, context, positions) -> np.ndarray:
    """One-step-ahead predictions at the given positions of ``context``.

    Each position ``p`` is predicted from the actual history
    ``context[p - lookback : p]`` (no recursion); inference mode, no dropout.
    A group model gives one row of predictions per network.
    """
    context = np.asarray(context, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.intp)
    if positions.size == 0:
        return np.empty((*model.theta.shape[:-1], 0))
    lookback = model.cfg.lookback
    if positions.min() < lookback or positions.max() > context.size:
        raise ValidationError(
            f"positions must lie in [{lookback}, {context.size}] to have full history"
        )
    windows = np.stack([context[p - lookback : p] for p in positions])
    return _infer(model.theta, windows)


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
