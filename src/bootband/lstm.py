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
trains on with the others without leaking into them.  :func:`fit` always trains such a group, from a
time-major ``(n, R)`` series and one seed per column; one network is a group
of one.

A fit allocates its step arrays once, in a workspace sized by its first
(widest) minibatch: the states ``h`` and ``c``, the activated gates, stored
gate-major as ``(lookback, 4, R, batch, H)`` so that each gate is one
contiguous block, ``tanh(c)``, the ``(R, batch, 4H)`` pre-activation block
(which backward reuses for d(pre-activation), built gate-major in a block of
its own first), the gradient and Adam's scratch.  The forward pass,
:func:`backward` and the Adam update write into it, and Adam updates
``theta`` and its moments in place.  A shorter last batch uses leading
slices of the same buffers, and each minibatch gathers its windows from a
view of the series.
Called on their own, :func:`loss`, :func:`backward` and :func:`adam_step`
run the same code on a fresh workspace or on copies.

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
# pre-activations, 0.5 MB; a slice's states, gates and scratch take about 3.5
# times that.  At the reference shapes (795 windows, hidden 32) that is one
# row at a time, and a wide hidden-8 group predicts its 100-step test horizon
# in slices of 20 rows, so that its prediction does not peak above its fit.
_INFER_ELEMENTS = 1 << 16


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
        for name in ("lookback", "batch_size", "epochs", "hidden_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
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


class _Workspace:
    """Reusable float64 buffers of a forward, backward and Adam step, one per name.

    :meth:`take` hands out the leading ``prod(shape)`` elements of a buffer as
    a C-contiguous array of that shape, so a smaller step (the short last
    batch, an inference pass's last row slice) reuses the memory of the
    widest one and keeps the strides of a freshly allocated array.  A buffer
    grows only when a request exceeds it; :func:`fit` asks for its widest step
    first.  Contents carry over between requests: callers overwrite or zero
    what they read.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.pop(name, None)
        if buf is None or buf.size < size:
            buf = None  # release the smaller buffer before allocating
            buf = np.empty(size)
        self._buffers[name] = buf
        return buf[:size].reshape(shape)


@dataclass
class ForwardCache:
    """Activations of a batched forward pass, for backprop.

    ``h[t]`` and ``c[t]`` are the states after ``t`` steps (``h[0]`` is zero);
    ``gates[t]`` holds step ``t``'s activated f, i, o and c_tilde gate-major,
    so ``gates[t, k]`` is gate ``k`` over the whole batch.  Every array after
    the time and gate axes has the leading axes of ``theta``.  The arrays live
    in ``ws``, which :func:`backward` takes its own buffers from.
    """

    windows: np.ndarray
    h: np.ndarray
    c: np.ndarray
    gates: np.ndarray
    tanh_c: np.ndarray
    masks: np.ndarray | None
    h_dropped: np.ndarray
    preds: np.ndarray
    ws: _Workspace


def _gate_blocks(block: np.ndarray) -> np.ndarray:
    """The ``(4, ..., H)`` gate-major view of a ``(..., 4H)`` gate-interleaved block."""
    return np.moveaxis(block.reshape(*block.shape[:-1], 4, -1), -2, 0)


def _forward_pass(
    theta: np.ndarray,
    windows: np.ndarray,
    masks: np.ndarray | None,
    keep_cache: bool = True,
    ws: _Workspace | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Unroll the cell over ``(..., batch, lookback)`` windows from zero state.

    ``theta`` is ``(P,)`` or ``(R, P)``; ``windows`` either carries the same
    leading axis or is shared by every row.  Every activation is written into
    ``ws`` (a fresh workspace by default), the returned predictions too.
    Without ``keep_cache`` the states live in two rolling slots and no cache
    is returned.
    """
    W, U, b, dense_w, dense_b = param_views(theta)
    windows = np.asarray(windows, dtype=np.float64)
    ws = _Workspace() if ws is None else ws
    lookback = windows.shape[-1]
    hidden = dense_w.shape[-1]
    shape = (*theta.shape[:-1], windows.shape[-2], hidden)
    slots = lookback if keep_cache else 1
    h = ws.take("h", (slots + 1, *shape))
    c = ws.take("c", (slots + 1, *shape))
    h[0] = c[0] = 0.0
    gates = ws.take("gates", (slots, 4, *shape))
    tanh_c = ws.take("tanh_c", (slots, *shape))
    a = ws.take("pre", (*shape[:-1], 4 * hidden))
    a_gates = _gate_blocks(a)
    fc = ws.take("tmp", shape)
    W, b = W[..., None, :], b[..., None, :]
    new = 0
    for t in range(lookback):
        old, new = (t, t + 1) if keep_cache else (t % 2, (t + 1) % 2)
        g = gates[t if keep_cache else 0]
        if t:
            np.matmul(h[old], U, out=a)
            # the step's gate block holds x * W until the activations overwrite it
            a += np.multiply(windows[..., t, None], W, out=g.reshape(a.shape))
        else:  # h[0] is zero
            np.multiply(windows[..., 0, None], W, out=a)
        a += b
        f, i, o, c_tilde = g
        # logistic sigmoid as 0.5 * tanh(a / 2) + 0.5, which cannot overflow,
        # over the contiguous f, i, o blocks; tanh over the candidate
        sig = g[:3]
        np.multiply(a_gates[:3], 0.5, out=sig)
        np.tanh(sig, out=sig)
        sig *= 0.5
        sig += 0.5
        np.tanh(a_gates[3], out=c_tilde)
        # the f * c[0] term at t = 0 fixes the sign of a zero cell
        np.multiply(i, c_tilde, out=c[new])
        c[new] += np.multiply(f, c[old], out=fc)
        tc = tanh_c[t if keep_cache else 0]
        np.tanh(c[new], out=tc)
        np.multiply(o, tc, out=h[new])
    h_dropped = h[new]
    if masks is not None:
        h_dropped = np.multiply(h_dropped, masks, out=ws.take("h_dropped", shape))
    preds = np.matmul(h_dropped, dense_w[..., None], out=ws.take("head", (*shape[:-1], 1)))[..., 0]
    preds += dense_b[..., None]
    if not keep_cache:
        return preds, None
    cache = ForwardCache(
        windows=windows, h=h, c=c, gates=gates, tanh_c=tanh_c,
        masks=masks, h_dropped=h_dropped, preds=preds, ws=ws,
    )
    return preds, cache


def _infer(theta: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Inference-mode predictions with no BPTT cache, in bounded row slices."""
    group = theta.reshape(-1, theta.shape[-1])
    batch = windows.shape[-2]
    rows = max(1, _INFER_ELEMENTS // (batch * 4 * param_views(group)[3].shape[-1]))
    preds = np.empty((len(group), batch))
    ws = _Workspace()
    for lo in range(0, len(group), rows):
        part = slice(lo, lo + rows)
        preds[part] = _forward_pass(
            group[part], windows if windows.ndim == 2 else windows[part], None,
            keep_cache=False, ws=ws,
        )[0]
    return preds.reshape(*theta.shape[:-1], batch)


def _loss(
    theta: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    masks: np.ndarray | None,
    l2_coeff: float,
    kernel: np.ndarray,
    ws: _Workspace | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Batch loss of each row of ``theta`` and the forward cache its gradient needs.

    ``kernel`` holds the indices of the penalized entries (see :func:`kernel_mask`).
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if targets.shape[-1] == 0:
        raise ValidationError("empty batch")
    preds, cache = _forward_pass(theta, windows, masks, ws=ws)
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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to ``theta``, via BPTT, row by row.

    The gradient goes into ``out`` if given, else into a new array; every
    per-step block comes from the cache's workspace.
    """
    _, U, _, dense_w, _ = param_views(theta)
    grad = np.empty_like(theta) if out is None else out
    grad[...] = 0.0
    gW, gU, gb, gdense_w, gdense_b = param_views(grad)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    batch = targets.shape[-1]
    ws = cache.ws
    shape = cache.h.shape[1:]  # (..., batch, H)
    Ut = U.swapaxes(-1, -2)

    dpred = 2.0 * (cache.preds - targets) / batch
    gdense_w[...] = (cache.h_dropped.swapaxes(-1, -2) @ dpred[..., None])[..., 0]
    gdense_b[...] = dpred.sum(axis=-1)
    dh = np.multiply(dpred[..., None], dense_w[..., None, :], out=ws.take("dh", shape))
    if cache.masks is not None:
        dh *= cache.masks
    dc_carry = ws.take("dc_carry", shape)
    dc_carry[...] = 0.0
    dc, tmp = ws.take("dc", shape), ws.take("tmp", shape)
    # the forward pass's pre-activation block, free once its gates are activated
    da = ws.take("pre", (*shape[:-1], 4 * U.shape[-2]))
    # each gate's d(pre-activation) is built in a contiguous gate-major block
    # and copied into da once per step: a ufunc writing a strided gate view
    # costs more than the copy
    dgates = ws.take("dgates", (4, *shape))
    da_f, da_i, da_o, da_c = dgates
    # gU in two dimensions: an in-place add into the 3-D view would copy it first
    gU_rows = gU.reshape(*gU.shape[:-2], -1)
    dU = ws.take("scratch", gU.shape)

    for t in reversed(range(cache.gates.shape[0])):
        f, i, o, c_tilde = cache.gates[t]
        tanh_c = cache.tanh_c[t]
        # dc = dh * o * (1 - tanh_c**2) + dc_carry
        np.multiply(dh, o, out=dc)
        dc *= np.subtract(1.0, np.square(tanh_c, out=tmp), out=tmp)
        dc += dc_carry
        # da_f = dc * c[t] * f * (1 - f)
        np.multiply(dc, cache.c[t], out=da_f)
        da_f *= f
        da_f *= np.subtract(1.0, f, out=tmp)
        # da_i = dc * c_tilde * i * (1 - i)
        np.multiply(dc, c_tilde, out=da_i)
        da_i *= i
        da_i *= np.subtract(1.0, i, out=tmp)
        # da_o = do * o * (1 - o), where do = dh * tanh_c
        np.multiply(dh, tanh_c, out=da_o)
        da_o *= o
        da_o *= np.subtract(1.0, o, out=tmp)
        # da_c = dc * i * (1 - c_tilde**2)
        np.multiply(dc, i, out=da_c)
        da_c *= np.subtract(1.0, np.square(c_tilde, out=tmp), out=tmp)
        np.copyto(_gate_blocks(da), dgates)
        # the window operand keeps its per-slice strides: a contiguous copy
        # takes another matmul path, with other rounding
        gW += (cache.windows[..., None, :, t] @ da)[..., 0, :]
        gb += da.sum(axis=-2)
        if t:  # h[0] is zero, and nothing reads dh or dc_carry after step 0
            np.matmul(cache.h[t].swapaxes(-1, -2), da, out=dU)
            gU_rows += dU.reshape(gU_rows.shape)
            np.matmul(da, Ut, out=dh)
            np.multiply(dc, f, out=dc_carry)

    if l2_coeff:
        # the penalty covers W and dense_w: see kernel_mask
        W, _, _, dense_w, _ = param_views(theta)
        gW += 2.0 * l2_coeff * W
        gdense_w += 2.0 * l2_coeff * dense_w
    return grad


def _adam_update(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step_index: int,
    scratch: np.ndarray,
    *,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> None:
    """Bias-corrected Adam update of ``theta``, ``m`` and ``v`` in place.

    ``grad`` and ``scratch``, arrays of ``theta``'s shape, are overwritten.
    ``step_index`` is 1-based.
    """
    if step_index < 1:
        raise ValidationError("step_index is 1-based")
    # m = beta1 * m + (1 - beta1) * grad
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=scratch)
    # v = beta2 * v + (1 - beta2) * grad * grad
    g2 = np.multiply(grad, 1.0 - beta2, out=scratch)
    g2 *= grad
    v *= beta2
    v += g2
    # theta -= lr * m_hat / (sqrt(v_hat) + eps), the step built in grad's buffer
    step = np.divide(m, 1.0 - beta1**step_index, out=grad)
    step *= lr
    denom = np.divide(v, 1.0 - beta2**step_index, out=scratch)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    theta -= step


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
    """Bias-corrected Adam update; returns the new (theta, m, v).  ``step_index`` is 1-based.

    The arguments are left as they were: the update runs on copies.
    """
    theta, grad, m, v = (np.array(x, dtype=np.float64) for x in (theta, grad, m, v))
    _adam_update(theta, grad, m, v, step_index, np.empty_like(theta),
                 lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    return theta, m, v


@dataclass
class LstmModel:
    """A trained network, or a group of them: ``(P,)`` or ``(R, P)`` weights and their config."""

    theta: np.ndarray
    cfg: TrainConfig


def make_windows(series: np.ndarray, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    """Slide a lookback window over the series: (windows, next values).

    A time-major ``(n, R)`` series gives ``(R, n - lookback, lookback)``
    windows and ``(R, n - lookback)`` next values, one row per column.  Both
    are read-only views of the series: the windows are not copied.
    """
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= lookback:
        raise ValidationError(f"series length {len(series)} must exceed lookback {lookback}")
    rows = series.T
    windows = np.lib.stride_tricks.sliding_window_view(rows, lookback, axis=-1)[..., :-1, :]
    return windows, rows[..., lookback:]


def fit(series, cfg: TrainConfig, seeds, *, epoch_rmse: bool = False):
    """Train ``R`` networks in lockstep on a time-major ``(n, R)`` scaled series.

    Column ``r`` trains from ``seeds[r]``; the config's ``seed`` is not read.
    Returns ``(model, rmse, diverged)``: ``model.theta`` is ``(R, P)`` and
    ``diverged`` maps each row whose batch loss turned non-finite to its
    first such batch, ``non-finite loss at epoch E, batch B``.  That row
    trains on with the group, and its weights end NaN; the fit stops early
    only once every row has diverged.  ``rmse`` is ``None`` unless
    ``epoch_rmse`` is set; then it is ``(R, epochs)``, the training RMSE in
    scaled space computed in inference mode after each epoch (all NaN for a
    diverged row).  That pass writes only ``rmse``, so the weights are the
    same either way.  Every row ends bit-identical to the same column and
    seed trained as a group of one.
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
    ws = _Workspace()  # the first batch is the widest step
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    rows = np.arange(n_rows)[:, None]
    diverged: dict[int, str] = {}
    rmse = np.full((n_rows, cfg.epochs), np.nan) if epoch_rmse else None
    step = 0
    # a diverged row keeps training on non-finite numbers until the fit ends,
    # isolated from its mates, so its floating-point warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = np.stack([rng.permutation(n_pairs) for rng in rngs])
            ep_targets = np.take_along_axis(targets, order, axis=1)
            ep_kept = None
            if cfg.dropout_rate > 0:
                # one draw per epoch yields the doubles of one draw per batch
                draws = np.empty((n_pairs, hidden))
                ep_kept = np.empty((n_rows, n_pairs, hidden), dtype=bool)
                for rng, kept in zip(rngs, ep_kept):
                    np.greater_equal(rng.random(out=draws), cfg.dropout_rate, out=kept)
            for b, start in enumerate(range(0, n_pairs, cfg.batch_size)):
                batch = slice(start, start + cfg.batch_size)
                masks = None
                if ep_kept is not None:
                    kept = ep_kept[:, batch]
                    masks = np.divide(kept, 1.0 - cfg.dropout_rate,
                                      out=ws.take("masks", kept.shape))
                # each batch gathers its own windows: no (R, pairs, lookback) copy
                batch_loss, cache = _loss(
                    theta, windows[rows, order[:, batch]], ep_targets[:, batch], masks,
                    cfg.l2_coeff, kernel, ws,
                )
                for row in np.flatnonzero(~np.isfinite(batch_loss)).tolist():
                    diverged.setdefault(row, f"non-finite loss at epoch {epoch}, batch {b}")
                if len(diverged) == n_rows:
                    break
                grad = backward(theta, ep_targets[:, batch], cache, cfg.l2_coeff,
                                out=ws.take("grad", theta.shape))
                step += 1
                _adam_update(
                    theta, grad, m, v, step, ws.take("scratch", theta.shape),
                    lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
                )
            if len(diverged) == n_rows:
                break
            if epoch_rmse:
                preds = _infer(theta, windows)
                rmse[:, epoch] = np.sqrt(np.mean((preds - targets) ** 2, axis=-1))
    failed = list(diverged)
    theta[failed] = np.nan
    if epoch_rmse:
        rmse[failed] = np.nan
    return LstmModel(theta=theta, cfg=cfg), rmse, diverged


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
