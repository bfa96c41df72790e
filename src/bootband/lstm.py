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
trains on with the others without leaking into them.  :func:`fit` always
trains such a group, from a time-major ``(n, R)`` series and one seed per
column; one network is a group of one.

A fit allocates its step arrays once, in a workspace sized by its first
(widest) minibatch: the gradient and Adam's scratch, the minibatch's
windows and dropout masks, the states ``h`` and ``c``, the activated gates,
stored gate-major as ``(lookback, 4, R, batch, H)`` so that each gate is one
contiguous block (one multiply first fills every step's block with
``x * W``), ``tanh(c)`` and the ``(R, batch, 4H)`` pre-activation block
(which backward reuses for d(pre-activation), built gate-major in a block
of its own first).  On them it builds one training step per batch width, at
most two: the full batch and a shorter last one, whose buffers are leading
slices of the same memory.  The step holds every view it reads or writes:
the parameter and gradient views, the gate blocks and the per-timestep
tuples of the forward and backward loops.  A minibatch then only gathers
its windows from a view of the series into the step's buffer; the step's
loss (forward pass, squared error and penalty), its backward pass and the
Adam update run on the step, and Adam updates ``theta`` and its moments in
place.  Prediction and the epoch-end RMSE run inference steps, which keep
no states for a backward pass.  The module functions :func:`loss` and
:func:`_forward_pass` build a training step on a fresh workspace and run
its loss or its forward pass, and :func:`backward` runs the backward pass
on the step :func:`_forward_pass` returned: they evaluate the objective
and its gradient at one point, and the tests replay :func:`fit` through
them one minibatch at a time.

During training an inverted-dropout mask is applied to the final hidden
state only, and an L2 penalty is applied to the input kernels and dense
weights (not the recurrent matrices or biases).  All arithmetic is float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
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


class _Workspace:
    """Reusable float64 buffers of a forward, backward and Adam step, one per name.

    :meth:`take` hands out the leading ``prod(shape)`` elements of a buffer as
    a C-contiguous array of that shape, so a smaller step (the short last
    batch, an inference pass's last row slice) reuses the memory of the
    widest one and keeps the strides of a freshly allocated array.  A buffer
    grows only when a request exceeds it; :func:`fit` builds the step of its
    widest batch first.  Contents carry over between requests: callers
    overwrite or zero what they read.
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


def _gate_blocks(block: np.ndarray) -> np.ndarray:
    """The ``(4, ..., H)`` gate-major view of a ``(..., 4H)`` gate-interleaved block."""
    return np.moveaxis(block.reshape(*block.shape[:-1], 4, -1), -2, 0)


class _Step:
    """Every view that one step over one batch width reads or writes.

    Built from ``theta``, the step's ``(..., batch, lookback)`` windows, its
    dropout masks (or ``None``) and a workspace, it holds the parameter views,
    the activation buffers and the per-timestep tuples of the forward loop.
    ``h[t]`` and ``c[t]`` are the states after ``t`` steps (``h[0]`` is zero);
    ``gates[t]`` holds step ``t``'s activated f, i, o and c_tilde gate-major,
    so ``gates[t, k]`` is gate ``k`` over the whole batch.  Every array after
    the time and gate axes has the leading axes of ``theta``.  The windows
    and masks are read where they are, not copied.

    A training step (the default) first takes its gradient ``grad`` and
    Adam's ``scratch``, arrays of ``theta``'s shape, from the workspace; it
    keeps every step's states for :meth:`backward` and also holds ``diff``
    (``preds - targets``), the gradient views and the backward buffers with
    their per-timestep tuples.  It owns the training objective: :meth:`loss`
    runs the forward pass and returns the squared error plus the L2 penalty,
    and :meth:`backward` returns its gradient; the weights that penalty
    covers are named once, here.  An inference step (``train=False``) keeps
    the states in two rolling slots and only runs :meth:`forward`.
    """

    def __init__(self, theta, windows, masks, ws, *, train=True):
        W, U, b, dense_w, dense_b = param_views(theta)
        lead, (batch, lookback) = theta.shape[:-1], windows.shape[-2:]
        hidden = dense_w.shape[-1]
        shape = (*lead, batch, hidden)
        self.windows, self.masks = windows, masks
        if train:
            self.grad = ws.take("grad", theta.shape)
            # Adam's scratch before the backward's dU, a smaller view of its buffer
            self.scratch = ws.take("scratch", theta.shape)
        slots = lookback if train else 1
        self.h = ws.take("h", (slots + 1, *shape))
        self.c = ws.take("c", (slots + 1, *shape))
        self.gates = ws.take("gates", (slots, 4, *shape))
        self.tanh_c = ws.take("tanh_c", (slots, *shape))
        self._a = ws.take("pre", (*shape[:-1], 4 * hidden))
        a_gates = _gate_blocks(self._a)
        self._a_sig, self._a_cand = a_gates[:3], a_gates[3]
        self._fc = ws.take("tmp", shape)
        self._U, self._W, self._b = U, W[..., None, :], b[..., None, :]
        # each step's gate block holds x * W until its activations overwrite it
        xw = self.gates.reshape(slots, *self._a.shape)
        self._xw_all = self._x_all = None
        if train:  # one multiply for every step
            self._xw_all = xw
            self._x_all = np.moveaxis(np.broadcast_to(windows, (*lead, batch, lookback)), -1, 0)[..., None]
        # one view per slot, shared by the per-timestep tuples; a gate slot is
        # (f, i, o block, f, i, o, c_tilde)
        h, c, tanh_c, xw = (tuple(arr) for arr in (self.h, self.c, self.tanh_c, xw))
        gates = [(g[:3], *g) for g in self.gates]
        forward_steps = []
        for t in range(lookback):
            old, new = (t, t + 1) if train else (t % 2, (t + 1) % 2)
            slot = t if train else 0
            x = None if train else windows[..., t, None]
            forward_steps.append((x, xw[slot], h[old], c[old], *gates[slot], c[new], tanh_c[slot], h[new]))
        self._forward_steps = tuple(forward_steps)
        self._h_last = h[new]
        self.h_dropped = self._h_last if masks is None else ws.take("h_dropped", shape)
        self._head = ws.take("head", (*shape[:-1], 1))
        self.preds = self._head[..., 0]
        self._dense_w_col, self._dense_b_col = dense_w[..., None], dense_b[..., None]
        if not train:
            return

        # preds - targets, which the loss and the backward pass both read
        self.diff = ws.take("diff", self.preds.shape)
        gW, gU, gb, gdense_w, gdense_b = param_views(self.grad)
        self._gW, self._gb, self._gdense_w, self._gdense_b = gW, gb, gdense_w, gdense_b
        # gU in two dimensions: an in-place add into the 3-D view would copy it first
        self._gU_rows = gU.reshape(*gU.shape[:-2], -1)
        self._dU = ws.take("scratch", gU.shape)
        self._dU_rows = self._dU.reshape(self._gU_rows.shape)
        self._Ut, self._dense_w_row = U.swapaxes(-1, -2), dense_w[..., None, :]
        # the weights the L2 penalty covers, W and dense_w, with their gradients
        self._kernel_views = (W, gW), (dense_w, gdense_w)
        self._h_dropped_T = self.h_dropped.swapaxes(-1, -2)
        # dpred = 2 (preds - targets) / batch, built in diff's buffer
        self._dpred_col = self.diff[..., None]
        self._dh, self._dc_carry, self._dc = (ws.take(name, shape) for name in ("dh", "dc_carry", "dc"))
        # each gate's d(pre-activation) is built in a contiguous gate-major block
        # and copied into the pre-activation block once per step: a ufunc
        # writing a strided gate view costs more than the copy
        self._dgates = ws.take("dgates", (4, *shape))
        self._da_gates = a_gates
        # until that copy, the pre-activation block's memory is free: it holds
        # 1 - f, 1 - i and 1 - o
        self._one_minus = self._a.reshape(-1)[: 3 * math.prod(shape)].reshape(3, *shape)
        # the window operand keeps its per-slice strides: a contiguous copy
        # takes another matmul path, with other rounding
        self._backward_steps = tuple(
            (windows[..., None, :, t], *gates[t], tanh_c[t], c[t],
             h[t].swapaxes(-1, -2) if t else None)
            for t in reversed(range(lookback))
        )

    def forward(self) -> np.ndarray:
        """Unroll the cell over the windows from zero state; returns ``preds``."""
        a, U, W, b, fc = self._a, self._U, self._W, self._b, self._fc
        a_sig, a_cand = self._a_sig, self._a_cand
        self.h[0] = self.c[0] = 0.0
        if self._x_all is not None:
            np.multiply(self._x_all, W, out=self._xw_all)
        for t, (x, xw, h_old, c_old, sig, f, i, o, c_tilde, c_new, tc, h_new) in enumerate(
            self._forward_steps
        ):
            if x is not None:
                np.multiply(x, W, out=xw)
            if t:
                np.matmul(h_old, U, out=a)
                a += xw
                a += b
            else:  # h[0] is zero
                np.add(xw, b, out=a)
            # logistic sigmoid as 0.5 * tanh(a / 2) + 0.5, which cannot overflow,
            # over the contiguous f, i, o blocks; tanh over the candidate
            np.multiply(a_sig, 0.5, out=sig)
            np.tanh(sig, out=sig)
            sig *= 0.5
            sig += 0.5
            np.tanh(a_cand, out=c_tilde)
            # the f * c[0] term at t = 0 fixes the sign of a zero cell
            np.multiply(i, c_tilde, out=c_new)
            c_new += np.multiply(f, c_old, out=fc)
            np.tanh(c_new, out=tc)
            np.multiply(o, tc, out=h_new)
        if self.masks is not None:
            np.multiply(self._h_last, self.masks, out=self.h_dropped)
        np.matmul(self.h_dropped, self._dense_w_col, out=self._head)
        self.preds += self._dense_b_col
        return self.preds

    def backward(self, l2_coeff: float) -> np.ndarray:
        """Exact gradient into ``grad`` via BPTT, row by row, from the last forward pass and ``diff``."""
        grad, dh, dc, tmp, dc_carry = self.grad, self._dh, self._dc, self._fc, self._dc_carry
        dgates, da, da_gates, one_minus = self._dgates, self._a, self._da_gates, self._one_minus
        da_f, da_i, da_o, da_c = dgates
        dg_sig = dgates[:3]
        gW, gb, gU_rows, dU, dU_rows, Ut = (
            self._gW, self._gb, self._gU_rows, self._dU, self._dU_rows, self._Ut
        )
        grad[...] = 0.0
        dpred = np.multiply(self.diff, 2.0, out=self.diff)
        dpred /= self.windows.shape[-2]
        self._gdense_w[...] = (self._h_dropped_T @ self._dpred_col)[..., 0]
        self._gdense_b[...] = dpred.sum(axis=-1)
        np.multiply(self._dpred_col, self._dense_w_row, out=dh)
        if self.masks is not None:
            dh *= self.masks
        dc_carry[...] = 0.0

        for x, sig, f, i, o, c_tilde, tanh_c, c_t, h_t in self._backward_steps:
            # dc = dh * o * (1 - tanh_c**2) + dc_carry
            np.multiply(dh, o, out=dc)
            dc *= np.subtract(1.0, np.square(tanh_c, out=tmp), out=tmp)
            dc += dc_carry
            # da_f = dc * c[t] * f * (1 - f), da_i = dc * c_tilde * i * (1 - i) and
            # da_o = do * o * (1 - o), where do = dh * tanh_c: the three sigmoid
            # factors are applied to the contiguous f, i, o blocks at once
            np.multiply(dc, c_t, out=da_f)
            np.multiply(dc, c_tilde, out=da_i)
            np.multiply(dh, tanh_c, out=da_o)
            dg_sig *= sig
            dg_sig *= np.subtract(1.0, sig, out=one_minus)
            # da_c = dc * i * (1 - c_tilde**2)
            np.multiply(dc, i, out=da_c)
            da_c *= np.subtract(1.0, np.square(c_tilde, out=tmp), out=tmp)
            np.copyto(da_gates, dgates)
            gW += (x @ da)[..., 0, :]
            gb += da.sum(axis=-2)
            if h_t is not None:  # h[0] is zero, and nothing reads dh or dc_carry after step 0
                np.matmul(h_t, da, out=dU)
                gU_rows += dU_rows
                np.matmul(da, Ut, out=dh)
                np.multiply(dc, f, out=dc_carry)

        if l2_coeff:
            for weights, g in self._kernel_views:
                g += 2.0 * l2_coeff * weights
        return grad

    def loss(self, targets: np.ndarray, l2_coeff: float) -> np.ndarray:
        """Run the forward pass and fill ``diff``; returns the batch loss of each row."""
        diff = np.subtract(self.forward(), targets, out=self.diff)
        value = np.mean(diff ** 2, axis=-1)
        if l2_coeff:
            # W then dense_w in one array, summed in the order of their place in theta
            kernels = np.concatenate([weights for weights, _ in self._kernel_views], axis=-1)
            value = value + l2_coeff * np.sum(kernels ** 2, axis=-1)
        return value


def _forward_pass(theta: np.ndarray, windows: np.ndarray, masks: np.ndarray | None) -> _Step:
    """Unroll the cell over ``(..., batch, lookback)`` windows from zero state.

    ``theta`` is ``(P,)`` or ``(R, P)``; ``windows`` either carries the same
    leading axis or is shared by every row.  Returns the training step, on a
    fresh workspace, that ran the pass: ``step.preds`` holds the predictions,
    and :func:`backward` reads the step's states.
    """
    step = _Step(theta, np.asarray(windows, dtype=np.float64), masks, _Workspace())
    step.forward()
    return step


def _infer(theta: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Inference-mode predictions with no BPTT cache, in bounded row slices."""
    group = theta.reshape(-1, theta.shape[-1])
    batch = windows.shape[-2]
    rows = max(1, _INFER_ELEMENTS // (batch * 4 * param_views(group)[3].shape[-1]))
    preds = np.empty((len(group), batch))
    ws = _Workspace()
    for lo in range(0, len(group), rows):
        part = slice(lo, lo + rows)
        part_windows = windows if windows.ndim == 2 else windows[part]
        preds[part] = _Step(group[part], part_windows, None, ws, train=False).forward()
    return preds.reshape(*theta.shape[:-1], batch)


def loss(
    theta: np.ndarray,
    windows: np.ndarray,
    targets: np.ndarray,
    l2_coeff: float = 0.0,
    masks: np.ndarray | None = None,
) -> float | np.ndarray:
    """Mean squared error plus the kernel L2 penalty: a float, or one per row of an ``(R, P)`` ``theta``."""
    if np.shape(targets)[-1:] == (0,):
        raise ValidationError("empty batch")
    value = _Step(theta, np.asarray(windows, dtype=np.float64), masks, _Workspace()).loss(targets, l2_coeff)
    return float(value) if value.ndim == 0 else value


def backward(targets: np.ndarray, step: _Step, l2_coeff: float) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to the step's ``theta``, via BPTT, row by row.

    ``step`` is the training step :func:`_forward_pass` returned; the backward
    pass runs on it, and a copy of its gradient is returned.
    """
    np.subtract(step.preds, targets, out=step.diff)
    return step.backward(l2_coeff).copy()


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
    # one step per batch width, the full one first, so that the short last
    # batch's buffers are leading slices of the full one's
    ws = _Workspace()
    steps: dict[int, _Step] = {}
    for width in (min(cfg.batch_size, n_pairs), (n_pairs - 1) % cfg.batch_size + 1):
        if width not in steps:
            masks = ws.take("masks", (n_rows, width, hidden)) if cfg.dropout_rate > 0 else None
            steps[width] = _Step(theta, ws.take("windows", (n_rows, width, cfg.lookback)), masks, ws)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    rows = np.arange(n_rows)[:, None]
    diverged: dict[int, str] = {}
    rmse = np.full((n_rows, cfg.epochs), np.nan) if epoch_rmse else None
    n_steps = 0
    # a diverged row keeps training on non-finite numbers until the fit ends,
    # isolated from its mates, so its floating-point warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = np.stack([rng.permutation(n_pairs) for rng in rngs])
            ep_targets = np.take_along_axis(targets, order, axis=1)
            ep_kept = None
            if cfg.dropout_rate > 0:
                # one draw per epoch yields the doubles of one draw per batch
                ep_kept = np.empty((n_rows, n_pairs, hidden), dtype=bool)
                for rng, kept in zip(rngs, ep_kept):
                    np.greater_equal(rng.random(kept.shape), cfg.dropout_rate, out=kept)
            for b, start in enumerate(range(0, n_pairs, cfg.batch_size)):
                batch = slice(start, start + cfg.batch_size)
                step = steps[min(cfg.batch_size, n_pairs - start)]
                # each batch gathers its own windows: no (R, pairs, lookback) copy
                step.windows[...] = windows[rows, order[:, batch]]
                if ep_kept is not None:
                    np.divide(ep_kept[:, batch], 1.0 - cfg.dropout_rate, out=step.masks)
                finite = np.isfinite(step.loss(ep_targets[:, batch], cfg.l2_coeff))
                if not finite.all():
                    for row in np.flatnonzero(~finite).tolist():
                        diverged.setdefault(row, f"non-finite loss at epoch {epoch}, batch {b}")
                    if len(diverged) == n_rows:
                        break
                step.backward(cfg.l2_coeff)
                n_steps += 1
                _adam_update(
                    theta, step.grad, m, v, n_steps, step.scratch,
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
    A group model gives one row of predictions per network.  The last bits
    of a prediction can depend on how many windows one call holds, because
    BLAS tiles the batch: predicting two position sets in one call need not
    match predicting each in its own call.
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
    windows = np.lib.stride_tricks.sliding_window_view(context, lookback)[positions - lookback]
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


def _json_is(value, kind: str) -> bool:
    """Whether a JSON value is an integer (``kind`` ``"int"``) or a number (``"float"``); a bool is neither."""
    return not isinstance(value, bool) and isinstance(value, int if kind == "int" else (int, float))


def load_model(path: str | Path) -> LstmModel:
    """Read a model written by :func:`save_model`.

    A file that is not one raises :class:`ValidationError` naming the file
    and the key at fault.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: not a JSON object")
    if doc.get("format") != MODEL_FORMAT or doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValidationError(f"{path}: not a version-{MODEL_FORMAT_VERSION} {MODEL_FORMAT} file")
    for key in ("config", "params"):
        if not isinstance(doc.get(key), dict):
            raise ValidationError(f"{path}: no {key!r} object")
    config, params = doc["config"], doc["params"]
    odd = sorted(config.keys() ^ {f.name for f in fields(TrainConfig)})
    if odd:
        kind = "unknown" if odd[0] in config else "missing"
        raise ValidationError(f"{path}: {kind} config key {odd[0]!r}")
    for f in fields(TrainConfig):
        if not _json_is(config[f.name], f.type):
            kind = "an integer" if f.type == "int" else "a number"
            raise ValidationError(f"{path}: config key {f.name!r} must be {kind}, got {config[f.name]!r}")
    try:
        cfg = TrainConfig(**config)
    except ValidationError as exc:
        raise ValidationError(f"{path}: config {exc}") from None
    # every axis of every field has length hidden_size, so the fields are checked
    # against a hidden-size-1 layout before theta is allocated
    for name, unit in _named_views(np.zeros(param_count(1))).items():
        entry = params.get(name)
        if not (isinstance(entry, dict) and {"shape", "data"} <= entry.keys()):
            raise ValidationError(f"{path}: params has no field {name!r} with a shape and data")
        shape, data, expected = entry["shape"], entry["data"], [cfg.hidden_size] * unit.ndim
        if not (isinstance(shape, list) and all(_json_is(n, "int") for n in shape) and shape == expected):
            raise ValidationError(f"{path}: field {name} has shape {shape!r}, expected {expected}")
        size = math.prod(expected)
        if not (isinstance(data, list) and len(data) == size and all(_json_is(x, "float") for x in data)):
            raise ValidationError(f"{path}: field {name} data is not a list of {size} numbers")
    theta = np.zeros(param_count(cfg.hidden_size))
    for name, view in _named_views(theta).items():
        view[...] = np.array(params[name]["data"], dtype=np.float64).reshape(view.shape)
    return LstmModel(theta=theta, cfg=cfg)
