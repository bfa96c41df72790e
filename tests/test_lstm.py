import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootband._rng import substream
from bootband.errors import ValidationError
from bootband.lstm import (
    LstmModel,
    TrainConfig,
    adam_step,
    backward,
    fit,
    init_params,
    kernel_mask,
    load_model,
    loss,
    make_windows,
    param_count,
    param_views,
    predict_series,
    save_model,
    _forward_pass,
)


def zero_params(hidden, dense_b=0.0):
    theta = np.zeros(param_count(hidden))
    param_views(theta)[4][...] = dense_b
    return theta


def random_params(hidden, seed):
    return init_params(hidden, substream(seed, 0))


def gate_slices(cache, t):
    """Activated (f, i, o, c_tilde) of step ``t`` from a forward cache."""
    return tuple(cache.gates[t])


def numeric_gradients(theta, windows, targets, l2, masks, step=1e-5):
    """Central finite differences of the loss, one parameter entry at a time."""
    grads = np.zeros_like(theta)
    for j in range(theta.size):
        def perturbed(delta):
            shifted = theta.copy()
            shifted[j] += delta
            return loss(shifted, windows, targets, l2, masks)

        grads[j] = (perturbed(step) - perturbed(-step)) / (2 * step)
    return grads


def assert_gates_open_and_h_bounded(cache):
    for t in range(cache.gates.shape[0]):
        for gate in gate_slices(cache, t)[:3]:
            assert np.all((gate > 0) & (gate < 1))
    assert np.all(np.abs(cache.h) <= 1.0)


class TestCellStep:
    """Single-cell behaviour, read off the batched forward pass at lookback 1 and 4."""

    def test_zero_params_half_gates(self):
        for lookback in (1, 4):
            _, cache = _forward_pass(zero_params(3), np.full((2, lookback), 0.7), None)
            for t in range(lookback):
                f, i, o, c_tilde = gate_slices(cache, t)
                assert np.array_equal(f, np.full((2, 3), 0.5))
                assert np.array_equal(i, np.full((2, 3), 0.5))
                assert np.array_equal(o, np.full((2, 3), 0.5))
                assert np.array_equal(c_tilde, np.zeros((2, 3)))
            assert np.array_equal(cache.c, np.zeros((lookback + 1, 2, 3)))
            assert np.array_equal(cache.h, np.zeros((lookback + 1, 2, 3)))

    def test_zero_params_carries_half_cell(self):
        # only the candidate's input kernel is nonzero, so the first input
        # loads tanh(x0) / 2 into the cell; after it every gate is 1/2 and the
        # zero inputs add nothing, so the cell halves at each of the 1 or 4
        # carrying steps
        theta = zero_params(2)
        param_views(theta)[0][6:] = 1.0
        x0 = np.array([0.8, -0.4])
        v = 0.5 * np.tanh(x0)[:, None] * np.ones(2)
        for carries in (1, 4):
            windows = np.zeros((2, carries + 1))
            windows[:, 0] = x0
            _, cache = _forward_pass(theta, windows, None)
            assert np.allclose(cache.c[1], v, rtol=0, atol=1e-15)
            for t in range(1, carries + 1):
                assert np.allclose(cache.c[t + 1], 0.5 * cache.c[t], rtol=0, atol=1e-15)
                assert np.allclose(
                    cache.h[t + 1], 0.5 * np.tanh(0.5 * cache.c[t]), rtol=0, atol=1e-15
                )
            assert np.allclose(cache.c[-1], 0.5**carries * v, rtol=0, atol=1e-15)

    def test_scalar_chain_all_ones(self):
        # hidden=1, every weight 1, biases 0, x=1, zero state: evaluate the
        # gate equations with plain math calls as the oracle
        theta = np.ones(param_count(1))
        _, _, b, _, dense_b = param_views(theta)
        b[:] = 0.0
        dense_b[...] = 0.0

        def sig(a):
            return 1.0 / (1.0 + math.exp(-a))

        for lookback in (1, 4):
            _, cache = _forward_pass(theta, np.ones((1, lookback)), None)
            h = c = 0.0
            for t in range(lookback):
                a = 1.0 + h
                c = sig(a) * math.tanh(a) + sig(a) * c
                h = sig(a) * math.tanh(c)
                f, _, _, _ = gate_slices(cache, t)
                assert f[0, 0] == pytest.approx(sig(a), abs=1e-15)
                assert cache.c[t + 1, 0, 0] == pytest.approx(c, abs=1e-15)
                assert cache.h[t + 1, 0, 0] == pytest.approx(h, abs=1e-15)

    def test_gate_ranges_and_h_bound(self):
        theta = random_params(4, seed=5)
        for lookback in (1, 4):
            windows = substream(6, 0).uniform(-3, 3, size=(20, lookback))
            _, cache = _forward_pass(theta, windows, None)
            assert_gates_open_and_h_bounded(cache)


class TestForward:
    def test_zero_params_predicts_bias(self):
        pred, _ = _forward_pass(zero_params(3, dense_b=0.37), np.array([[0.1, 0.5, 0.9]]), None)
        assert pred[0] == 0.37

    def test_all_ones_mask_is_identity(self):
        theta = random_params(5, seed=1)
        windows = np.linspace(0, 1, 4)[None, :]
        plain, _ = _forward_pass(theta, windows, None)
        masked, _ = _forward_pass(theta, windows, np.ones((1, 5)))
        assert np.array_equal(plain, masked)

    def test_inference_deterministic(self):
        theta = random_params(4, seed=2)
        windows = np.array([[0.2, 0.4, 0.6]])
        assert np.array_equal(_forward_pass(theta, windows, None)[0], _forward_pass(theta, windows, None)[0])


class TestLoss:
    def test_exact_predictions_zero_loss(self):
        windows = np.zeros((4, 3))
        targets = np.full(4, 0.6)
        assert loss(zero_params(2, dense_b=0.6), windows, targets, 0.0) == 0.0

    def test_constant_predictor_loss(self):
        targets = np.full(3, 0.5)
        assert loss(zero_params(2), np.zeros((3, 2)), targets, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_matches_naive_scalar_evaluation(self):
        # hidden=1: the gate blocks are single columns in the order f, i, o, c;
        # replay the equations with plain floats
        theta = np.empty(param_count(1))
        W, U, b, dense_w, dense_b = param_views(theta)
        W[:] = [0.3, -0.2, 0.5, 0.1]
        U[:] = [[0.4, 0.6, -0.3, 0.2]]
        b[:] = [0.05, -0.1, 0.2, 0.0]
        dense_w[:] = [1.5]
        dense_b[...] = 0.25
        window = [0.3, 0.7]
        target = 0.4
        l2 = 1e-3

        def sig(a):
            return 1.0 / (1.0 + math.exp(-a))

        h = c = 0.0
        for x in window:
            f = sig(0.3 * x + 0.4 * h + 0.05)
            i = sig(-0.2 * x + 0.6 * h - 0.1)
            o = sig(0.5 * x - 0.3 * h + 0.2)
            ct = math.tanh(0.1 * x + 0.2 * h + 0.0)
            c = i * ct + f * c
            h = o * math.tanh(c)
        pred = 1.5 * h + 0.25
        expected = (pred - target) ** 2
        expected += l2 * (0.3**2 + (-0.2) ** 2 + 0.5**2 + 0.1**2 + 1.5**2)
        got = loss(theta, np.array([window]), np.array([target]), l2)
        assert got == pytest.approx(expected, abs=1e-14)


class TestBackward:
    def test_dense_bias_gradient_single_sample(self):
        theta = random_params(3, seed=9)
        window = np.array([[0.2, 0.8]])
        target = np.array([0.5])
        preds, cache = _forward_pass(theta, window, None)
        grad = backward(theta, target, cache, 0.0)
        assert float(param_views(grad)[4]) == pytest.approx(2 * (preds[0] - 0.5), abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_check(self, seed):
        rng = substream(seed, 1)
        hidden = int(rng.integers(1, 5))
        lookback = int(rng.integers(1, 4))
        batch = int(rng.integers(1, 5))
        theta = init_params(hidden, rng)
        windows = rng.random((batch, lookback))
        targets = rng.random(batch)
        l2 = float(rng.choice([0.0, 1e-3]))
        masks = None
        if rng.random() < 0.5:
            masks = (rng.random((batch, hidden)) >= 0.2) / 0.8
        _, cache = _forward_pass(theta, windows, masks)
        analytic = backward(theta, targets, cache, l2)
        numeric = numeric_gradients(theta, windows, targets, l2, masks)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_l2_shifts_kernel_gradients_exactly(self):
        theta = random_params(3, seed=4)
        kernel = kernel_mask(3)
        windows = substream(4, 2).random((5, 3))
        targets = substream(4, 3).random(5)
        _, cache = _forward_pass(theta, windows, None)
        g0 = backward(theta, targets, cache, 0.0)
        g1 = backward(theta, targets, cache, 0.01)
        # the kernel is W and dense_w: 4 * 3 + 3 entries
        assert kernel.sum() == 15
        # difference is the penalty derivative, up to one rounding of g + penalty
        assert np.allclose(g1[kernel] - g0[kernel], 2 * 0.01 * theta[kernel], rtol=1e-12, atol=1e-15)
        assert np.array_equal(g1[~kernel], g0[~kernel])


class TestAdam:
    def test_first_step_closed_form(self):
        # t=1: m_hat = g, v_hat = g**2, update = -lr * g / (|g| + eps)
        theta = zero_params(2)
        g = 0.25
        zeros = np.zeros_like(theta)
        new_theta, _, _ = adam_step(theta, np.full_like(theta, g), zeros, zeros, 1, lr=2e-3)
        expected = -2e-3 * g / (abs(g) + 1e-8)
        assert np.allclose(new_theta, expected, rtol=0, atol=1e-18)

    def test_zero_gradient_keeps_params_decays_moments(self):
        theta = random_params(2, seed=8)
        zeros = np.zeros_like(theta)
        p1, m1, v1 = adam_step(theta, np.ones_like(theta), zeros, zeros, 1)
        p2, m2, _ = adam_step(p1, zeros, m1, v1, 2)
        assert not np.array_equal(p1, p2)
        # moments shrink toward zero under zero gradients
        assert np.all(np.abs(m2) < np.abs(m1))

    def test_constant_gradient_update_approaches_lr(self):
        p = zero_params(1)
        grad = np.full_like(p, 0.7)
        m = v = np.zeros_like(p)
        for t in range(1, 2001):
            p_next, m, v = adam_step(p, grad, m, v, t, lr=1e-3)
            delta = float(p_next[-1] - p[-1])
            p = p_next
        assert abs(delta) == pytest.approx(1e-3, rel=1e-4)


def fit_one(column, cfg, seed):
    """Train one network as a group of one: ``(model, rmse_trace, cause or None)``."""
    group, rmse, diverged = fit(np.asarray(column)[:, None], cfg, [seed], epoch_rmse=True)
    return LstmModel(theta=group.theta[0], cfg=cfg), rmse[0], diverged.get(0)


CAUSE = r"non-finite loss at epoch \d+, batch \d+"


class TestFit:
    def test_constant_signal(self):
        series = np.full(80, 0.42)
        cfg = TrainConfig(lookback=5, batch_size=15, epochs=19, hidden_size=8)
        model, trace, _ = fit_one(series, cfg, 3)
        preds = predict_series(model, series, np.arange(60, 80))
        assert np.all(np.abs(preds - 0.42) < 0.05)
        assert trace[-1] < trace[0]

    def test_bit_identical_reruns(self):
        series = (np.sin(np.linspace(0, 9, 90)) + 1) / 2
        cfg = TrainConfig(lookback=4, batch_size=10, epochs=4, hidden_size=6)
        m1, t1, _ = fit_one(series, cfg, 21)
        m2, t2, _ = fit_one(series, cfg, 21)
        assert np.array_equal(t1, t2)
        assert np.array_equal(m1.theta, m2.theta)

    def test_divergence_aborts_with_location(self):
        # Adam's normalized steps keep updates ~lr, so the rate must be large
        # enough that a single step overflows the squared loss
        series = (np.sin(np.linspace(0, 9, 60)) + 1) / 2
        cfg = TrainConfig(lookback=3, batch_size=8, epochs=3, hidden_size=4, learning_rate=1e200)
        model, trace, cause = fit_one(series, cfg, 2)
        assert re.fullmatch(CAUSE, cause)
        assert np.all(np.isnan(model.theta)) and np.all(np.isnan(trace))

    def test_series_too_short(self):
        with pytest.raises(ValidationError):
            fit_one(np.ones(5), TrainConfig(lookback=5), 0)

    def test_one_dimensional_series_rejected(self):
        with pytest.raises(ValidationError, match=r"\(n, R\)"):
            fit(np.linspace(0, 1, 30), TrainConfig(lookback=3, epochs=1), [0])

    def test_does_not_read_config_seed(self):
        series = (np.sin(np.linspace(0, 9, 40)) + 1) / 2
        cfg = TrainConfig(lookback=3, epochs=2, hidden_size=3, seed=1)
        a, ta, _ = fit_one(series, cfg, 5)
        b, tb, _ = fit_one(series, replace(cfg, seed=2), 5)
        assert np.array_equal(a.theta, b.theta) and np.array_equal(ta, tb)

    def test_rmse_drops_on_gbm(self):
        from conftest import gbm_prices
        from bootband.timeseries import window_minmax_scale

        scaled, _ = window_minmax_scale(gbm_prices(150, seed=4), 50)
        cfg = TrainConfig(lookback=5, batch_size=15, epochs=10, hidden_size=8)
        _, trace, _ = fit_one(scaled, cfg, 5)
        assert trace[-1] < trace[0]

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_epoch_rmse_pass_leaves_weights_unchanged(self, dropout):
        # an all-zero column with no L2 penalty has a zero gradient, so even a
        # rate of 1e200 never moves it; the random-walk column diverges
        series = np.zeros((60, 3))
        series[:, 1] = group_series(60, 1, seed=3)[:, 0]
        cfg = TrainConfig(lookback=3, batch_size=8, epochs=3, hidden_size=4,
                          dropout_rate=dropout, l2_coeff=0.0, learning_rate=1e200)
        plain, rmse, diverged = fit(series, cfg, [4, 5, 6])
        traced, trace, traced_diverged = fit(series, cfg, [4, 5, 6], epoch_rmse=True)
        assert rmse is None
        assert set(diverged) == {1} and traced_diverged == diverged
        assert plain.theta.tobytes() == traced.theta.tobytes()
        assert trace.shape == (3, cfg.epochs)
        assert np.all(np.isnan(trace[1])) and np.array_equal(trace[[0, 2]], np.zeros((2, 3)))


# SHA-256 of model.theta.tobytes() for fixed group fits: (hidden, dropout,
# rows, points, lookback, batch, series seed, digest).  A change to the
# forward, backward or Adam arithmetic that moves any weight bit fails here.
PINNED_FITS = [
    (32, 0.0, 3, 120, 5, 15, 11,
     "73eb86665f41f8d7df2599052d3f16d3fff07fc0f1f063a3b818eb33fb4507e2"),
    (8, 0.2, 4, 100, 4, 10, 12,
     "c815a41241dee6e749f29760789044c4c7bcbd4c153a43744b0585a62c55afe7"),
    (8, 0.2, 38, 200, 5, 15, 13,
     "180326efdd0be86e84ca257e67276aadedb083c7f9e5a1289fdec5cd029fa744"),
]


@pytest.mark.parametrize("hidden,dropout,rows,points,lookback,batch,seed,digest", PINNED_FITS)
def test_pinned_fit_weights(hidden, dropout, rows, points, lookback, batch, seed, digest):
    cfg = TrainConfig(lookback=lookback, batch_size=batch, epochs=3, hidden_size=hidden,
                      dropout_rate=dropout)
    seeds = [100 * (seed - 10) + k for k in range(1, rows + 1)]
    model, _, diverged = fit(group_series(points, rows, seed=seed), cfg, seeds)
    assert diverged == {}
    assert hashlib.sha256(model.theta.tobytes()).hexdigest() == digest


def test_reference_group_fit_peak_memory():
    # a 16-row hidden-32 group at the reference lookback and batch, with
    # dropout: the step workspace lives through the whole fit, so its traced
    # peak must stay within the 6.54 MB of allocating every step afresh
    series = group_series(120, 16, seed=14)
    cfg = TrainConfig(epochs=2, hidden_size=32, dropout_rate=0.2)
    tracemalloc.start()
    try:
        fit(series, cfg, list(range(16)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.54e6


def group_series(n, count, seed):
    """``count`` scaled random-walk columns, time-major ``(n, count)``."""
    rng = substream(seed, 9)
    walks = np.cumsum(rng.standard_normal((count, n)), axis=1)
    lo, hi = walks.min(axis=1, keepdims=True), walks.max(axis=1, keepdims=True)
    return ((walks - lo) / (hi - lo)).T


class TestGroupFit:
    SEEDS = (31, 32, 33, 34, 35)

    @pytest.mark.parametrize("hidden", [1, 8, 32])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_rows_match_solo_fits(self, hidden, dropout, l2):
        # 45 pairs in batches of 7: the last batch is short
        series = group_series(48, len(self.SEEDS), seed=hidden)
        cfg = TrainConfig(lookback=3, batch_size=7, epochs=2, hidden_size=hidden,
                          dropout_rate=dropout, l2_coeff=l2)
        solo = [fit_one(series[:, k], cfg, seed) for k, seed in enumerate(self.SEEDS)]
        # every replicate at several positions of groups of 1 to 5
        for size in range(1, 6):
            for shift in range(size):
                cols = [(shift + j) % 5 for j in range(size)]
                model, rmse, diverged = fit(
                    series[:, cols], cfg, [self.SEEDS[k] for k in cols], epoch_rmse=True
                )
                assert model.theta.shape == (size, param_count(hidden))
                assert rmse.shape == (size, cfg.epochs)
                assert diverged == {}
                for row, k in enumerate(cols):
                    assert np.array_equal(model.theta[row], solo[k][0].theta)
                    assert np.array_equal(rmse[row], solo[k][1])

    def test_group_predictions_match_solo(self):
        series = group_series(60, 3, seed=2)
        cfg = TrainConfig(lookback=4, batch_size=9, epochs=2, hidden_size=5)
        model, _, _ = fit(series, cfg, [7, 8, 9])
        positions = np.arange(40, 61)
        preds = predict_series(model, series[:, 0], positions)
        assert preds.shape == (3, positions.size)
        for row, seed in enumerate((7, 8, 9)):
            solo, _, _ = fit_one(series[:, row], cfg, seed)
            assert np.array_equal(preds[row], predict_series(solo, series[:, 0], positions))

    def test_diverging_row_leaves_group_mates_unchanged(self):
        series = group_series(60, 3, seed=4)
        series[:, 1] *= 1e300
        cfg = TrainConfig(lookback=3, batch_size=8, epochs=3, hidden_size=4)
        seeds = [5, 6, 7]
        model, rmse, diverged = fit(series, cfg, seeds, epoch_rmse=True)
        assert set(diverged) == {1}
        assert diverged[1] == fit_one(series[:, 1], cfg, 6)[2]
        assert re.fullmatch(CAUSE, diverged[1])
        assert np.all(np.isnan(model.theta[1])) and np.all(np.isnan(rmse[1]))
        for row in (0, 2):
            solo, trace, cause = fit_one(series[:, row], cfg, seeds[row])
            assert cause is None
            assert np.array_equal(model.theta[row], solo.theta)
            assert np.array_equal(rmse[row], trace)

    def test_late_divergence_leaves_group_mates_unchanged(self):
        # each of column 1's two last values squares below the float64 limit
        # and two of them sum above it, so its loss overflows first in the
        # batch that draws both targets: epoch 1 at its seed
        series = group_series(60, 3, seed=5)
        series[-2:, 1] = 1.2e154
        cfg = TrainConfig(lookback=3, batch_size=8, epochs=3, hidden_size=4, dropout_rate=0.2)
        seeds = [3, 4, 5]
        model, rmse, diverged = fit(series, cfg, seeds, epoch_rmse=True)
        assert diverged == {1: "non-finite loss at epoch 1, batch 4"}
        assert diverged[1] == fit_one(series[:, 1], cfg, 4)[2]
        # the whole row fails, not only the epochs after its divergence
        assert np.all(np.isnan(model.theta[1])) and np.all(np.isnan(rmse[1]))
        for row in (0, 2):
            solo, trace, cause = fit_one(series[:, row], cfg, seeds[row])
            assert cause is None and np.all(np.isfinite(trace))
            assert np.array_equal(model.theta[row], solo.theta)
            assert np.array_equal(rmse[row], trace)

    def test_fit_stops_once_every_row_has_diverged(self, monkeypatch):
        import bootband.lstm as lstm

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real_loss(*args, **kwargs)

        real_loss = lstm._loss
        monkeypatch.setattr(lstm, "_loss", counting)
        series = group_series(60, 3, seed=4) * 1e300
        cfg = TrainConfig(lookback=3, batch_size=8, epochs=3, hidden_size=4)
        model, rmse, diverged = fit(series, cfg, [5, 6, 7], epoch_rmse=True)
        assert diverged == {row: "non-finite loss at epoch 0, batch 0" for row in range(3)}
        assert calls == [(3, param_count(4))]
        assert np.all(np.isnan(model.theta)) and np.all(np.isnan(rmse))

    def test_late_divergence_matches_solo_location(self):
        # the rate only overflows after some steps; each row reports the
        # epoch and batch its own group of one reports
        series = group_series(60, 3, seed=5)
        cfg = TrainConfig(lookback=3, batch_size=8, epochs=3, hidden_size=4, learning_rate=1e200)
        seeds = [1, 2, 3]
        _, _, diverged = fit(series, cfg, seeds)
        assert set(diverged) == {0, 1, 2}
        for row, seed in enumerate(seeds):
            assert diverged[row] == fit_one(series[:, row], cfg, seed)[2]

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_draw_order_per_row(self, monkeypatch, dropout):
        # init, then per epoch one permutation and, only with dropout, the masks
        import bootband.lstm as lstm

        calls = {}

        class Recording:
            def __init__(self, seed):
                self.rng, self.log = substream(seed, 0), calls.setdefault(seed, [])

            def __getattr__(self, name):
                self.log.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(lstm, "substream", lambda seed, *key: Recording(seed))
        cfg = TrainConfig(lookback=3, batch_size=7, epochs=3, hidden_size=2, dropout_rate=dropout)
        fit(group_series(30, 2, seed=1), cfg, [3, 4])
        per_epoch = ["permutation", "random"] if dropout else ["permutation"]
        assert calls == {seed: ["uniform"] * 9 + per_epoch * 3 for seed in (3, 4)}

    @pytest.mark.parametrize("seeds", [[1, 2], None])
    def test_seed_count_must_match_columns(self, seeds):
        # seeds are required: None is not a sequence of them
        with pytest.raises(TypeError if seeds is None else ValidationError):
            fit(group_series(30, 3, seed=1), TrainConfig(lookback=3, epochs=1), seeds)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", math.nan),
        ("learning_rate", math.inf), ("l2_coeff", -1e-4), ("l2_coeff", math.nan),
        ("l2_coeff", math.inf), ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
        ("beta2", 1.0), ("beta2", math.nan), ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan),
    ])
    def test_bad_optimizer_value_names_the_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    def test_edge_values_accepted(self):
        # the divergence tests rely on a huge but finite rate
        TrainConfig(learning_rate=1e200, l2_coeff=0.0, beta1=0.0, beta2=0.0, eps=1e-300)


class TestPredict:
    def test_empty_positions(self):
        cfg = TrainConfig(lookback=3, epochs=1, hidden_size=2)
        model, _, _ = fit_one(np.linspace(0, 1, 30), cfg, 0)
        assert predict_series(model, np.linspace(0, 1, 30), []).size == 0

    def test_zero_params_predict_bias(self):
        cfg = TrainConfig(lookback=3, epochs=1, hidden_size=2)
        model, _, _ = fit_one(np.linspace(0, 1, 30), cfg, 0)
        model.theta = zero_params(2, dense_b=1.25)
        preds = predict_series(model, np.linspace(0, 1, 30), [5, 10, 15])
        assert np.array_equal(preds, np.full(3, 1.25))

    def test_matches_stepwise_forward_replay(self):
        cfg = TrainConfig(lookback=4, epochs=2, hidden_size=3)
        context = (np.cos(np.linspace(0, 7, 50)) + 1) / 2
        model, _, _ = fit_one(context[:40], cfg, 7)
        positions = np.arange(40, 50)
        preds = predict_series(model, context, positions)
        replay = np.array(
            [_forward_pass(model.theta, context[None, p - 4 : p], None)[0][0] for p in positions]
        )
        assert np.allclose(preds, replay, rtol=0, atol=1e-15)

    def test_insufficient_history(self):
        cfg = TrainConfig(lookback=5, epochs=1, hidden_size=2)
        model, _, _ = fit_one(np.linspace(0, 1, 30), cfg, 0)
        with pytest.raises(ValidationError):
            predict_series(model, np.linspace(0, 1, 30), [3])


# A version-1 model.json written by hand: hidden 2, lookback 3.  The u_*
# matrices are asymmetric so that a transposed recurrent block changes the
# prediction (with hidden 1 it could not).
V1_PARAMS = {
    "w_f": [0.3, -0.5], "w_i": [0.2, 0.4], "w_o": [-0.1, 0.6], "w_c": [0.7, -0.3],
    "u_f": [[0.1, 0.5], [-0.4, 0.2]], "u_i": [[0.3, -0.6], [0.05, 0.25]],
    "u_o": [[-0.2, 0.45], [0.35, -0.15]], "u_c": [[0.6, -0.1], [0.2, 0.4]],
    "b_f": [0.1, -0.2], "b_i": [0.0, 0.3], "b_o": [-0.1, 0.05], "b_c": [0.2, -0.25],
    "dense_w": [1.2, -0.7], "dense_b": 0.15,
}


def v1_document():
    params = {}
    for name, value in V1_PARAMS.items():
        arr = np.asarray(value, dtype=np.float64)
        params[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    config = {
        "lookback": 3, "batch_size": 15, "epochs": 19, "dropout_rate": 0.2, "l2_coeff": 1e-4,
        "hidden_size": 2, "learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
        "seed": 0,
    }
    return {"format": "bootband-lstm", "version": 1, "config": config, "params": params}


def scalar_v1_prediction(window):
    """The gate equations in plain floats, with u_g @ h as in the named layout."""
    p = V1_PARAMS

    def sig(a):
        return 1.0 / (1.0 + math.exp(-a))

    def pre(gate, x, h, j):
        u = p[f"u_{gate}"][j]
        return p[f"w_{gate}"][j] * x + u[0] * h[0] + u[1] * h[1] + p[f"b_{gate}"][j]

    h, c = [0.0, 0.0], [0.0, 0.0]
    for x in window:
        new_h, new_c = [], []
        for j in range(2):
            f, i, o = (sig(pre(g, x, h, j)) for g in "fio")
            c_j = i * math.tanh(pre("c", x, h, j)) + f * c[j]
            new_c.append(c_j)
            new_h.append(o * math.tanh(c_j))
        h, c = new_h, new_c
    return p["dense_w"][0] * h[0] + p["dense_w"][1] * h[1] + p["dense_b"]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(lookback=4, epochs=2, hidden_size=5, seed=13)
        series = (np.sin(np.linspace(0, 5, 60)) + 1) / 2
        model, _, _ = fit_one(series, cfg, 13)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert np.array_equal(model.theta, loaded.theta)
        assert loaded.cfg == cfg
        # loaded model predicts identically
        pos = np.arange(10, 20)
        assert np.array_equal(predict_series(model, series, pos), predict_series(loaded, series, pos))

    def test_reads_and_writes_v1_named_fields(self, tmp_path):
        doc = v1_document()
        (tmp_path / "v1.json").write_text(json.dumps(doc))
        model = load_model(tmp_path / "v1.json")
        context = np.array([0.1, 0.9, 0.4, 0.6, 0.2, 0.8])
        positions = np.arange(3, 7)
        expected = [scalar_v1_prediction(context[p - 3 : p]) for p in positions]
        assert np.allclose(predict_series(model, context, positions), expected, rtol=0, atol=1e-14)
        save_model(model, tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text()) == doc

    def test_rejects_wrong_format(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValidationError):
            load_model(tmp_path / "bad.json")


class TestWindows:
    def test_shapes_and_alignment(self):
        w, y = make_windows(np.arange(10.0), 3)
        assert w.shape == (7, 3)
        assert np.array_equal(w[0], [0, 1, 2])
        assert y[0] == 3.0
        assert np.array_equal(w[-1], [6, 7, 8])
        assert y[-1] == 9.0


@given(st.integers(0, 2**31), st.floats(-2, 2))
@settings(max_examples=80)
def test_state_bounds_property(seed, x):
    theta = random_params(3, seed=seed % 1000)
    for lookback in (1, 4):
        _, cache = _forward_pass(theta, np.full((1, lookback), x), None)
        assert_gates_open_and_h_bounded(cache)
