import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bootband.blocklen as blocklen
import bootband.bootstrap as bootstrap
from bootband.blocklen import (
    SelectorConfig,
    block_means,
    distance,
    length_penalty,
    select_block_length,
)
from bootband._rng import substream
from bootband.bootstrap import BlockPlan, batch_resample, draw_starts
from bootband.errors import ValidationError
from conftest import HASWELL, HASWELL_X86_V3, SKYLAKEX, ar1_series, digest_id, pinned_digest


def naive_block_means(x, l):
    b = len(x) // l
    return [sum(x[T * l : (T + 1) * l]) / l for T in range(b)]


def naive_objective(x, replicates, l, t):
    """Loop-based re-evaluation of the selector objective."""
    n = len(x)
    orig = naive_block_means(list(x), l)
    total = 0.0
    for rep in replicates:
        rep_means = naive_block_means(list(rep), l)
        sq = 0.0
        for a, b in zip(rep_means, orig):
            sq += (a - b) ** 2
        total += (l / n) * sq
    return total / len(replicates) + math.log(n) / n**t * l


class TestBlockMeans:
    def test_two_blocks(self):
        assert list(block_means([1, 2, 3, 4], 2)) == [1.5, 3.5]

    def test_constant(self):
        assert list(block_means([7.0] * 9, 3)) == [7.0, 7.0, 7.0]

    def test_remainder_dropped(self):
        assert list(block_means([1, 2, 3, 4, 5], 2)) == [1.5, 3.5]

    def test_bounds(self):
        with pytest.raises(ValidationError):
            block_means([1, 2, 3], 4)
        with pytest.raises(ValidationError):
            block_means([1, 2, 3], 0)


class TestDistance:
    def test_identical_replicate_is_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        for l in (1, 2, 4):
            assert distance(x, block_means(x[None, :], l), l) == 0.0

    def test_hand_case(self):
        # block means at l=2: orig [0, 2], replicate [2, 0];
        # (2/4) * ((2-0)^2 + (0-2)^2) = 4
        x = np.array([0.0, 0.0, 2.0, 2.0])
        rep = np.array([2.0, 2.0, 0.0, 0.0])
        assert distance(x, block_means(rep[None, :], 2), 2) == 4.0

    def test_duplicating_replicates_invariant(self):
        x = ar1_series(40, 0.5, seed=3)
        plan = BlockPlan(method="mbb", block_len=4, seed=9)
        means = block_means(batch_resample(x, plan, 5)[0], 4)
        once = distance(x, means, 4)
        twice = distance(x, np.vstack([means, means]), 4)
        assert twice == pytest.approx(once, rel=1e-15)

    def test_length_mismatch(self):
        # 6 values hold 3 blocks of length 2
        with pytest.raises(ValidationError):
            distance(np.arange(6.0), np.zeros((1, 2)), 2)
        with pytest.raises(ValidationError):
            distance(np.arange(6.0), np.zeros(3), 2)

    def test_nonnegative(self):
        x = ar1_series(60, 0.7, seed=1)
        reps, _ = batch_resample(x, BlockPlan(method="nbb", block_len=5, seed=2), 10)
        assert distance(x, block_means(reps, 5), 5) >= 0.0

    @pytest.mark.parametrize("n,l,m", [(40, 3, 1), (257, 7, 25), (5000, 50, 30), (5000, 1, 30)])
    def test_matrix_matches_per_row_reference(self, n, l, m):
        # the per-row dot product of the block-mean differences, summed left
        # to right over the replicates; the batched form must agree bit for bit
        x = ar1_series(n, 0.4, seed=n + l, sigma=0.01)
        reps, _ = batch_resample(x, BlockPlan(method="mbb", block_len=l, seed=m), m)
        orig = block_means(x, l)
        total = 0.0
        for row in reps:
            diff = block_means(row, l) - orig
            total += (l / n) * float(diff @ diff)
        assert distance(x, block_means(reps, l), l) == total / m

    def test_block_means_of_matrix_rows(self):
        reps, _ = batch_resample(np.arange(23.0), BlockPlan(method="nbb", block_len=4, seed=8), 6)
        means = block_means(reps, 4)
        assert means.shape == (6, 5)
        for row, row_means in zip(reps, means):
            assert np.array_equal(block_means(row, 4), row_means)


class TestObjective:
    def test_penalty_value(self):
        # 10 * ln(100) / 100**2
        assert length_penalty(100, 10, 2.0) == pytest.approx(0.004605170185988091, abs=1e-18)

    def test_zero_distance_leaves_penalty(self):
        # at l = n every method returns the series verbatim, so only the
        # penalty remains
        x = ar1_series(24, 0.6, seed=5)
        cfg = SelectorConfig(method="mbb", reps=7, l_min=24, l_max=24, seed=11)
        _, curve = select_block_length(x, cfg)
        assert curve.objectives[0] == length_penalty(24, 24, cfg.t)

    def test_penalty_is_linear_in_l(self):
        n, t = 200, 2.0
        pens = [length_penalty(n, l, t) for l in range(1, 20)]
        diffs = np.diff(pens)
        assert np.allclose(diffs, math.log(n) / n**t, rtol=0, atol=1e-18)
        assert np.all(diffs > 0)

    def test_matches_naive_evaluator(self):
        x = ar1_series(80, 0.7, seed=21)
        cfg = SelectorConfig(method="mbb", reps=20, l_max=16, seed=33)
        _, curve = select_block_length(x, cfg)
        for l in (1, 3, 7, 16):
            plan = BlockPlan(method=cfg.method, block_len=l, locality=cfg.locality, seed=cfg.seed)
            reps, _ = batch_resample(x, plan, cfg.reps)
            assert curve.objectives[l - 1] == pytest.approx(
                naive_objective(x, reps, l, cfg.t), abs=1e-12
            )


class TestSelect:
    def test_argmin_attains_curve_minimum(self):
        x = ar1_series(150, 0.7, seed=8)
        cfg = SelectorConfig(method="nbb", reps=25, l_max=20, seed=4)
        l_opt, curve = select_block_length(x, cfg)
        assert curve.objectives[list(curve.lengths).index(l_opt)] == curve.objectives.min()
        assert np.array_equal(curve.objectives, curve.distances + curve.penalties)

    def test_deterministic(self):
        x = ar1_series(100, 0.6, seed=2)
        cfg = SelectorConfig(method="lbb", reps=15, l_max=12, locality=0.2, seed=77)
        a = select_block_length(x, cfg)
        b = select_block_length(x, cfg)
        assert a[0] == b[0]
        assert np.array_equal(a[1].objectives, b[1].objectives)

    def test_tie_breaks_to_smaller_l(self):
        # constant series: distance is 0 everywhere, penalty increasing,
        # so the minimum sits at l_min
        x = np.full(60, 3.25)
        cfg = SelectorConfig(method="mbb", reps=5, l_max=10, seed=0)
        l_opt, _ = select_block_length(x, cfg)
        assert l_opt == 1

    def test_white_noise_prefers_small_l(self):
        # return-scale noise (sigma ~ 1e-2, the magnitude the penalty is
        # calibrated for): independence means small blocks suffice
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((314,))))
        x = 0.01 * rng.standard_normal(120)
        cfg = SelectorConfig(method="mbb", reps=40, l_max=25, seed=6)
        l_opt, curve = select_block_length(x, cfg)
        assert l_opt <= 10
        # penalty dominates the tail of the curve
        assert curve.objectives[-1] > curve.objectives.min()

    def test_default_l_max(self):
        cfg = SelectorConfig()
        assert cfg.resolved_l_max(1000) == 50
        assert cfg.resolved_l_max(120) == 30
        assert cfg.resolved_l_max(3) == 1

    def test_l_range_validation(self):
        with pytest.raises(ValidationError):
            SelectorConfig(l_min=5, l_max=3)
        with pytest.raises(ValidationError):
            select_block_length(np.arange(10.0), SelectorConfig(l_max=11))

    def test_matrix_input_rejected(self):
        with pytest.raises(ValidationError, match="one series"):
            select_block_length(np.ones((3, 40)), SelectorConfig(reps=5, l_max=4))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_penalty_exponent_must_be_finite_and_positive(self, t):
        with pytest.raises(ValidationError, match="penalty exponent t"):
            SelectorConfig(t=t)

    @pytest.mark.parametrize("locality", [0.0, -0.1, 1.5, 2.0, math.nan, math.inf])
    def test_lbb_locality_must_lie_in_unit_interval(self, locality):
        with pytest.raises(ValidationError, match=r"locality must lie in \(0, 1\]"):
            SelectorConfig(method="lbb", locality=locality)

    @pytest.mark.parametrize("method", ["nbb", "mbb"])
    def test_other_methods_do_not_read_locality(self, method):
        assert SelectorConfig(method=method, locality=0.0).locality == 0.0
        assert SelectorConfig(method="lbb", locality=1.0).locality == 1.0

    def test_curve_csv(self, tmp_path):
        x = ar1_series(60, 0.5, seed=9)
        _, curve = select_block_length(x, SelectorConfig(method="mbb", reps=5, l_max=6, seed=1))
        curve.to_csv(tmp_path / "curve.csv")
        rows = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert rows[0] == "l,distance,penalty,objective"
        assert len(rows) == 7
        l, d, p, o = rows[1].split(",")
        assert float(d) + float(p) == float(o)


def laid_out_distances(x, cfg):
    """Each candidate's distance from the block means of its laid-out replicate matrix."""
    lengths = range(cfg.l_min, cfg.resolved_l_max(len(x)) + 1)
    dists = []
    for l in lengths:
        plan = BlockPlan(method=cfg.method, block_len=l, locality=cfg.locality, seed=cfg.seed)
        reps, _ = batch_resample(x, plan, cfg.reps)
        dists.append(distance(x, block_means(reps, l), l))
    return dists


# name -> (series, l_min, l_max, locality)
SCORING_CASES = {
    # l = 7 does not divide n = 50: NBB rows draw the short grid block among
    # their first n // l starts, which shifts every later block
    "short-head": (ar1_series(50, 0.6, seed=12, sigma=0.01), 1, 12, 0.1),
    # n = 10 with halo 1: the LBB tail window at l = 7 clamps to start 3
    "clamped-tail": (ar1_series(10, 0.3, seed=4), 1, 10, 0.1),
    "constant": (np.full(60, 3.25), 1, 10, 0.1),
    "l-equals-n": (ar1_series(24, 0.6, seed=5), 24, 24, 0.1),
    "long": (ar1_series(1258, 0.4, seed=6, sigma=0.01), 1, 50, 0.1),
}


class TestScoringFromStarts:
    @pytest.mark.parametrize("case", sorted(SCORING_CASES))
    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    def test_curve_equals_laid_out_replicates(self, method, case):
        x, l_min, l_max, locality = SCORING_CASES[case]
        cfg = SelectorConfig(
            method=method, reps=20, l_min=l_min, l_max=l_max, locality=locality, seed=3
        )
        _, curve = select_block_length(x, cfg)
        assert curve.distances.tolist() == laid_out_distances(x, cfg)

    def test_short_head_case_draws_the_short_block_early(self):
        x = SCORING_CASES["short-head"][0]
        _, starts = batch_resample(x, BlockPlan(method="nbb", block_len=7, seed=3), 20)
        early = [49 in row[:7] for row in starts]
        assert any(early) and not all(early)

    def test_one_generator_per_replicate(self, monkeypatch):
        built = []

        def counting(seed, *key):
            built.append(key)
            return real(seed, *key)

        real = bootstrap.substream
        monkeypatch.setattr(bootstrap, "substream", counting)
        cfg = SelectorConfig(method="mbb", reps=9, l_max=15, seed=2)
        select_block_length(ar1_series(80, 0.5, seed=2), cfg)
        assert built == [(k,) for k in range(cfg.reps)]

    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    def test_forced_rejection_redraws_the_row_exactly(self, monkeypatch, method):
        # flag row 3 of every mapped draw as rejected: the row must be redrawn
        # from a fresh generator of its sub-stream and score as before
        redrawn = []

        def rejecting(words, bound, out):
            rejected = real_draws(words, bound, out)
            rejected[3:4] = True
            return rejected

        def counting(rng, n, plan):
            redrawn.append(plan.block_len)
            return real_starts(rng, n, plan)

        real_draws, real_starts = bootstrap._lemire_draws, bootstrap.draw_starts
        monkeypatch.setattr(bootstrap, "_lemire_draws", rejecting)
        monkeypatch.setattr(bootstrap, "draw_starts", counting)
        x, l_min, l_max, locality = SCORING_CASES["short-head"]
        cfg = SelectorConfig(
            method=method, reps=20, l_min=l_min, l_max=l_max, locality=locality, seed=3
        )
        _, curve = select_block_length(x, cfg)
        assert set(redrawn) == set(range(l_min, l_max + 1))
        assert curve.distances.tolist() == laid_out_distances(x, cfg)

    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    @pytest.mark.parametrize("n,seed", [(3000, 5), (4999, 123)])
    def test_start_matrix_equals_draw_starts(self, method, n, seed):
        # at seed 123 and n = 4999, MBB row 35 rejects a word at l = 10
        words = bootstrap._read_words(seed, 100, n, 1)
        for l in (1, 2, 7, 10, 49, n // 3, n):
            plan = BlockPlan(method=method, block_len=l, locality=0.1, seed=seed)
            starts, sizes = bootstrap._start_matrix(words, n, plan)
            assert starts.flags.c_contiguous and starts.dtype == np.int64
            fresh = [draw_starts(substream(seed, k), n, plan) for k in range(100)]
            assert sizes.tolist() == [expected.size for expected in fresh]
            for row, expected in zip(starts, fresh):
                assert row[: expected.size].tolist() == expected.tolist()
                assert not row[expected.size :].any()

    def test_rows_past_their_topup_words_are_redrawn(self, monkeypatch):
        # n = 11, l = 10: the one-value short block can be drawn again and
        # again, so some rows need more top-ups than the words read for them
        monkeypatch.setattr(bootstrap, "_TOPUP_WORDS", 1)
        words = bootstrap._read_words(4, 200, 11, 10)
        plan = BlockPlan(method="nbb", block_len=10, seed=4)
        starts, _ = bootstrap._start_matrix(words, 11, plan)
        fresh = [draw_starts(substream(4, k), 11, plan) for k in range(200)]
        assert starts.shape[1] == max(row.size for row in fresh) > 3
        for row, expected in zip(starts, fresh):
            assert row[: expected.size].tolist() == expected.tolist()
            assert not row[expected.size :].any()

    def test_rejections_happen_at_selection_scale(self):
        n, l = 4999, 10
        words = bootstrap._read_words(123, 100, n, 1)
        out = np.empty((100, -(-n // l)), dtype=np.uint64)
        rejected = bootstrap._lemire_draws(words[:, : out.shape[1]], n - l + 1, out)
        assert np.flatnonzero(rejected).tolist() == [35]

    def test_batch_resample_redraws_a_rejected_row(self, monkeypatch):
        # the band's draw maps its rows as selection does: row 35 rejects a
        # word above, so it alone is redrawn from its sub-stream
        n, l = 4999, 10
        redrawn = []

        def counting(rng, n, plan):
            redrawn.append(plan.block_len)
            return real_starts(rng, n, plan)

        real_starts = bootstrap.draw_starts
        monkeypatch.setattr(bootstrap, "draw_starts", counting)
        x = ar1_series(n, 0.5, seed=3)
        plan = BlockPlan(method="mbb", block_len=l, seed=123)
        values, starts = batch_resample(x, plan, 40)
        assert redrawn == [l]
        expected = real_starts(substream(123, 35), n, plan)
        assert starts[35].tolist() == expected.tolist()
        assert values[35].tolist() == np.concatenate([x[s : s + l] for s in expected])[:n].tolist()

    def test_batch_resample_redraws_rows_past_their_topup_words(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_TOPUP_WORDS", 1)
        x = np.arange(11.0)
        plan = BlockPlan(method="nbb", block_len=10, seed=4)
        values, starts = batch_resample(x, plan, 200)
        fresh = [draw_starts(substream(4, k), 11, plan) for k in range(200)]
        assert max(row.size for row in fresh) > 3
        for row_values, row, expected in zip(values, starts, fresh):
            assert row.tolist() == expected.tolist()
            laid = np.concatenate([x[s : s + 10] for s in expected])[:11]
            assert row_values.tolist() == laid.tolist()

    def test_unit_candidate_peaks_below_three_replicate_matrices(self):
        # at l = 1 every row holds n starts and n block means
        x = ar1_series(3999, 0.5, seed=3, sigma=0.01)
        cfg = SelectorConfig(method="mbb", reps=100, l_min=1, l_max=1, seed=1)
        tracemalloc.start()
        try:
            select_block_length(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * cfg.reps * x.size * 8

    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    def test_long_candidate_peaks_below_one_replicate_matrix(self, method):
        x = ar1_series(4000, 0.5, seed=3, sigma=0.01)
        cfg = SelectorConfig(method=method, reps=100, l_min=2000, l_max=2000, seed=1)
        tracemalloc.start()
        try:
            select_block_length(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.reps * x.size * 8

    @pytest.mark.parametrize("case", sorted(SCORING_CASES))
    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    def test_one_row_slices_score_as_laid_out_replicates(self, monkeypatch, method, case):
        monkeypatch.setattr(blocklen, "_SLICE_ELEMENTS", 1)
        x, l_min, l_max, locality = SCORING_CASES[case]
        cfg = SelectorConfig(
            method=method, reps=20, l_min=l_min, l_max=l_max, locality=locality, seed=3
        )
        _, curve = select_block_length(x, cfg)
        assert curve.distances.tolist() == laid_out_distances(x, cfg)

    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    def test_forced_rejection_in_a_later_slice_redraws_the_row_exactly(self, monkeypatch, method):
        # slices of at most 10 rows here, so row 13 never sits in the first
        # one; a redraw from the slice-local index would score another row
        x, l_min, l_max, locality = SCORING_CASES["short-head"]
        cfg = SelectorConfig(
            method=method, reps=20, l_min=l_min, l_max=l_max, locality=locality, seed=3
        )
        target = bootstrap._read_words(cfg.seed, cfg.reps, x.size, 1)[13]
        redrawn = []

        def rejecting(words, bound, out):
            rejected = real_draws(words, bound, out)
            # only the main draw of row 13 starts with that row's words
            rejected |= (words == target[: words.shape[1]]).all(axis=1)
            return rejected

        def counting(rng, n, plan):
            redrawn.append(plan.block_len)
            return real_starts(rng, n, plan)

        real_draws, real_starts = bootstrap._lemire_draws, bootstrap.draw_starts
        monkeypatch.setattr(blocklen, "_SLICE_ELEMENTS", x.size)
        monkeypatch.setattr(bootstrap, "_lemire_draws", rejecting)
        monkeypatch.setattr(bootstrap, "draw_starts", counting)
        _, curve = select_block_length(x, cfg)
        assert set(redrawn) == set(range(l_min, l_max + 1))
        assert curve.distances.tolist() == laid_out_distances(x, cfg)

    @pytest.mark.parametrize("method", ["nbb", "mbb", "lbb"])
    @pytest.mark.parametrize("l_max", [1, 50])
    def test_only_the_words_grow_with_reps(self, method, l_max):
        # 300 more rows add 300 rows of n + _TOPUP_WORDS words; each candidate's
        # table and slices do not grow with reps
        x = ar1_series(3999, 0.5, seed=3, sigma=0.01)
        peaks = []
        for reps in (100, 400):
            cfg = SelectorConfig(method=method, reps=reps, l_min=1, l_max=l_max, seed=1)
            tracemalloc.start()
            try:
                select_block_length(x, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.1 * 300 * (x.size + 16) * 4


@given(st.integers(0, 2**32), st.integers(1, 400), st.data())
@settings(max_examples=100, deadline=None)
def test_window_means_equal_means_of_contiguous_copies(seed, n, data):
    # l < 8 and l >= 8 take different summation paths in numpy's mean
    l = data.draw(st.integers(1, min(n, 70)))
    x = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,)))).standard_normal(n)
    table = blocklen._window_means(x, l)
    assert table.shape == (n,)
    expected = [x[s : s + l].copy().mean() for s in range(n - l + 1)]
    assert table[: n - l + 1].tolist() == expected
    assert np.isnan(table[n - l + 1 :]).all()


# SHA-256 of the JSON list [l_opt, distances, objectives] per platform (see
# conftest.pinned_digest).  These pin the selector's output bits for each method,
# the LBB one also at clamped windows.
PINNED_CURVES = [
    ("nbb", 250, 23, 24, 0.1, {
        SKYLAKEX: "b08801bcc47e6d4f23978701b2d0382bd3bb0f0e6544152b7d2bcd864c5d242f",
        HASWELL: "9fa64e575a7d3c85131e0b46305016c83f204619e1a30b7ae208f09d7a8305fe",
        HASWELL_X86_V3: "9fa64e575a7d3c85131e0b46305016c83f204619e1a30b7ae208f09d7a8305fe"}),
    ("mbb", 250, 5, 24, 0.1, {
        SKYLAKEX: "da27d53b65dd6284698145cc10a13c2ba14f54abd120ce98185141f85447a414",
        HASWELL: "5460b141f5e67af3956383fbb4ba35853322ff00331e234dad9e5df08047aa36",
        HASWELL_X86_V3: "5460b141f5e67af3956383fbb4ba35853322ff00331e234dad9e5df08047aa36"}),
    ("lbb", 250, 61, 24, 0.1, {
        SKYLAKEX: "5114da78cf71a7262890a50a89cc3e6dcaa7441bcd75b504e7a586d8b8194e60",
        HASWELL: "f33d8ec0f5aaaef9460530fce47ab446c6d9a863d910168d2e48c0e1da9ae669",
        HASWELL_X86_V3: "f33d8ec0f5aaaef9460530fce47ab446c6d9a863d910168d2e48c0e1da9ae669"}),
    ("lbb", 40, 8, 40, 0.05, {
        SKYLAKEX: "9346e8f56ae6a82a80d6874cb5653859cba9cdb5be873f35b4e721f715595547",
        HASWELL: "c49e1591e76773658ffcec7d3c60bde9448eb9f9e8bab851a88fd347a81c1212",
        HASWELL_X86_V3: "c49e1591e76773658ffcec7d3c60bde9448eb9f9e8bab851a88fd347a81c1212"}),
]


@pytest.mark.parametrize("method,n,seed,l_max,locality,digests", PINNED_CURVES, ids=digest_id)
def test_pinned_selector_curves(method, n, seed, l_max, locality, digests):
    digest = pinned_digest(digests)
    x = ar1_series(n, 0.6, seed=seed, sigma=0.01)
    cfg = SelectorConfig(method=method, reps=30, l_max=l_max, locality=locality, seed=seed)
    l_opt, curve = select_block_length(x, cfg)
    payload = json.dumps([l_opt, curve.distances.tolist(), curve.objectives.tolist()]).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


@given(st.integers(0, 2**31), st.integers(2, 50))
@settings(max_examples=60, deadline=None)
def test_distance_zero_iff_equal_block_means(seed, n):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    x = rng.standard_normal(n)
    l = int(rng.integers(1, n + 1))
    # the series against itself is always zero
    assert distance(x, block_means(x[None, :], l), l) == 0.0
    # a shifted replicate with different block means is strictly positive
    shifted = x + 1.0
    assert distance(x, block_means(shifted[None, :], l), l) > 0.0


def numpy_bounded_draws(stream, pos, bounds):
    """numpy's bounded draws, word by word: the values and the position after them."""
    values = []
    for bound in bounds:
        if bound == 1:  # numpy reads no word
            values.append(0)
            continue
        while True:
            m = int(stream[pos]) * bound
            pos += 1
            if m & 0xFFFFFFFF >= (2**32 - bound) % bound:
                break
        values.append(m >> 32)
    return values, pos


# bounds near 2**31 reject about half of their words
_BOUNDS = st.one_of(
    st.integers(1, 60), st.just(1), st.integers(2**31 - 8, 2**31 + 8), st.integers(2, 2**32)
)
_CALLS = st.lists(
    st.one_of(
        st.tuples(_BOUNDS, st.integers(1, 9)),  # a scalar bound and a size
        st.lists(_BOUNDS, min_size=1, max_size=9),  # one bound per draw
    ),
    min_size=1,
    max_size=8,
)


@given(st.integers(0, 2**32), _CALLS)
@settings(max_examples=200, deadline=None)
def test_lemire_draws_match_generator_integers(seed, calls):
    # consecutive calls on one generator: a call that reads an odd number of
    # words leaves the high half of its last output for the next call
    rng = substream(seed, 0)
    stream = bootstrap._read_words(seed, 1, 64 * (9 * len(calls) + 1), 1)[0]
    pos = 0
    for call in calls:
        if isinstance(call, tuple):
            bound, size = call
            drawn = rng.integers(0, bound, size=size).tolist()
            bounds = [bound] * size
        else:
            bound = np.array(call)
            drawn = rng.integers(0, bound).tolist()
            bounds = call
        start = pos
        values, pos = numpy_bounded_draws(stream, pos, bounds)
        assert values == drawn
        # the vectorized draw reads one word per draw with a bound above 1
        reads = np.array(bounds) > 1
        words = np.zeros((1, len(bounds)), dtype=np.uint32)
        words[0, reads] = stream[start : start + np.count_nonzero(reads)]
        out = np.empty(words.shape, dtype=np.uint64)
        rejected = bootstrap._lemire_draws(words, bound, out)[0]
        assert rejected == (pos - start > np.count_nonzero(reads))
        if not rejected:
            assert out[0].tolist() == drawn
