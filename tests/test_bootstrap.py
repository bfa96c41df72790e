import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootband import bootstrap
from bootband.bootstrap import BlockPlan, batch_resample
from bootband.errors import ValidationError


def arr(*values):
    return np.asarray(values, dtype=np.float64)


def reconstruct_from_starts(x, starts, l, n):
    """Oracle: relay the drawn blocks end to end and truncate to n."""
    pieces = [x[s : s + l] for s in starts]
    return np.concatenate(pieces)[:n]


def first_row(x, plan):
    """Values and starts of row 0 of a one-row batch (sub-stream 0 of plan.seed)."""
    values, starts = batch_resample(x, plan, 1)
    return values[0], starts[0]


class TestNbb:
    def test_single_block_identity(self):
        plan = BlockPlan(method="nbb", block_len=4, seed=1)
        values, starts = first_row(arr(1, 2, 3, 4), plan)
        assert list(values) == [1, 2, 3, 4]
        assert starts.tolist() == [0]

    def test_halves_come_from_start_grid(self):
        # start set for n=4, l=2 is {0, 2}: each half is (1,2) or (3,4)
        x = arr(1, 2, 3, 4)
        allowed = {(1.0, 2.0), (3.0, 4.0)}
        for seed in range(200):
            values, _ = first_row(x, BlockPlan(method="nbb", block_len=2, seed=seed))
            assert tuple(values[:2]) in allowed
            assert tuple(values[2:]) in allowed

    def test_truncation_to_source_length(self):
        # n=5, l=2: blocks of 2 laid end to end, tail dropped at 5
        x = arr(10, 20, 30, 40, 50)
        for seed in range(300):
            values, starts = first_row(x, BlockPlan(method="nbb", block_len=2, seed=seed))
            assert len(values) == 5
            expected = reconstruct_from_starts(x, starts, 2, 5)
            assert np.array_equal(values, expected)

    def test_starts_on_grid(self):
        x = np.arange(20.0)
        for seed in range(100):
            _, starts = first_row(x, BlockPlan(method="nbb", block_len=3, seed=seed))
            assert all(s % 3 == 0 for s in starts)

    def test_aligned_segments_when_l_divides_n(self):
        x = np.arange(12.0)
        l = 3
        for seed in range(100):
            values, _ = first_row(x, BlockPlan(method="nbb", block_len=l, seed=seed))
            for q in range(len(x) // l):
                seg = values[q * l : (q + 1) * l]
                start = int(seg[0])
                assert start % l == 0
                assert np.array_equal(seg, x[start : start + l])

    def test_errors(self):
        plan = BlockPlan(method="nbb", block_len=2, seed=0)
        with pytest.raises(ValidationError):
            batch_resample(np.empty(0), plan, 1)
        with pytest.raises(ValidationError):
            batch_resample(arr(1.0), plan, 1)
        with pytest.raises(ValidationError, match="one series"):
            batch_resample(np.ones((3, 40)), plan, 2)


class TestMbb:
    def test_single_block_identity(self):
        values, _ = first_row(arr(1, 2, 3, 4), BlockPlan(method="mbb", block_len=4, seed=3))
        assert list(values) == [1, 2, 3, 4]

    def test_pairs_are_overlapping_blocks(self):
        x = arr(1, 2, 3, 4)
        allowed = {(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)}
        for seed in range(200):
            values, _ = first_row(x, BlockPlan(method="mbb", block_len=2, seed=seed))
            assert tuple(values[:2]) in allowed
            assert tuple(values[2:]) in allowed

    def test_block_frequencies_near_uniform(self):
        # n=4, l=2 -> 3 blocks; over 10_000 draws each start shows up ~1/3
        x = arr(1, 2, 3, 4)
        _, starts = batch_resample(x, BlockPlan(method="mbb", block_len=2, seed=11), 10_000)
        counts = np.bincount(np.concatenate(starts), minlength=3)
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 1 / 3) < 0.02)

    def test_errors(self):
        with pytest.raises(ValidationError):
            batch_resample(arr(1, 2), BlockPlan(method="mbb", block_len=3, seed=0), 1)


class TestLbb:
    def test_single_block_identity(self):
        for b in (0.25, 0.5, 1.0):
            values, starts = first_row(
                arr(1, 2, 3, 4), BlockPlan(method="lbb", block_len=4, locality=b, seed=5)
            )
            assert list(values) == [1, 2, 3, 4]
            assert starts.tolist() == [0]

    def test_smallest_locality_windows(self):
        # n=3, l=1, floor(n*B)=1: block m draws from positions within 1 of m
        x = arr(10, 20, 30)
        plan = BlockPlan(method="lbb", block_len=1, locality=1 / 3, seed=0)
        for seed in range(300):
            _, starts = first_row(x, BlockPlan(method="lbb", block_len=1, locality=1 / 3, seed=seed))
            for m, s in enumerate(starts):
                assert abs(s - m) <= 1
        assert plan.locality * 3 == 1.0

    def test_j_bounds_hold(self):
        x = np.arange(30.0)
        n, l, b = 30, 4, 0.2
        halo = int(np.floor(n * b))
        for seed in range(1000):
            _, starts = first_row(x, BlockPlan(method="lbb", block_len=l, locality=b, seed=seed))
            for m, s in enumerate(starts):
                assert max(0, m * l - halo) <= s <= min(n - l, m * l + halo)

    def test_zero_halo_rejected(self):
        with pytest.raises(ValidationError):
            batch_resample(
                np.arange(7.0), BlockPlan(method="lbb", block_len=2, locality=0.1, seed=0), 1
            )

    def test_tail_window_degenerates_to_last_feasible_start(self):
        # n=10, l=7, floor(n*B)=1: block 1's offset (7) is past the last
        # feasible start (3), so its window collapses to exactly {3}
        for seed in range(50):
            values, starts = first_row(
                np.arange(10.0), BlockPlan(method="lbb", block_len=7, locality=0.1, seed=seed)
            )
            assert starts[1] == 3
            assert len(values) == 10

    def test_locality_required(self):
        with pytest.raises(ValidationError):
            BlockPlan(method="lbb", block_len=2, seed=0)
        with pytest.raises(ValidationError):
            BlockPlan(method="lbb", block_len=2, locality=1.5, seed=0)


class TestBatch:
    def test_same_seed_reproduces(self):
        x = np.arange(25.0)
        plan = BlockPlan(method="lbb", block_len=4, locality=0.3, seed=123)
        values_a, starts_a = batch_resample(x, plan, 20)
        values_b, starts_b = batch_resample(x, plan, 20)
        assert np.array_equal(values_a, values_b)
        for sa, sb in zip(starts_a, starts_b):
            assert np.array_equal(sa, sb)

    def test_streams_differ(self):
        x = np.arange(50.0)
        plan = BlockPlan(method="mbb", block_len=5, seed=7)
        _, starts = batch_resample(x, plan, 10)
        assert len({tuple(s.tolist()) for s in starts}) > 1

    @pytest.mark.parametrize("method,n,l", [("nbb", 23, 4), ("mbb", 23, 4), ("lbb", 10, 7)])
    def test_rows_are_the_drawn_blocks(self, method, n, l):
        # NBB with l not dividing n (a short grid block and top-up draws) and
        # LBB with a clamped tail window
        x = np.arange(float(n)) * 1.5 - 4.0
        locality = 0.1 if method == "lbb" else None
        plan = BlockPlan(method=method, block_len=l, locality=locality, seed=41)
        values, starts = batch_resample(x, plan, 30)
        assert values.shape == (30, n) and values.dtype == np.float64
        assert len(starts) == 30
        for k in range(30):
            assert np.array_equal(values[k], reconstruct_from_starts(x, starts[k], l, n))

    def test_matrix_is_read_only(self):
        values, _ = batch_resample(np.arange(12.0), BlockPlan(method="mbb", block_len=3, seed=1), 4)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0

    def test_row_does_not_depend_on_count(self):
        x = np.arange(40.0)
        plan = BlockPlan(method="nbb", block_len=6, seed=5)
        small, small_starts = batch_resample(x, plan, 3)
        large, large_starts = batch_resample(x, plan, 9)
        assert np.array_equal(small, large[:3])
        for a, b in zip(small_starts, large_starts):
            assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            batch_resample(np.arange(10.0), BlockPlan(method="nbb", block_len=2, seed=0), 0)

    def test_reference_scale_lengths(self):
        # 1000 draws on a 1258-point series all preserve length
        x = np.arange(1258.0)
        plan = BlockPlan(method="nbb", block_len=6, seed=42)
        values, starts = batch_resample(x, plan, 1000)
        assert values.shape == (1000, 1258)
        assert len(starts) == 1000


series_strategy = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
)


@given(series_strategy, st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.sampled_from(["nbb", "mbb", "lbb"]))
@settings(max_examples=250)
def test_core_invariants(values, block_len, seed, method):
    x = np.asarray(values)
    n = len(x)
    block_len = min(block_len, n)
    if method == "lbb":
        plan = BlockPlan(method=method, block_len=block_len, locality=0.5, seed=seed)
        if int(np.floor(n * 0.5)) < 1:
            with pytest.raises(ValidationError):
                batch_resample(x, plan, 1)
            return
    else:
        plan = BlockPlan(method=method, block_len=block_len, seed=seed)
    values, starts = first_row(x, plan)
    # length preservation
    assert len(values) == n
    # value containment (bit-exact)
    assert np.all(np.isin(values, x))
    # the values are the drawn blocks laid end to end
    assert np.array_equal(values, reconstruct_from_starts(x, starts, block_len, n))
    # determinism
    again_values, again_starts = first_row(x, plan)
    assert np.array_equal(values, again_values)
    assert np.array_equal(starts, again_starts)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(["nbb", "mbb", "lbb"]))
@settings(max_examples=100)
def test_identity_at_full_block(n, seed, method):
    x = np.arange(float(n)) * 1.5 + 3.0
    locality = 1.0 if method == "lbb" else None
    plan = BlockPlan(method=method, block_len=n, locality=locality, seed=seed)
    values, _ = first_row(x, plan)
    assert np.array_equal(values, x)


def laid_reference(x, row, l, first, need):
    """Loop oracle: lay every start of a start-matrix row, padding included,
    keep the row's first n values, skip the blocks before ``first`` and keep
    ``need`` values."""
    blocks = [x[s : s + l] for s in row.tolist()]
    laid = np.concatenate(blocks)[: x.size]
    skip = sum(block.size for block in blocks[:first])
    return laid[skip : skip + need]


@given(st.integers(2, 60), st.integers(1, 60), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(["nbb", "mbb", "lbb"]), st.booleans())
@settings(max_examples=200)
def test_laid_values_equals_a_loop_over_the_start_matrix(n, l, reps, seed, method, force_redraw):
    l = min(l, n)
    x = np.random.default_rng(seed).standard_normal(n)
    plan = BlockPlan(method=method, block_len=l, locality=1.0, seed=seed)
    words = bootstrap._read_words(seed, reps, n, l)
    with pytest.MonkeyPatch.context() as mp:
        if force_redraw:
            # as the selector's redraw tests force one: row 0 is redrawn
            # from its sub-stream, which may widen the matrix with zeros
            real_draws = bootstrap._lemire_draws

            def rejecting(words, bound, out):
                rejected = real_draws(words, bound, out)
                rejected[:1] = True
                return rejected

            mp.setattr(bootstrap, "_lemire_draws", rejecting)
        starts, _ = bootstrap._start_matrix(words, n, plan)
    # the band's case: every row from its first block, n values each
    band = bootstrap._laid_values(x, starts, l, 0, n)
    expected = [laid_reference(x, row, l, 0, n) for row in starts]
    assert band.tolist() == np.concatenate(expected).tolist()
    # the selector's case: rows with a short grid block among their first
    # n // l, laid from that block on for the block means that follow it
    b = n // l
    short = starts[:, :b] > n - l
    rows = np.flatnonzero(short.any(axis=1))
    first = short[rows].argmax(axis=1)
    need = (b - first) * l
    laid = bootstrap._laid_values(x, starts[rows], l, first, need)
    expected = [laid_reference(x, starts[k], l, f, m) for k, f, m in zip(rows, first, need)]
    assert laid.tolist() == np.concatenate([[], *expected]).tolist()


def test_laid_values_lays_topups_and_skips_padding():
    # a short grid block at n = 23, l = 4 forces top-ups in some rows, so
    # the other rows of the start matrix end in zeros
    n, l = 23, 4
    plan = BlockPlan(method="nbb", block_len=l, seed=41)
    starts, sizes = bootstrap._start_matrix(bootstrap._read_words(41, 30, n, l), n, plan)
    assert (sizes > -(-n // l)).any() and (sizes < starts.shape[1]).any()
    x = np.arange(float(n))
    laid = bootstrap._laid_values(x, starts, l, 0, n).reshape(-1, n)
    for row, values in zip(starts, laid):
        assert values.tolist() == laid_reference(x, row, l, 0, n).tolist()


@pytest.mark.parametrize("method,n,l", [("nbb", 23, 4), ("mbb", 40, 3), ("lbb", 31, 5)])
@pytest.mark.parametrize("slice_values", [1, 2 * 23 + 1, 5 * 40])
def test_batch_resample_in_slices_equals_one_slice(monkeypatch, method, n, l, slice_values):
    # the default bound lays all 37 rows in one slice
    x = np.random.default_rng(9).standard_normal(n)
    plan = BlockPlan(method=method, block_len=l, locality=0.2, seed=17)
    whole, whole_starts = batch_resample(x, plan, 37)
    monkeypatch.setattr(bootstrap, "_SLICE_VALUES", slice_values)
    sliced, sliced_starts = batch_resample(x, plan, 37)
    assert sliced.tolist() == whole.tolist()
    assert [s.tolist() for s in sliced_starts] == [s.tolist() for s in whole_starts]


# SHA-256 of the JSON list of every row's starts, 25 rows each.  PCG64 and
# SeedSequence streams are stable across platforms and numpy releases, so
# these pin the order and shape of every RNG call the resampler makes.
PINNED_STARTS = [
    ("nbb", 50, 7, None, 2024,
     "7d8746385e76e2a4a0ecfde3f21f83c2887c58c088b3d6e3d0c67daf572832a6"),  # l does not divide n
    ("mbb", 50, 5, None, 7,
     "8d3503895c521956e510996e017e28072ac0baa4751362a14b65c81565093e38"),
    ("lbb", 50, 6, 0.2, 99,
     "676c220950d6766ad465f9d5eace65a3ca2a62b0676861543bdec6ec2b639d6a"),
    ("lbb", 10, 7, 0.1, 3,
     "9e1195202981c88da7ba1665bf3a55f710265b7cc7dc5edaabf9f9b6ef18a832"),  # clamped tail window
]


@pytest.mark.parametrize("method,n,l,locality,seed,digest", PINNED_STARTS)
def test_pinned_start_draws(method, n, l, locality, seed, digest):
    plan = BlockPlan(method=method, block_len=l, locality=locality, seed=seed)
    _, starts = batch_resample(np.arange(float(n)), plan, 25)
    payload = json.dumps([row.tolist() for row in starts]).encode()
    assert hashlib.sha256(payload).hexdigest() == digest
