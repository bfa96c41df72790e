import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootband.bootstrap import BlockPlan, batch_resample, resample
from bootband.errors import ValidationError


def arr(*values):
    return np.asarray(values, dtype=np.float64)


def reconstruct_from_starts(x, starts, l, n):
    """Oracle: relay the drawn blocks end to end and truncate to n."""
    pieces = [x[s : s + l] for s in starts]
    return np.concatenate(pieces)[:n]


class TestNbb:
    def test_single_block_identity(self):
        plan = BlockPlan(method="nbb", block_len=4, seed=1)
        out = resample(arr(1, 2, 3, 4), plan)
        assert list(out.values) == [1, 2, 3, 4]
        assert out.starts == (0,)

    def test_halves_come_from_start_grid(self):
        # start set for n=4, l=2 is {0, 2}: each half is (1,2) or (3,4)
        x = arr(1, 2, 3, 4)
        allowed = {(1.0, 2.0), (3.0, 4.0)}
        for seed in range(200):
            out = resample(x, BlockPlan(method="nbb", block_len=2, seed=seed))
            assert tuple(out.values[:2]) in allowed
            assert tuple(out.values[2:]) in allowed

    def test_truncation_to_source_length(self):
        # n=5, l=2: blocks of 2 laid end to end, tail dropped at 5
        x = arr(10, 20, 30, 40, 50)
        for seed in range(300):
            out = resample(x, BlockPlan(method="nbb", block_len=2, seed=seed))
            assert len(out.values) == 5
            expected = reconstruct_from_starts(x, out.starts, 2, 5)
            assert np.array_equal(out.values, expected)

    def test_starts_on_grid(self):
        x = np.arange(20.0)
        for seed in range(100):
            out = resample(x, BlockPlan(method="nbb", block_len=3, seed=seed))
            assert all(s % 3 == 0 for s in out.starts)

    def test_aligned_segments_when_l_divides_n(self):
        x = np.arange(12.0)
        l = 3
        for seed in range(100):
            out = resample(x, BlockPlan(method="nbb", block_len=l, seed=seed))
            for q in range(len(x) // l):
                seg = out.values[q * l : (q + 1) * l]
                start = int(seg[0])
                assert start % l == 0
                assert np.array_equal(seg, x[start : start + l])

    def test_errors(self):
        plan = BlockPlan(method="nbb", block_len=2, seed=0)
        with pytest.raises(ValidationError):
            resample(np.empty(0), plan)
        with pytest.raises(ValidationError):
            resample(arr(1.0), plan)


class TestMbb:
    def test_single_block_identity(self):
        out = resample(arr(1, 2, 3, 4), BlockPlan(method="mbb", block_len=4, seed=3))
        assert list(out.values) == [1, 2, 3, 4]

    def test_pairs_are_overlapping_blocks(self):
        x = arr(1, 2, 3, 4)
        allowed = {(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)}
        for seed in range(200):
            out = resample(x, BlockPlan(method="mbb", block_len=2, seed=seed))
            assert tuple(out.values[:2]) in allowed
            assert tuple(out.values[2:]) in allowed

    def test_block_frequencies_near_uniform(self):
        # n=4, l=2 -> 3 blocks; over 10_000 draws each start shows up ~1/3
        x = arr(1, 2, 3, 4)
        counts = np.zeros(3)
        draws = batch_resample(x, BlockPlan(method="mbb", block_len=2, seed=11), 10_000)
        for ps in draws:
            for s in ps.starts:
                counts[s] += 1
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 1 / 3) < 0.02)

    def test_errors(self):
        with pytest.raises(ValidationError):
            resample(arr(1, 2), BlockPlan(method="mbb", block_len=3, seed=0))


class TestLbb:
    def test_single_block_identity(self):
        for b in (0.25, 0.5, 1.0):
            out = resample(
                arr(1, 2, 3, 4), BlockPlan(method="lbb", block_len=4, locality=b, seed=5)
            )
            assert list(out.values) == [1, 2, 3, 4]
            assert out.starts == (0,)

    def test_smallest_locality_windows(self):
        # n=3, l=1, floor(n*B)=1: block m draws from positions within 1 of m
        x = arr(10, 20, 30)
        plan = BlockPlan(method="lbb", block_len=1, locality=1 / 3, seed=0)
        for seed in range(300):
            out = resample(x, BlockPlan(method="lbb", block_len=1, locality=1 / 3, seed=seed))
            for m, s in enumerate(out.starts):
                assert abs(s - m) <= 1
        assert plan.locality * 3 == 1.0

    def test_j_bounds_hold(self):
        x = np.arange(30.0)
        n, l, b = 30, 4, 0.2
        halo = int(np.floor(n * b))
        for seed in range(1000):
            out = resample(x, BlockPlan(method="lbb", block_len=l, locality=b, seed=seed))
            for m, s in enumerate(out.starts):
                assert max(0, m * l - halo) <= s <= min(n - l, m * l + halo)

    def test_zero_halo_rejected(self):
        with pytest.raises(ValidationError):
            resample(np.arange(7.0), BlockPlan(method="lbb", block_len=2, locality=0.1, seed=0))

    def test_tail_window_degenerates_to_last_feasible_start(self):
        # n=10, l=7, floor(n*B)=1: block 1's offset (7) is past the last
        # feasible start (3), so its window collapses to exactly {3}
        for seed in range(50):
            out = resample(
                np.arange(10.0), BlockPlan(method="lbb", block_len=7, locality=0.1, seed=seed)
            )
            assert out.starts[1] == 3
            assert len(out.values) == 10

    def test_locality_required(self):
        with pytest.raises(ValidationError):
            BlockPlan(method="lbb", block_len=2, seed=0)
        with pytest.raises(ValidationError):
            BlockPlan(method="lbb", block_len=2, locality=1.5, seed=0)


class TestBatch:
    def test_single_equals_stream_zero(self):
        x = np.arange(15.0)
        plan = BlockPlan(method="mbb", block_len=3, seed=99)
        batch = batch_resample(x, plan, 1)
        single = resample(x, plan, stream=0)
        assert np.array_equal(batch[0].values, single.values)

    def test_same_seed_reproduces(self):
        x = np.arange(25.0)
        plan = BlockPlan(method="lbb", block_len=4, locality=0.3, seed=123)
        a = batch_resample(x, plan, 20)
        b = batch_resample(x, plan, 20)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)
            assert pa.starts == pb.starts

    def test_streams_differ(self):
        x = np.arange(50.0)
        plan = BlockPlan(method="mbb", block_len=5, seed=7)
        batch = batch_resample(x, plan, 10)
        assert len({b.starts for b in batch}) > 1

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            batch_resample(np.arange(10.0), BlockPlan(method="nbb", block_len=2, seed=0), 0)

    def test_reference_scale_lengths(self):
        # 1000 draws on a 1258-point series all preserve length
        x = np.arange(1258.0)
        plan = BlockPlan(method="nbb", block_len=6, seed=42)
        batch = batch_resample(x, plan, 1000)
        assert len(batch) == 1000
        assert all(len(b.values) == 1258 for b in batch)


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
                resample(x, plan)
            return
    else:
        plan = BlockPlan(method=method, block_len=block_len, seed=seed)
    out = resample(x, plan)
    # length preservation
    assert len(out.values) == n
    # value containment (bit-exact)
    assert np.all(np.isin(out.values, x))
    # the values are the drawn blocks laid end to end
    assert np.array_equal(out.values, reconstruct_from_starts(x, out.starts, block_len, n))
    # determinism
    again = resample(x, plan)
    assert np.array_equal(out.values, again.values)
    assert out.starts == again.starts


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(["nbb", "mbb", "lbb"]))
@settings(max_examples=100)
def test_identity_at_full_block(n, seed, method):
    x = np.arange(float(n)) * 1.5 + 3.0
    locality = 1.0 if method == "lbb" else None
    plan = BlockPlan(method=method, block_len=n, locality=locality, seed=seed)
    out = resample(x, plan)
    assert np.array_equal(out.values, x)
