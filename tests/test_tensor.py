import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop.tensor import _BLOCK_DRAWS, RngStream


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42, 0)
        b = RngStream(42, 0)
        assert [a.next_uint64() for _ in range(50)] == \
               [b.next_uint64() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = RngStream(1, 0)
        b = RngStream(2, 0)
        assert [a.next_uint64() for _ in range(8)] != \
               [b.next_uint64() for _ in range(8)]

    def test_different_streams_differ(self):
        a = RngStream(7, 0)
        b = RngStream(7, 1)
        assert [a.next_uint64() for _ in range(8)] != \
               [b.next_uint64() for _ in range(8)]

    @given(st.integers(0, 2**63 - 1), st.integers(0, 1000),
           st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_block_draws_match_scalar_draws(self, seed, stream, n):
        scalar = RngStream(seed, stream)
        block = RngStream(seed, stream)
        expected = np.array([scalar.next_uint64() for _ in range(n)],
                            dtype=np.uint64)
        got = block._next_block(n)
        assert (got == expected).all()

    @pytest.mark.parametrize("n", [_BLOCK_DRAWS - 1, _BLOCK_DRAWS,
                                   _BLOCK_DRAWS + 1, 3 * _BLOCK_DRAWS + 7])
    def test_block_draws_cross_pass_boundaries(self, n):
        scalar = RngStream(2**64 - 5, 9)
        block = RngStream(2**64 - 5, 9)
        scalar.next_uint64()
        block.next_uint64()
        expected = np.array([scalar.next_uint64() for _ in range(n)],
                            dtype=np.uint64)
        got = block._next_block(n)
        assert got.dtype == np.uint64 and (got == expected).all()
        assert block.position == scalar.position == n + 1
        assert block.next_uint64() == scalar.next_uint64()

    def test_draws_are_not_consumed_until_advanced(self):
        rng, ref = RngStream(8, 1), RngStream(8, 1)
        rng.uniform(size=5)
        ref.uniform(size=5)
        state, position = rng._state, rng.position
        units, raw = rng._draws(4, unit=True), rng._draws(4)
        assert (rng._state, rng.position) == (state, position)
        expected = [ref.next_uint64() for _ in range(4)]
        assert raw.dtype == np.uint64 and raw.tolist() == expected
        assert units.tolist() == [(x >> 11) * 2.0**-53 for x in expected]
        rng._advance(3)
        assert rng.position == position + 3
        assert rng.uniform() == units[3]

    def test_pinned_uniform_and_permutation(self):
        # values measured before block draws were computed in passes
        rng = RngStream(2024, 3)
        assert [float(x).hex() for x in rng.uniform(-1.0, 3.0, size=4)] == [
            "0x1.83c0f88a49200p-8", "-0x1.ee8564e3e504cp-1",
            "0x1.3adda01161240p-1", "0x1.db4692d00f5a4p+0"]
        assert rng.permutation(12).tolist() == \
            [10, 5, 11, 4, 9, 6, 7, 1, 8, 2, 3, 0]
        assert rng.position == 16
        rng = RngStream(77, 2)
        u = rng.uniform(0.5, 2.0, size=30001)
        perm = rng.permutation(30001).astype(np.int64)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "a8e270a9cb7de8c74ab49c9680a42f57e74d51cf420c2a8c6a726a93d8cc568c")
        assert hashlib.sha256(perm.tobytes()).hexdigest() == (
            "f6ed5c549fb76cafe326a323b1e9fb835c44e5aba4dd870fc7756d46e8e39b07")
        assert rng.position == 60002
        assert rng.next_uint64() == 9304586329907038536

    def test_mixed_consumption_is_one_sequence(self):
        a = RngStream(3, 5)
        b = RngStream(3, 5)
        ref = [b.next_uint64() for _ in range(10)]
        got = list(a._next_block(3)) + [a.next_uint64()] + list(a._next_block(6))
        assert [int(x) for x in got] == ref

    def test_streams_share_no_consecutive_pairs(self):
        # distinct per-stream increments make length-2 overlaps impossible;
        # spot-check a window of draws across many streams
        streams = [RngStream(11, sid) for sid in range(64)]
        pairs = set()
        for s in streams:
            draws = [s.next_uint64() for _ in range(128)]
            for x, y in zip(draws, draws[1:]):
                assert (x, y) not in pairs
                pairs.add((x, y))

    @given(st.integers(0, 2**31), st.floats(-5, 5), st.floats(0, 10),
           st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_uniform_range(self, seed, low, width, n):
        rng = RngStream(seed, 0)
        vals = rng.uniform(low, low + width, size=n)
        assert vals.shape == (n,)
        assert (vals >= low).all()
        assert (vals <= low + width).all()

    def test_uniform_scalar(self):
        rng = RngStream(5, 0)
        x = rng.uniform()
        assert isinstance(x, float)
        assert 0.0 <= x < 1.0

    def test_uniform_mean_near_half(self):
        rng = RngStream(12, 4)
        vals = rng.uniform(size=20000)
        assert abs(vals.mean() - 0.5) < 0.01

    def test_integers_range_and_coverage(self):
        rng = RngStream(9, 2)
        vals = rng.integers(7, size=5000)
        assert vals.min() >= 0 and vals.max() < 7
        assert set(np.unique(vals)) == set(range(7))

    def test_integers_rejects_nonpositive_bound(self):
        rng = RngStream(9, 2)
        with pytest.raises(ValueError):
            rng.integers(0)

    @given(st.integers(0, 2**31), st.integers(1, 500))
    @settings(max_examples=30, deadline=None)
    def test_permutation_is_permutation(self, seed, n):
        rng = RngStream(seed, 3)
        perm = rng.permutation(n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_permutation_varies_across_calls(self):
        rng = RngStream(1, 3)
        a = rng.permutation(50)
        b = rng.permutation(50)
        assert not (a == b).all()

    def test_position_counts_draws(self):
        rng = RngStream(1, 0)
        rng.next_uint64()
        rng.uniform(size=9)
        assert rng.position == 10

