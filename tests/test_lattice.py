"""Lattice construction and layout-conversion tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lattice import (
    CompactLattice,
    checkerboard_mask,
    cold_lattice,
    grid_to_plain,
    plain_to_grid,
    plain_to_quarters,
    quarters_to_plain,
    random_lattice,
    validate_spins,
)
from repro.rng import PhiloxStream

from .conftest import make_lattice


class TestConstruction:
    def test_random_lattice_values(self, stream):
        plain = random_lattice((32, 48), stream)
        assert plain.shape == (32, 48)
        assert plain.dtype == np.float32
        assert set(np.unique(plain)) <= {-1.0, 1.0}

    def test_random_lattice_bias(self, stream):
        plain = random_lattice((64, 64), stream, p_up=0.9)
        assert plain.mean() > 0.7

    def test_random_lattice_bad_shape(self, stream):
        with pytest.raises(ValueError, match="positive"):
            random_lattice((0, 4), stream)

    def test_cold_lattice(self):
        assert np.all(cold_lattice((4, 4)) == 1.0)
        assert np.all(cold_lattice((4, 4), value=-1) == -1.0)
        with pytest.raises(ValueError, match="spin value"):
            cold_lattice((4, 4), value=0)

    def test_validate_spins(self):
        validate_spins(cold_lattice((4, 4)))
        with pytest.raises(ValueError, match="must be \\+/-1"):
            validate_spins(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="2D"):
            validate_spins(np.ones((4, 4, 4), dtype=np.float32))


class TestGridLayout:
    def test_known_placement(self):
        plain = np.arange(24, dtype=np.float32).reshape(4, 6)
        grid = plain_to_grid(plain, (2, 3))
        assert grid.shape == (2, 2, 2, 3)
        # Block (1, 0) holds rows 2-3, cols 0-2.
        assert np.array_equal(grid[1, 0], plain[2:4, 0:3])

    def test_roundtrip(self):
        plain = make_lattice((12, 20))
        for block in [(3, 5), (12, 20), (4, 4), (1, 1), (6, 10)]:
            assert np.array_equal(grid_to_plain(plain_to_grid(plain, block)), plain)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            plain_to_grid(np.zeros((4, 6), dtype=np.float32), (3, 3))

    def test_bad_block_raises(self):
        with pytest.raises(ValueError, match="positive"):
            plain_to_grid(np.zeros((4, 6), dtype=np.float32), (0, 2))

    def test_grid_to_plain_rank_check(self):
        with pytest.raises(ValueError, match="rank-4"):
            grid_to_plain(np.zeros((2, 3, 4), dtype=np.float32))


class TestQuarters:
    def test_known_placement(self):
        plain = np.arange(16, dtype=np.float32).reshape(4, 4)
        q00, q01, q10, q11 = plain_to_quarters(plain)
        assert np.array_equal(q00, [[0, 2], [8, 10]])
        assert np.array_equal(q01, [[1, 3], [9, 11]])
        assert np.array_equal(q10, [[4, 6], [12, 14]])
        assert np.array_equal(q11, [[5, 7], [13, 15]])

    def test_roundtrip(self):
        plain = make_lattice((10, 14))
        assert np.array_equal(quarters_to_plain(*plain_to_quarters(plain)), plain)

    def test_odd_shape_raises(self):
        with pytest.raises(ValueError, match="even"):
            plain_to_quarters(np.zeros((3, 4), dtype=np.float32))

    def test_mismatched_quarters_raise(self):
        q = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            quarters_to_plain(q, q, q, np.zeros((2, 3), dtype=np.float32))

    def test_quarters_hold_one_color_each(self):
        mask = checkerboard_mask((8, 8), "black")
        q00, q01, q10, q11 = plain_to_quarters(mask)
        assert np.all(q00 == 1.0) and np.all(q11 == 1.0)
        assert np.all(q01 == 0.0) and np.all(q10 == 0.0)


class TestCheckerboardMask:
    def test_complementary(self):
        black = checkerboard_mask((6, 8), "black")
        white = checkerboard_mask((6, 8), "white")
        assert np.array_equal(black + white, np.ones((6, 8), dtype=np.float32))

    def test_no_adjacent_same_color(self):
        black = checkerboard_mask((8, 8), "black")
        assert np.all(black + np.roll(black, 1, axis=0) == 1.0)
        assert np.all(black + np.roll(black, 1, axis=1) == 1.0)

    def test_origin_is_black(self):
        assert checkerboard_mask((4, 4), "black")[0, 0] == 1.0

    def test_bad_color(self):
        with pytest.raises(ValueError, match="color"):
            checkerboard_mask((4, 4), "red")


class TestCompactLattice:
    def test_roundtrip_and_shapes(self):
        plain = make_lattice((16, 24))
        lat = CompactLattice.from_plain(plain, (4, 6))
        assert lat.grid_shape == (2, 2, 4, 6)
        assert lat.plain_shape == (16, 24)
        assert lat.n_sites == 16 * 24
        assert np.array_equal(lat.to_plain(), plain)

    def test_default_block_is_whole_quarter(self):
        plain = make_lattice((8, 12))
        lat = CompactLattice.from_plain(plain)
        assert lat.grid_shape == (1, 1, 4, 6)

    def test_black_white_accessors(self):
        plain = make_lattice((8, 8))
        lat = CompactLattice.from_plain(plain)
        assert lat.black() == (lat.s00, lat.s11)
        assert lat.white() == (lat.s01, lat.s10)

    def test_copy_is_independent(self):
        lat = CompactLattice.from_plain(make_lattice((8, 8)))
        dup = lat.copy()
        dup.s00[...] = -dup.s00
        assert not np.array_equal(dup.s00, lat.s00)

    @pytest.mark.parametrize("block", [None, (2, 3), (4, 6)])
    def test_batched_to_plain_matches_per_chain(self, block):
        plains = np.stack([make_lattice((8, 12), seed=s) for s in range(3)])
        lat = CompactLattice.stack(
            [CompactLattice.from_plain(p, block) for p in plains]
        )
        out = lat.to_plain()
        assert np.array_equal(out, plains)
        assert np.array_equal(
            out, np.stack([lat.chain(b).to_plain() for b in range(3)])
        )
        assert not any(
            np.shares_memory(out, t) for t in (lat.s00, lat.s01, lat.s10, lat.s11)
        )

    def test_grid_to_plain_is_a_copy(self):
        # A 1 x 1 grid reshapes to a view; the plain lattice must not alias
        # the state that in-place sweeps mutate.
        grid = plain_to_grid(make_lattice((6, 6)), (6, 6))
        for g in (grid, grid[None]):
            assert not np.shares_memory(grid_to_plain(g), grid)

    def test_shape_validation(self):
        good = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="rank 4"):
            CompactLattice(np.zeros((2, 2)), good, good, good)
        with pytest.raises(ValueError, match="shape"):
            CompactLattice(good, good, good, np.zeros((1, 1, 2, 3), dtype=np.float32))


class TestPropertyRoundtrips:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        r=st.integers(1, 6),
        c=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_grid_roundtrip(self, m, n, r, c, seed):
        plain = random_lattice((m * r, n * c), PhiloxStream(seed, 0))
        assert np.array_equal(grid_to_plain(plain_to_grid(plain, (r, c))), plain)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        r=st.integers(1, 4),
        c=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_compact_roundtrip(self, m, n, r, c, seed):
        plain = random_lattice((2 * m * r, 2 * n * c), PhiloxStream(seed, 1))
        lat = CompactLattice.from_plain(plain, (r, c))
        assert np.array_equal(lat.to_plain(), plain)
