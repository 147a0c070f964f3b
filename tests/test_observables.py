"""Magnetization, energy and Binder-cumulant observable tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import summarize_chain
from repro.observables import (
    abs_magnetization,
    binder_cumulant,
    binder_from_moments,
    energies_per_spin,
    energy_per_spin,
    magnetization,
    magnetizations,
    total_energy,
)

from .conftest import make_lattice


class TestMagnetization:
    def test_ordered(self):
        assert magnetization(np.ones((4, 4), dtype=np.float32)) == 1.0
        assert magnetization(-np.ones((4, 4), dtype=np.float32)) == -1.0
        assert abs_magnetization(-np.ones((4, 4), dtype=np.float32)) == 1.0

    def test_balanced(self):
        plain = np.ones((4, 4), dtype=np.float32)
        plain[:, ::2] = -1.0
        assert magnetization(plain) == 0.0


class TestEnergy:
    def test_ground_state(self):
        assert energy_per_spin(np.ones((6, 6), dtype=np.float32)) == -2.0
        assert total_energy(np.ones((6, 6), dtype=np.float32)) == -72.0

    def test_antiferromagnetic_state(self):
        from repro.core.lattice import checkerboard_mask

        plain = (2.0 * checkerboard_mask((6, 6), "black") - 1.0).astype(np.float32)
        assert energy_per_spin(plain) == 2.0

    def test_single_flip_costs_eight(self):
        plain = np.ones((6, 6), dtype=np.float32)
        base = total_energy(plain)
        plain[2, 3] = -1.0
        assert total_energy(plain) - base == 8.0

    def test_forward_sum_equals_half_full_sum(self):
        """The forward-bond convention matches 0.5 * sum(sigma * nn)."""
        from repro.core.kernels import neighbor_sum_roll

        for seed in range(5):
            plain = make_lattice((6, 8), seed=seed)
            half_sum = -0.5 * float(
                np.sum(plain.astype(np.float64) * neighbor_sum_roll(plain))
            )
            assert total_energy(plain) == pytest.approx(half_sum, rel=1e-12)

    def test_side_two_torus_double_bonds(self):
        """On a 2xN torus vertical bonds are doubled; conventions agree."""
        plain = make_lattice((2, 6), seed=3)
        from repro.core.kernels import neighbor_sum_roll

        half_sum = -0.5 * float(
            np.sum(plain.astype(np.float64) * neighbor_sum_roll(plain))
        )
        assert total_energy(plain) == pytest.approx(half_sum, rel=1e-12)


class TestBatchedEstimators:
    """The chain-axis estimators are bit-equal to the per-chain functions."""

    @staticmethod
    def _per_chain(plains):
        return (
            np.array([magnetization(p) for p in plains]),
            np.array([energy_per_spin(p) for p in plains]),
        )

    @pytest.mark.parametrize(
        "shape", [(6, 2, 2), (5, 2, 6), (4, 6, 10), (1, 64, 64), (3, 130, 128)]
    )
    def test_random_stacks_bit_equal(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            plains = np.where(
                rng.random(shape) < rng.random(), -1.0, 1.0
            ).astype(np.float32)
            m_ref, e_ref = self._per_chain(plains)
            assert np.array_equal(magnetizations(plains), m_ref)
            assert np.array_equal(energies_per_spin(plains), e_ref)

    def test_side_two_torus_double_bonds(self):
        # Ordered 2x2 torus: every site meets each neighbour twice, so the
        # forward-bond sum is 8 bonds of -1 and e = -2, as per chain.
        plains = np.stack([
            np.ones((2, 2), dtype=np.float32),
            np.array([[1, -1], [-1, 1]], dtype=np.float32),
            np.array([[1, 1], [-1, 1]], dtype=np.float32),
        ])
        _, e_ref = self._per_chain(plains)
        np.testing.assert_array_equal(e_ref, [-2.0, 2.0, 0.0])
        assert np.array_equal(energies_per_spin(plains), e_ref)

    @pytest.mark.parametrize("updater", ["compact", "checkerboard", "masked_conv"])
    def test_ensemble_methods_match_per_chain(self, updater):
        for temps in ([2.3], [1.8, 2.3, 3.1]):
            ens = EnsembleSimulation(10, temps, updater=updater, seed=4)
            ens.run(3)
            m_ref, e_ref = self._per_chain(ens.lattices)
            assert np.array_equal(ens.magnetizations(), m_ref)
            assert np.array_equal(ens.energies_per_spin(), e_ref)

    @pytest.mark.parametrize("temps", [[2.4], [1.9, 2.4, 3.0]])
    def test_sample_matches_per_chain_loop(self, temps):
        ens = EnsembleSimulation(8, temps, seed=6)
        ref = EnsembleSimulation.from_state_dict(ens.state_dict())
        results = ens.sample(n_samples=12, burn_in=2, thin=2)
        # The per-chain loop sample() replaced.
        ref.run(2)
        m_series = np.empty((len(temps), 12))
        e_series = np.empty((len(temps), 12))
        for k in range(12):
            ref.run(2)
            plains = ref.lattices
            for b in range(len(temps)):
                m_series[b, k] = magnetization(plains[b])
                e_series[b, k] = energy_per_spin(plains[b])
        expected = [
            summarize_chain(ref.temperatures[b], m_series[b], e_series[b])
            for b in range(len(temps))
        ]
        for got, want in zip(results, expected):
            assert np.array_equal(got.m_series, want.m_series)
            assert np.array_equal(got.e_series, want.e_series)
            for name in ("temperature", "n_samples", "abs_m", "abs_m_err",
                         "m2", "m4", "u4", "u4_err", "energy", "energy_err"):
                assert getattr(got, name) == getattr(want, name), name


class TestBinder:
    def test_limits(self):
        # Perfectly ordered: m = +-1 -> U4 = 2/3.
        ordered = np.ones(1000)
        assert binder_cumulant(ordered) == pytest.approx(2.0 / 3.0)
        # Gaussian m (disordered phase): <m^4> = 3 <m^2>^2 -> U4 = 0.
        rng = np.random.default_rng(0)
        gaussian = rng.normal(0.0, 0.1, size=200_000)
        assert binder_cumulant(gaussian) == pytest.approx(0.0, abs=0.02)

    def test_from_moments(self):
        assert binder_from_moments(1.0, 1.0) == pytest.approx(2.0 / 3.0)
        assert binder_from_moments(1.0, 3.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            binder_from_moments(0.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            binder_from_moments(1.0, -1.0)
        with pytest.raises(ValueError, match="sample"):
            binder_cumulant(np.array([]))

    def test_two_point_distribution(self):
        """m = +-m0 with equal probability gives U4 = 2/3 regardless of m0."""
        samples = np.array([0.5, -0.5] * 100)
        assert binder_cumulant(samples) == pytest.approx(2.0 / 3.0)
