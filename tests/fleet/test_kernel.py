"""The batched fleet solver against its scalar reference, exactly."""

import numpy as np
import pytest

from repro.core.smp import (
    SmpKernel,
    failure_probabilities,
    temporal_reliability,
    temporal_reliability_profile,
)
from repro.core.states import State
from repro.fleet import FleetKernel, solve_fleet


def random_kernel(rng, horizon, mass=0.8):
    k = np.zeros((8, horizon + 1))
    for rows in (slice(0, 4), slice(4, 8)):
        raw = rng.random((4, horizon))
        raw /= raw.sum()
        k[rows, 1:] = raw * mass
    return SmpKernel(k, 6.0)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestFleetKernel:
    def test_stacks_and_pads_ragged_horizons(self, rng):
        kernels = [random_kernel(rng, h) for h in (5, 12, 9)]
        fleet = FleetKernel(["a", "b", "c"], kernels)
        assert len(fleet) == 3
        assert fleet.max_horizon == 12
        assert fleet.k.shape == (3, 8, 13)
        np.testing.assert_array_equal(fleet.horizons, [5, 12, 9])
        # Machine a's real kernel sits in the first 6 columns, zeros after.
        np.testing.assert_array_equal(fleet.k[0, :, :6], kernels[0].k)
        assert not fleet.k[0, :, 6:].any()

    def test_all_tensors_contiguous_float64(self, rng):
        fleet = FleetKernel(["a", "b"], [random_kernel(rng, 8) for _ in range(2)])
        for name in ("k", "k12r", "k21r", "c1", "c2"):
            arr = getattr(fleet, name)
            assert arr.flags["C_CONTIGUOUS"]
            assert arr.dtype == np.float64
            assert arr.base is None

    def test_index_lookup(self, rng):
        fleet = FleetKernel(["x", "y"], [random_kernel(rng, 4) for _ in range(2)])
        assert fleet.index("y") == 1
        with pytest.raises(KeyError, match="not in this fleet"):
            fleet.index("z")

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError, match="1 machine ids but 2"):
            FleetKernel(["a"], [random_kernel(rng, 4) for _ in range(2)])

    def test_rejects_duplicate_ids(self, rng):
        with pytest.raises(ValueError, match="unique"):
            FleetKernel(["a", "a"], [random_kernel(rng, 4) for _ in range(2)])

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one machine"):
            FleetKernel([], [])

    def test_rejects_non_kernels(self, rng):
        with pytest.raises(TypeError, match="expected SmpKernel"):
            FleetKernel(["a"], [np.zeros((8, 5))])


class TestSolveFleet:
    def test_matches_scalar_solver_uniform_horizon(self, rng):
        kernels = [random_kernel(rng, 40) for _ in range(20)]
        inits = [State(int(rng.integers(1, 6))) for _ in range(20)]
        fleet = FleetKernel([f"m{i}" for i in range(20)], kernels)
        solution = solve_fleet(fleet, inits)
        for i, (kern, init) in enumerate(zip(kernels, inits)):
            np.testing.assert_allclose(
                solution.fail[i], failure_probabilities(kern, init), atol=1e-9
            )
            assert solution.tr[i] == pytest.approx(
                temporal_reliability(kern, init), abs=1e-9
            )

    def test_matches_scalar_solver_ragged_horizons(self, rng):
        horizons = [3, 17, 30, 8, 1]
        kernels = [random_kernel(rng, h) for h in horizons]
        inits = [1, 2, 1, 2, 1]
        fleet = FleetKernel([f"m{i}" for i in range(5)], kernels)
        solution = solve_fleet(fleet, inits)
        for i, (kern, init) in enumerate(zip(kernels, inits)):
            np.testing.assert_allclose(
                solution.fail[i], failure_probabilities(kern, init), atol=1e-9
            )
            profile = temporal_reliability_profile(kern, init)
            np.testing.assert_allclose(
                solution.profiles[i, : kern.horizon + 1], profile, atol=1e-9
            )
            # Beyond its own horizon the profile holds the last real value.
            np.testing.assert_allclose(
                solution.profiles[i, kern.horizon :], profile[-1], atol=1e-9
            )

    def test_failure_init_states_are_absorbing(self, rng):
        kernels = [random_kernel(rng, 6) for _ in range(3)]
        fleet = FleetKernel(["a", "b", "c"], kernels)
        solution = solve_fleet(fleet, [3, 4, 5])
        np.testing.assert_array_equal(solution.fail, np.eye(3))
        np.testing.assert_array_equal(solution.tr, np.zeros(3))
        for i in range(3):
            assert solution.profiles[i, 0] == 1.0
            assert not solution.profiles[i, 1:].any()

    def test_mixed_operational_and_failed(self, rng):
        kernels = [random_kernel(rng, 10) for _ in range(4)]
        inits = [1, 4, 2, 3]
        fleet = FleetKernel(["a", "b", "c", "d"], kernels)
        solution = solve_fleet(fleet, inits)
        for i, (kern, init) in enumerate(zip(kernels, inits)):
            np.testing.assert_allclose(
                solution.fail[i], failure_probabilities(kern, init), atol=1e-9
            )

    def test_rejects_wrong_init_count(self, rng):
        fleet = FleetKernel(["a"], [random_kernel(rng, 4)])
        with pytest.raises(ValueError, match="one init state per machine"):
            solve_fleet(fleet, [1, 2])

    def test_rejects_invalid_init_state(self, rng):
        fleet = FleetKernel(["a"], [random_kernel(rng, 4)])
        with pytest.raises(ValueError, match="S1..S5"):
            solve_fleet(fleet, [6])

    def test_probabilities_bounded(self, rng):
        kernels = [random_kernel(rng, 25, mass=1.0) for _ in range(10)]
        fleet = FleetKernel([f"m{i}" for i in range(10)], kernels)
        solution = solve_fleet(fleet, [1] * 10)
        assert np.all(solution.fail >= 0.0) and np.all(solution.fail <= 1.0)
        assert np.all(solution.tr >= 0.0) and np.all(solution.tr <= 1.0)
        assert np.all(solution.profiles >= 0.0) and np.all(solution.profiles <= 1.0)
