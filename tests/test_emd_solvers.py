"""Tests for the transportation solvers and the linprog EMD backend."""

import numpy as np
import pytest

from repro.emd import (
    solve_emd_linprog,
    solve_emd_linprog_batch,
    solve_transportation,
    solve_unbalanced_transportation,
)
from repro.emd.transportation import TransportPlan, _northwest_corner
from repro.exceptions import ValidationError


class TestNorthwestCorner:
    def test_flow_satisfies_marginals(self):
        supply = np.array([3.0, 5.0])
        demand = np.array([4.0, 4.0])
        flow, basis = _northwest_corner(supply, demand)
        assert np.allclose(flow.sum(axis=1), supply)
        assert np.allclose(flow.sum(axis=0), demand)

    def test_basis_size_is_m_plus_n_minus_1(self):
        supply = np.array([3.0, 5.0, 2.0])
        demand = np.array([4.0, 4.0, 2.0])
        _, basis = _northwest_corner(supply, demand)
        assert len(basis) == 3 + 3 - 1


class TestLinprogBatchValidation:
    @pytest.mark.parametrize(
        "cost, supply, demand",
        [
            (np.ones((2, 2)), np.ones(2), np.ones((1, 2))),  # 1-D weight rows
            (np.ones((2, 2)), -np.ones((1, 2)), np.ones((1, 2))),  # negative mass
            (np.ones((2, 2)), np.full((1, 2), np.nan), np.ones((1, 2))),  # NaN mass
            (np.ones((2, 2)), np.ones((2, 2)), np.ones((1, 2))),  # pair counts differ
            (np.ones((2, 3)), np.ones((1, 2)), np.ones((1, 2))),  # cost shape
            (np.ones((3, 2, 2)), np.ones((2, 2)), np.ones((2, 2))),  # per-pair cost count
            (np.ones(4), np.ones((1, 2)), np.ones((1, 2))),  # cost dimensionality
            (np.full((2, 2), np.inf), np.ones((1, 2)), np.ones((1, 2))),  # non-finite cost
            (np.ones((1, 3, 2)), np.ones((1, 2)), np.ones((1, 2))),  # per-pair cost shape
            (np.ones((2, 2)), np.ones((1, 2)), np.full((1, 2), np.inf)),  # infinite mass
        ],
    )
    def test_invalid_batches_rejected(self, cost, supply, demand):
        with pytest.raises(ValidationError):
            solve_emd_linprog_batch(cost, supply, demand)

    def test_zero_mass_row_is_a_trivial_pair(self):
        result = solve_emd_linprog_batch(np.ones((2, 2)), np.zeros((1, 2)), np.ones((1, 2)))
        assert result.distances[0] == 0.0

    @pytest.mark.parametrize("max_batch_variables", [0, -3, 2.5])
    def test_invalid_chunk_cap_rejected(self, max_batch_variables):
        with pytest.raises(ValidationError):
            solve_emd_linprog_batch(
                np.ones((2, 2)),
                np.ones((1, 2)),
                np.ones((1, 2)),
                max_batch_variables=max_batch_variables,
            )


def per_pair_distances(cost, supply, demand):
    """Per-pair :func:`solve_emd_linprog` distances over stacked rows."""
    costs = cost if cost.ndim == 3 else [cost] * len(supply)
    out = []
    for c, a, b in zip(costs, supply, demand):
        plan = solve_emd_linprog(c, a, b)
        out.append(plan.cost / plan.total_flow if plan.total_flow > 0 else 0.0)
    return np.array(out)


class TestLinprogBatchScalarParity:
    """Stacking ``P`` pairs into one LP gives each pair's own exact EMD."""

    @pytest.mark.parametrize("shape", [(3, 5), (6, 6), (1, 4), (7, 2), (1, 1), (5, 1)])
    def test_matches_per_pair_lp_across_shapes(self, rng, shape):
        cost = rng.uniform(0.1, 5.0, size=shape)
        supply = rng.uniform(0.5, 2.0, size=(9, shape[0]))
        demand = rng.uniform(0.5, 2.0, size=(9, shape[1]))
        result = solve_emd_linprog_batch(cost, supply, demand)
        np.testing.assert_allclose(
            result.distances, per_pair_distances(cost, supply, demand), atol=1e-9, rtol=0
        )

    def test_zero_weight_atoms_match_per_pair(self, rng):
        # Zero weights mark atoms outside a pair's support (union-grid
        # embedding); they must take no flow and change no distance.
        cost = rng.uniform(0.5, 5.0, size=(6, 5))
        supply = rng.uniform(0.5, 2.0, size=(8, 6))
        demand = rng.uniform(0.5, 2.0, size=(8, 5))
        supply[0, [1, 4]] = 0.0
        supply[3, :4] = 0.0
        demand[5, 2] = 0.0
        demand[7, :3] = 0.0
        result = solve_emd_linprog_batch(cost, supply, demand, return_flows=True)
        np.testing.assert_allclose(
            result.distances, per_pair_distances(cost, supply, demand), atol=1e-9, rtol=0
        )
        assert np.all(result.flows[supply == 0.0] == 0.0)
        assert np.all(result.flows.transpose(0, 2, 1)[demand == 0.0] == 0.0)

    def test_unequal_masses_move_the_smaller_total(self, rng):
        # Partial matching on raw weights (paper Eq. 11): rows of very
        # different total mass are not normalised, each pair moves the
        # smaller of its two totals.
        cost = rng.uniform(0.1, 3.0, size=(4, 4))
        scale = np.array([1.0, 10.0, 0.01, 100.0, 3.0])[:, None]
        supply = rng.uniform(0.5, 2.0, size=(5, 4)) * scale
        demand = rng.uniform(0.5, 2.0, size=(5, 4))
        result = solve_emd_linprog_batch(cost, supply, demand)
        np.testing.assert_allclose(
            result.total_flows,
            np.minimum(supply.sum(axis=1), demand.sum(axis=1)),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            result.distances, per_pair_distances(cost, supply, demand), atol=1e-9, rtol=0
        )

    def test_per_pair_cost_tensor(self, rng):
        costs = rng.uniform(0.1, 5.0, size=(4, 5, 6))
        supply = rng.uniform(0.5, 2.0, size=(4, 5))
        demand = rng.uniform(0.5, 2.0, size=(4, 6))
        result = solve_emd_linprog_batch(costs, supply, demand)
        np.testing.assert_allclose(
            result.distances, per_pair_distances(costs, supply, demand), atol=1e-9, rtol=0
        )

    @pytest.mark.parametrize("max_batch_variables", [1, 16, 3 * 16, 10**6])
    def test_chunking_does_not_change_distances(self, rng, max_batch_variables):
        # 1 solves every pair alone, 16 one 4x4 pair per chunk, 48 three
        # pairs per chunk, 10**6 the whole batch as one LP.  A stacked
        # distance may move in its last bits with its chunk mates.
        cost = rng.uniform(0.1, 5.0, size=(4, 4))
        supply = rng.uniform(0.5, 2.0, size=(10, 4))
        demand = rng.uniform(0.5, 2.0, size=(10, 4))
        whole = solve_emd_linprog_batch(cost, supply, demand)
        chunked = solve_emd_linprog_batch(
            cost, supply, demand, max_batch_variables=max_batch_variables
        )
        np.testing.assert_allclose(chunked.distances, whole.distances, atol=1e-12, rtol=0)

    def test_balanced_flows_meet_both_marginals(self, rng):
        cost = rng.uniform(0.1, 5.0, size=(5, 6))
        supply = rng.uniform(0.5, 2.0, size=(3, 5))
        demand = rng.uniform(0.5, 2.0, size=(3, 6))
        supply /= supply.sum(axis=1, keepdims=True)
        demand /= demand.sum(axis=1, keepdims=True)
        result = solve_emd_linprog_batch(cost, supply, demand, return_flows=True)
        assert result.flows.shape == (3, 5, 6)
        assert np.all(result.flows >= 0.0)
        np.testing.assert_allclose(result.flows.sum(axis=2), supply, atol=1e-9)
        np.testing.assert_allclose(result.flows.sum(axis=1), demand, atol=1e-9)
        np.testing.assert_allclose(
            result.costs, (result.flows * cost).sum(axis=(1, 2)), rtol=1e-12
        )

    def test_identical_rows_have_zero_distance(self, rng):
        grid = np.arange(5.0)
        cost = np.abs(grid[:, None] - grid[None, :])
        weights = rng.uniform(0.5, 2.0, size=(4, 5))
        result = solve_emd_linprog_batch(cost, weights, weights.copy())
        np.testing.assert_allclose(result.distances, 0.0, atol=1e-12)

    def test_empty_batch(self):
        result = solve_emd_linprog_batch(
            np.ones((3, 3)), np.empty((0, 3)), np.empty((0, 3)), return_flows=True
        )
        assert result.distances.size == 0
        assert result.flows.shape == (0, 3, 3)

    def test_plan_requires_return_flows(self):
        result = solve_emd_linprog_batch(np.ones((2, 2)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValidationError, match="return_flows"):
            result.plan(0)

    def test_presolve_gives_the_same_distances(self, rng):
        cost = rng.uniform(0.1, 5.0, size=(4, 5))
        supply = rng.uniform(0.5, 2.0, size=(6, 4))
        demand = rng.uniform(0.5, 2.0, size=(6, 5))
        plain = solve_emd_linprog_batch(cost, supply, demand)
        presolved = solve_emd_linprog_batch(cost, supply, demand, presolve=True)
        np.testing.assert_allclose(presolved.distances, plain.distances, atol=1e-9, rtol=0)

    def test_failed_chunk_is_retried_with_presolve(self, rng, monkeypatch):
        from repro.emd import linprog_batch as module

        real_linprog = module.linprog
        calls = []

        def flaky_linprog(*args, **kwargs):
            calls.append(kwargs["options"]["presolve"])
            result = real_linprog(*args, **kwargs)
            if len(calls) == 1:
                result.success = False
            return result

        monkeypatch.setattr(module, "linprog", flaky_linprog)
        cost = rng.uniform(0.1, 5.0, size=(3, 3))
        supply = rng.uniform(0.5, 2.0, size=(2, 3))
        demand = rng.uniform(0.5, 2.0, size=(2, 3))
        result = solve_emd_linprog_batch(cost, supply, demand)
        assert calls == [False, True]
        np.testing.assert_allclose(
            result.distances, per_pair_distances(cost, supply, demand), atol=1e-9, rtol=0
        )


class TestSolveTransportation:
    def test_trivial_single_cell(self):
        plan = solve_transportation(np.array([[2.0]]), np.array([3.0]), np.array([3.0]))
        assert plan.cost == pytest.approx(6.0)
        assert plan.total_flow == pytest.approx(3.0)

    def test_known_textbook_instance(self):
        # Classic 3x3 transportation example with optimum 39.
        cost = np.array([[8.0, 6.0, 10.0], [9.0, 12.0, 13.0], [14.0, 9.0, 16.0]])
        supply = np.array([2.0, 2.0, 2.0])
        demand = np.array([2.0, 2.0, 2.0])
        plan = solve_transportation(cost, supply, demand)
        reference = solve_emd_linprog(cost, supply, demand)
        assert plan.cost == pytest.approx(reference.cost, rel=1e-6)

    def test_flow_respects_marginals(self):
        cost = np.array([[1.0, 3.0], [2.0, 1.0]])
        supply = np.array([4.0, 6.0])
        demand = np.array([5.0, 5.0])
        plan = solve_transportation(cost, supply, demand)
        assert np.allclose(plan.flow.sum(axis=1), supply, atol=1e-6)
        assert np.allclose(plan.flow.sum(axis=0), demand, atol=1e-4)

    def test_zero_total_mass(self):
        plan = solve_transportation(np.ones((2, 2)), np.zeros(2), np.zeros(2))
        assert plan.cost == 0.0
        assert plan.total_flow == 0.0

    def test_unbalanced_rejected(self):
        with pytest.raises(ValidationError):
            solve_transportation(np.ones((2, 2)), np.array([1.0, 1.0]), np.array([3.0, 3.0]))

    def test_negative_supply_rejected(self):
        with pytest.raises(ValidationError):
            solve_transportation(np.ones((2, 2)), np.array([-1.0, 3.0]), np.array([1.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_transportation(np.ones((2, 3)), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linprog_on_random_balanced_instances(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        cost = rng.uniform(0.0, 10.0, size=(m, n))
        supply = rng.uniform(0.1, 5.0, size=m)
        demand = rng.uniform(0.1, 5.0, size=n)
        demand *= supply.sum() / demand.sum()
        simplex = solve_transportation(cost, supply, demand)
        linprog = solve_emd_linprog(cost, supply, demand)
        assert simplex.cost == pytest.approx(linprog.cost, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_final_flows_satisfy_marginals_to_float_precision(self, seed):
        # The epsilon perturbation steers the pivots only; the returned
        # flows are re-derived from the basis tree on the *unperturbed*
        # marginals, so they must match them to float rounding — this is
        # what keeps the simplex inside the cross-solver 1e-9 parity
        # envelope (see tests/test_solver_parity.py).
        rng = np.random.default_rng(200 + seed)
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        cost = rng.uniform(0.0, 10.0, size=(m, n))
        supply = rng.uniform(0.1, 5.0, size=m)
        demand = rng.uniform(0.1, 5.0, size=n)
        demand *= supply.sum() / demand.sum()
        plan = solve_transportation(cost, supply, demand)
        np.testing.assert_allclose(plan.flow.sum(axis=1), supply, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.flow.sum(axis=0), demand, rtol=0, atol=1e-12)


class TestSolveUnbalanced:
    def test_total_flow_is_smaller_mass(self):
        cost = np.ones((2, 3))
        supply = np.array([2.0, 2.0])
        demand = np.array([5.0, 5.0, 5.0])
        plan = solve_unbalanced_transportation(cost, supply, demand)
        assert plan.total_flow == pytest.approx(4.0)

    def test_balanced_input_delegates(self):
        cost = np.array([[1.0, 2.0], [3.0, 1.0]])
        supply = np.array([1.0, 1.0])
        demand = np.array([1.0, 1.0])
        plan = solve_unbalanced_transportation(cost, supply, demand)
        assert plan.cost == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linprog_on_random_unbalanced_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cost = rng.uniform(0.0, 10.0, size=(m, n))
        supply = rng.uniform(0.1, 5.0, size=m)
        demand = rng.uniform(0.1, 5.0, size=n)
        simplex = solve_unbalanced_transportation(cost, supply, demand)
        linprog = solve_emd_linprog(cost, supply, demand)
        assert simplex.cost == pytest.approx(linprog.cost, rel=1e-5, abs=1e-6)
        assert simplex.total_flow == pytest.approx(linprog.total_flow, rel=1e-6)


class TestLinprogBackend:
    def test_flow_nonnegative(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(0, 5, size=(4, 3))
        plan = solve_emd_linprog(cost, rng.uniform(1, 2, 4), rng.uniform(1, 2, 3))
        assert np.all(plan.flow >= 0)

    def test_flow_respects_capacity_constraints(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0, 5, size=(4, 3))
        supply = rng.uniform(1, 2, 4)
        demand = rng.uniform(1, 2, 3)
        plan = solve_emd_linprog(cost, supply, demand)
        assert np.all(plan.flow.sum(axis=1) <= supply + 1e-8)
        assert np.all(plan.flow.sum(axis=0) <= demand + 1e-8)

    def test_total_flow_equals_min_mass(self):
        cost = np.ones((2, 2))
        plan = solve_emd_linprog(cost, np.array([1.0, 1.0]), np.array([10.0, 10.0]))
        assert plan.total_flow == pytest.approx(2.0)

    def test_zero_mass_short_circuit(self):
        plan = solve_emd_linprog(np.ones((2, 2)), np.zeros(2), np.array([1.0, 1.0]))
        assert plan.cost == 0.0
        assert plan.total_flow == 0.0

    def test_identical_distributions_zero_cost(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = solve_emd_linprog(cost, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert plan.cost == pytest.approx(0.0, abs=1e-9)

    def test_result_type(self):
        plan = solve_emd_linprog(np.ones((1, 1)), np.array([1.0]), np.array([1.0]))
        assert isinstance(plan, TransportPlan)
