"""Dividing-rectangles engine: normalization, trisection geometry, the four
selection strategies against brute-force oracles, and full-run behavior."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modirect import engine
from modirect.cases import build_model, make_case, simulate_measurement
from modirect.engine import (MAX_DEPTH, Rectangle, canonical_cell_key, from_unit,
                             potentially_optimal_single, run, select_mo,
                             select_mo_hv, select_ns, select_pareto_front, to_unit)
from modirect.errors import InvalidInputError, InvalidStateError
from modirect.moo import ParetoArchive
from modirect.objectives import Evaluator


def random_partition(rng, n_rects, n_objectives=1, max_exp=4):
    objs = rng.uniform(-1.0, 0.0, (n_rects, n_objectives))
    exps = rng.integers(0, max_exp + 1, n_rects)
    return objs, exps


def oracle_potentially_optimal(fvals, exps, epsilon):
    """Direct K-feasibility check of both selection inequalities."""
    d = 3.0 ** -exps.astype(float)
    f_min = fvals.min()
    threshold = f_min - epsilon * abs(f_min)
    selected = []
    for i in range(fvals.size):
        k_lo = (fvals[i] - threshold) / d[i]
        k_hi = np.inf
        feasible = True
        for j in range(fvals.size):
            if j == i:
                continue
            if d[j] == d[i]:
                if fvals[j] < fvals[i]:
                    feasible = False
                    break
            elif d[j] < d[i]:
                k_lo = max(k_lo, (fvals[i] - fvals[j]) / (d[i] - d[j]))
            else:
                k_hi = min(k_hi, (fvals[j] - fvals[i]) / (d[j] - d[i]))
        if feasible and max(k_lo, 0.0) <= k_hi:
            selected.append(i)
    return np.array(selected, dtype=np.int64)


class TestUnitMapping:
    def test_identity_bounds(self):
        x = np.full(3, 0.5)
        np.testing.assert_array_equal(from_unit((np.zeros(3), np.ones(3)), x), x)

    def test_endpoint_map(self):
        out = from_unit((np.array([-1.0, -1.0]), np.array([3.0, 1.0])),
                        np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [-1.0, 1.0])

    @given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_round_trip(self, x):
        x = np.array(x)
        lo = -2.0 * np.ones(x.size)
        hi = np.arange(1.0, x.size + 1.0)
        np.testing.assert_allclose(to_unit((lo, hi), from_unit((lo, hi), x)), x,
                                   atol=1e-12)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            from_unit((np.ones(2), np.ones(2)), np.zeros(2))


class TestRectangle:
    def test_center_d_volume(self):
        rect = Rectangle(cell=(1, 4), depths=(1, 2), objectives=np.zeros(2))
        np.testing.assert_allclose(rect.center, [0.5, 0.5])
        assert rect.d == pytest.approx(1.0 / 3.0)
        assert rect.volume == pytest.approx(3.0 ** -3)

    def test_canonical_key_reduces_middle_thirds(self):
        # the middle-third lineage of a cell keeps the same center
        assert canonical_cell_key((4,), (2,)) == canonical_cell_key((1,), (1,))
        assert canonical_cell_key((3,), (2,)) != canonical_cell_key((1,), (1,))


class TestPotentiallyOptimalSingle:
    def test_single_rectangle(self):
        np.testing.assert_array_equal(
            potentially_optimal_single([3.0], [0]), [0])

    def test_equal_d_keeps_minimum_only(self):
        sel = potentially_optimal_single([1.0, 2.0], [1, 1])
        np.testing.assert_array_equal(sel, [0])

    def test_three_class_hull_example(self):
        # (d, f) = (1, 5), (1/3, 4), (1/9, 4.5): the d = 1/9 point lies above
        # the hull, the other two admit a feasible rate constant
        sel = potentially_optimal_single([5.0, 4.0, 4.5], [0, 1, 2], epsilon=1e-4)
        np.testing.assert_array_equal(sel, [0, 1])

    def test_empty_partition(self):
        with pytest.raises(InvalidStateError):
            potentially_optimal_single([], [])

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
    def test_matches_k_feasibility_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        objs, exps = random_partition(rng, n)
        sel = potentially_optimal_single(objs[:, 0], exps)
        np.testing.assert_array_equal(sel, oracle_potentially_optimal(
            objs[:, 0], exps, engine.DEFAULT_EPSILON))


class TestSelectParetoFront:
    def test_single_front_single_size(self):
        objs = np.array([[-0.9, -0.1], [-0.5, -0.5], [-0.1, -0.9]])
        np.testing.assert_array_equal(select_pareto_front(objs, [2, 2, 2]), [0, 1, 2])

    def test_rank_vs_size_tradeoff(self):
        # A rank 1 at size 1/3, B rank 2 at size 1: mutually non-dominated
        objs = np.array([[-0.9, -0.9], [-0.5, -0.5]])
        np.testing.assert_array_equal(select_pareto_front(objs, [1, 0]), [0, 1])

    def test_staircase_filtering(self):
        # (rank, d): A (1, 1/3), B (1, 1/9), C (2, 1), D (3, 1)
        # selected: A and C; B loses on size at equal rank, D on rank at
        # equal size
        objs = np.array([[1.0, 4.0], [2.0, 3.0], [1.5, 4.5], [1.6, 4.6]])
        depth_classes = np.array([1, 2, 0, 0])
        np.testing.assert_array_equal(select_pareto_front(objs, depth_classes), [0, 2])

    def test_empty_partition(self):
        with pytest.raises(InvalidStateError):
            select_pareto_front(np.zeros((0, 2)), [])


class TestSelectNs:
    def test_all_rank_one_selects_largest_d(self):
        objs = np.array([[-0.9, -0.1], [-0.5, -0.5], [-0.1, -0.9]])
        np.testing.assert_array_equal(select_ns(objs, [2, 1, 0]), [2])

    def test_single_rectangle(self):
        np.testing.assert_array_equal(select_ns(np.array([[-0.5, -0.5]]), [0]), [0])

    def test_equal_d_group_rank_one_only(self):
        objs = np.array([[-0.9, -0.9], [-0.5, -0.5]])
        np.testing.assert_array_equal(select_ns(objs, [1, 1]), [0])

    def test_one_rectangle_per_tied_point(self):
        # four rank-1 rects in one size class: a single division per round
        objs = np.array([[-0.9, -0.1], [-0.7, -0.3], [-0.3, -0.7], [-0.1, -0.9]])
        assert select_ns(objs, [1, 1, 1, 1]).size == 1


class TestSelectMo:
    def test_identical_objectives_larger_d_wins(self):
        objs = np.array([[-0.5, -0.5], [-0.5, -0.5]])
        np.testing.assert_array_equal(select_mo(objs, [1, 0]), [1])

    def test_front_with_equal_d_all_selected(self):
        objs = np.array([[-0.9, -0.1], [-0.5, -0.5], [-0.1, -0.9]])
        np.testing.assert_array_equal(select_mo(objs, [1, 1, 1]), [0, 1, 2])

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_pareto_front_selection_is_subset(self, seed, n):
        rng = np.random.default_rng(seed)
        objs, exps = random_partition(rng, n, n_objectives=2)
        front = set(select_pareto_front(objs, exps).tolist())
        mo = set(select_mo(objs, exps).tolist())
        assert front <= mo


class TestSelectMoHv:
    def test_single_rectangle(self):
        sel = select_mo_hv(np.array([[-0.5, -0.5]]), [0], np.zeros((0, 2)),
                           np.zeros(2))
        np.testing.assert_array_equal(sel, [0])

    def test_equal_d_higher_contribution_wins(self):
        objs = np.array([[-0.5, -0.4], [-0.5, -0.2]])
        sel = select_mo_hv(objs, [1, 1], np.zeros((0, 2)), np.zeros(2))
        np.testing.assert_array_equal(sel, [0])

    def test_tied_front_points_deduplicated(self):
        # both rects are covered by the archive (h = 0) at equal d: one
        # representative is selected
        archive = np.array([[-0.9, -0.9]])
        objs = np.array([[-0.5, -0.5], [-0.4, -0.4]])
        assert select_mo_hv(objs, [1, 1], archive, np.zeros(2)).size == 1


class TestEveryStrategySelects:
    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_nonempty_selection(self, seed, n):
        rng = np.random.default_rng(seed)
        objs, exps = random_partition(rng, n, n_objectives=2)
        archive = objs[select_mo(objs, exps)]
        assert select_pareto_front(objs, exps).size >= 1
        assert select_ns(objs, exps).size >= 1
        assert select_mo(objs, exps).size >= 1
        assert select_mo_hv(objs, exps, archive, np.zeros(2)).size >= 1
        assert potentially_optimal_single(objs[:, 0], exps).size >= 1


def sphere(x):
    return np.array([float(np.sum((x - 0.3) ** 2))])


class TestRun:
    def test_first_division_2d(self):
        _, state = run(sphere, (np.zeros(2), np.ones(2)), "single-objective", 5,
                       n_objectives=1)
        assert state.size == 5
        assert state.evaluations_used == 5

    def test_first_division_3d(self):
        _, state = run(sphere, (np.zeros(3), np.ones(3)), "single-objective", 7,
                       n_objectives=1)
        assert state.size == 7

    def test_sphere_convergence(self):
        archive, state = run(sphere, (np.zeros(5), np.ones(5)), "single-objective",
                             10_000, n_objectives=1)
        assert state.evaluations_used <= 10_000 + 10
        assert archive.objectives.min() <= 1e-5

    def test_biobjective_segment_front(self):
        f = lambda x: np.array([float(x[0]), 1.0 - float(x[0])])
        archive, _ = run(f, (np.zeros(1), np.ones(1)), "pareto-front", 1_000)
        f1 = archive.objectives[:, 0]
        assert len(archive) >= 50
        # center sampling reaches 0.5 * 3^-6 = 6.86e-4 from each endpoint
        # within this budget
        assert f1.min() <= 6.9e-4
        assert f1.max() >= 1.0 - 6.9e-4

    def test_measure_conserved_and_centers_unique(self):
        for strategy in ("pareto-front", "ns-direct", "mo-direct", "mo-direct-hv"):
            f = lambda x: np.array([float(x[0] ** 2), float((x[1] - 0.7) ** 2)])
            _, state = run(f, (np.zeros(2), np.ones(2)), strategy, 400)
            assert state.volumes().sum() == pytest.approx(1.0, abs=1e-9)
            keys = {canonical_cell_key(state._cells[i], state._depths[i])
                    for i in range(state.size)}
            assert len(keys) == state.size
            np.testing.assert_array_equal(
                state.d_values, 3.0 ** -state.depth_classes.astype(float))

    def test_budget_semantics(self):
        f = lambda x: np.array([float(x.sum()), float(-x.sum())])
        _, state = run(f, (np.zeros(4), np.ones(4)), "pareto-front", 500)
        assert state.evaluations_used <= 500 + 8

    def test_tiny_budget_warns(self):
        with pytest.warns(UserWarning, match="budget"):
            archive, state = run(sphere, (np.zeros(5), np.ones(5)),
                                 "single-objective", 3, n_objectives=1)
        assert state.evaluations_used == 1
        assert len(archive) == 1

    def test_depth_cap_no_overflow(self):
        # a 1-D ramp drills the left edge far past 3^-39; the cap must stop
        # integer cell arithmetic from overflowing
        f = lambda x: np.array([float(x[0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, state = run(f, (np.zeros(1), np.ones(1)), "single-objective", 400,
                           n_objectives=1)
        assert state._depths[: state.size].max() <= MAX_DEPTH

    def test_unknown_strategy(self):
        with pytest.raises(InvalidInputError):
            run(sphere, (np.zeros(2), np.ones(2)), "annealing", 100, n_objectives=1)

    def test_strategy_objective_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            run(sphere, (np.zeros(2), np.ones(2)), "pareto-front", 100, n_objectives=1)
        with pytest.raises(InvalidInputError):
            run(sphere, (np.zeros(2), np.ones(2)), "single-objective", 100,
                n_objectives=2)

    def test_bad_callback_shape(self):
        f = lambda x: np.zeros(3)
        with pytest.raises(InvalidInputError):
            run(f, (np.zeros(2), np.ones(2)), "pareto-front", 100, n_objectives=2)

    def test_history_recorded_per_iteration(self):
        f = lambda x: np.array([float(-x[0]), float(x[0] - 1)])
        _, state = run(f, (np.zeros(2), np.ones(2)), "pareto-front", 200)
        evals = [e for e, _ in state.history]
        assert evals[0] == 1
        assert evals == sorted(evals)
        for _, mean in state.history:
            assert all(-1.0 <= v <= 0.0 for v in mean)

    def test_batched_matches_per_point(self):
        # the engine hands an Evaluator each trisection's samples in one
        # batch call, and a plain callable one sample at a time
        config = make_case("1", noise_sigma=0.0)
        model = build_model(config)
        ev = Evaluator(model, simulate_measurement(config, model))
        bounds = (np.zeros(15), np.full(15, 0.3))
        results = []
        for func in (ev, lambda a: ev(a)):
            archive, state = run(func, bounds, "pareto-front", 300)
            results.append((archive.alphas, archive.objectives,
                            state._cells[: state.size].copy(), state.objectives.copy()))
        for batched, per_point in zip(*results):
            np.testing.assert_array_equal(batched, per_point)

    def test_batch_shape_checked(self):
        class Batched:
            def __call__(self, x):
                return np.zeros(2)

            def batch(self, xs):
                return np.zeros((len(xs), 3))

        with pytest.raises(InvalidInputError):
            run(Batched(), (np.zeros(2), np.ones(2)), "pareto-front", 100)

    def test_transactional_on_callback_failure(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] > 30:
                raise RuntimeError("sensor glitch")
            return np.array([float(x[0]), float(1 - x[0])])

        archive = ParetoArchive()
        with pytest.raises(RuntimeError):
            run(flaky, (np.zeros(2), np.ones(2)), "pareto-front", 500, archive=archive)
        # every archived point was produced by a completed batch
        assert len(archive) >= 1

    def test_external_archive_reused(self):
        archive = ParetoArchive()
        archive.insert(np.array([9.0, 9.0]), np.array([-2.0, -2.0]))
        out, _ = run(lambda x: np.array([float(x[0]), float(1 - x[0])]),
                     (np.zeros(1), np.ones(1)), "pareto-front", 50, archive=archive)
        assert out is archive
        np.testing.assert_array_equal(out.objectives, [[-2.0, -2.0]])
