"""Non-dominated sorting, 2-D hypervolume and the Pareto archive, each checked
against small brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modirect import moo
from modirect.errors import InvalidInputError, InvalidStateError
from modirect.moo import (ParetoArchive, dominates, exclusive_contribution,
                          exclusive_contributions, fast_nondominated_sort,
                          hypervolume_2d, nondominated_mask)

coord = st.floats(-10.0, 10.0, allow_nan=False)


def point_sets(max_points=200, dims=st.integers(1, 4)):
    return dims.flatmap(lambda m: arrays(
        np.float64, st.tuples(st.integers(1, max_points), st.just(m)), elements=coord))


def oracle_ranks(points: np.ndarray) -> np.ndarray:
    """O(N^2) peeling oracle, independent of the library implementation."""
    n = points.shape[0]
    ranks = np.zeros(n, dtype=int)
    remaining = list(range(n))
    rank = 0
    while remaining:
        rank += 1
        front = []
        for i in remaining:
            if not any(dominates(points[j], points[i]) for j in remaining if j != i):
                front.append(i)
        for i in front:
            ranks[i] = rank
        remaining = [i for i in remaining if i not in front]
    return ranks


def oracle_hypervolume(front: np.ndarray, reference: np.ndarray,
                       resolution: int = 400) -> float:
    """Monte-Carlo-free pixel oracle over the bounding box."""
    front = front[np.all(front < reference, axis=1)]
    if front.shape[0] == 0:
        return 0.0
    lo = front.min(axis=0)
    xs = np.linspace(lo[0], reference[0], resolution, endpoint=False)
    ys = np.linspace(lo[1], reference[1], resolution, endpoint=False)
    cell = (reference[0] - lo[0]) * (reference[1] - lo[1]) / resolution**2
    X, Y = np.meshgrid(xs + 0.5 * (xs[1] - xs[0]) if len(xs) > 1 else xs,
                       ys + 0.5 * (ys[1] - ys[0]) if len(ys) > 1 else ys)
    covered = np.zeros_like(X, dtype=bool)
    for p in front:
        covered |= (X >= p[0]) & (Y >= p[1])
    return float(covered.sum() * cell)


class TestNondominatedSort:
    def test_hand_example(self):
        pts = [(1, 2), (2, 1), (2, 2), (3, 3)]
        np.testing.assert_array_equal(fast_nondominated_sort(pts), [1, 1, 2, 3])

    def test_identical_points_all_rank_one(self):
        pts = np.ones((5, 2))
        np.testing.assert_array_equal(fast_nondominated_sort(pts), 1)

    def test_one_dimensional_total_order(self):
        np.testing.assert_array_equal(
            fast_nondominated_sort(np.array([[5.0], [3.0], [9.0]])), [2, 1, 3])

    def test_empty(self):
        assert fast_nondominated_sort(np.zeros((0, 2))).size == 0

    def test_bad_shape(self):
        with pytest.raises(InvalidInputError):
            fast_nondominated_sort(np.zeros((2, 2, 2)))

    @settings(max_examples=100)
    @given(points=point_sets())
    def test_matches_oracle(self, points):
        np.testing.assert_array_equal(fast_nondominated_sort(points),
                                      oracle_ranks(points))

    @given(points=point_sets(max_points=60))
    def test_peeling_property(self, points):
        # removing fronts <= k leaves the rank k+1 points non-dominated
        ranks = fast_nondominated_sort(points)
        rest = points[ranks > 1]
        if rest.shape[0]:
            np.testing.assert_array_equal(
                fast_nondominated_sort(rest), ranks[ranks > 1] - 1)

    @given(points=point_sets(max_points=80))
    def test_mask_is_rank_one(self, points):
        np.testing.assert_array_equal(nondominated_mask(points),
                                      fast_nondominated_sort(points) == 1)

    @given(points=point_sets(max_points=80, dims=st.sampled_from([1, 3, 4])),
           block=st.integers(1, 9))
    def test_mask_across_sweep_blocks(self, points, block):
        # the sweep serves every dimension but 2; ties are common in the
        # size objective, so round the values
        points = np.round(points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moo, "MASK_BLOCK_ROWS", block)
            mask = nondominated_mask(points)
        np.testing.assert_array_equal(mask, oracle_ranks(points) == 1)


class TestHypervolume:
    def test_single_box(self):
        assert hypervolume_2d([(-0.5, -0.5)], (0.0, 0.0)) == pytest.approx(0.25)

    def test_inclusion_exclusion(self):
        hv = hypervolume_2d([(-0.8, -0.2), (-0.2, -0.8)], (0.0, 0.0))
        assert hv == pytest.approx(0.28)

    def test_empty_front(self):
        assert hypervolume_2d(np.zeros((0, 2)), (0.0, 0.0)) == 0.0

    def test_points_not_dominating_reference_ignored(self):
        assert hypervolume_2d([(0.5, -0.5), (-0.3, -0.4)], (0.0, 0.0)) == \
            pytest.approx(0.12)

    @given(front=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(2)),
                        elements=st.floats(-1.0, -0.05)))
    def test_matches_pixel_oracle(self, front):
        hv = hypervolume_2d(front, (0.0, 0.0))
        assert hv == pytest.approx(oracle_hypervolume(front, np.zeros(2)), abs=2e-2)

    @given(front=arrays(np.float64, st.tuples(st.integers(1, 15), st.just(2)),
                        elements=st.floats(-1.0, 1.0)),
           extra=arrays(np.float64, 2, elements=st.floats(-1.0, 1.0)))
    def test_monotone_and_permutation_invariant(self, front, extra):
        ref = np.array([1.0, 1.0])
        hv = hypervolume_2d(front, ref)
        assert hypervolume_2d(np.vstack([front, extra]), ref) >= hv - 1e-12
        shuffled = front[np.random.default_rng(0).permutation(front.shape[0])]
        assert hypervolume_2d(shuffled, ref) == pytest.approx(hv, abs=1e-12)


class TestExclusiveContribution:
    def test_dominated_point_contributes_nothing(self):
        assert exclusive_contribution((-0.1, -0.1), [(-0.5, -0.5)], (0.0, 0.0)) == 0.0

    def test_empty_front(self):
        assert exclusive_contribution((-0.5, -0.5), np.zeros((0, 2)), (0.0, 0.0)) == \
            pytest.approx(0.25)

    def test_archive_example(self):
        front = [(-0.8, -0.2), (-0.2, -0.8)]
        assert exclusive_contribution((-0.5, -0.5), front, (0.0, 0.0)) == \
            pytest.approx(0.09)

    @given(points=arrays(np.float64, st.tuples(st.integers(1, 20), st.just(2)),
                         elements=st.floats(-1.0, 0.5)),
           front=arrays(np.float64, st.tuples(st.integers(0, 8), st.just(2)),
                        elements=st.floats(-1.0, 0.5)))
    def test_vectorized_matches_scalar(self, points, front):
        ref = np.zeros(2)
        batch = exclusive_contributions(points, front, ref)
        singles = [exclusive_contribution(p, front, ref) for p in points]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestParetoArchive:
    def test_insert_into_empty(self):
        archive = ParetoArchive()
        assert archive.insert([0.1], [-0.5, -0.5])
        assert len(archive) == 1

    def test_dominated_insert_rejected(self):
        archive = ParetoArchive()
        archive.insert([0.1], [-0.5, -0.5])
        assert not archive.insert([0.2], [-0.4, -0.4])
        assert len(archive) == 1

    def test_dominating_insert_evicts(self):
        archive = ParetoArchive()
        archive.insert([0.1], [-0.5, -0.5])
        archive.insert([0.2], [-0.3, -0.6])
        assert archive.insert([0.3], [-0.6, -0.7])
        assert len(archive) == 1
        np.testing.assert_array_equal(archive.alphas, [[0.3]])

    def test_duplicate_alpha_stored_once(self):
        archive = ParetoArchive()
        archive.insert([0.1, 0.2], [-0.5, -0.5])
        assert not archive.insert([0.1, 0.2], [-0.5, -0.5])

    def test_objective_duplicates_with_distinct_alpha_kept(self):
        archive = ParetoArchive()
        archive.insert([0.1], [-0.5, -0.5])
        assert archive.insert([0.2], [-0.5, -0.5])
        assert len(archive) == 2

    def test_empty_mean_raises(self):
        with pytest.raises(InvalidStateError):
            ParetoArchive().mean_objectives()

    @settings(max_examples=50)
    @given(stream=arrays(np.float64, st.tuples(st.integers(1, 120), st.just(2)),
                         elements=st.floats(-1.0, 0.0)))
    def test_matches_brute_force_filter(self, stream):
        archive = ParetoArchive()
        for i, obj in enumerate(stream):
            archive.insert([float(i)], obj)
        expected = {i for i in range(stream.shape[0])
                    if not any(dominates(stream[j], stream[i])
                               for j in range(stream.shape[0]))}
        got = {int(a[0]) for a, _ in archive}
        assert got == expected

    @given(stream=arrays(np.float64, st.tuples(st.integers(1, 60), st.just(3)),
                         elements=coord))
    def test_non_domination_invariant(self, stream):
        archive = ParetoArchive()
        for i, obj in enumerate(stream):
            archive.insert([float(i)], obj)
        objs = archive.objectives
        for i in range(objs.shape[0]):
            for j in range(objs.shape[0]):
                if i != j:
                    assert not dominates(objs[i], objs[j])
