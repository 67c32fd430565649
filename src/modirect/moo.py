"""Multi-objective utilities: non-dominated sorting, 2-D hypervolume and the
Pareto archive of evaluated solutions."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidStateError

# Points per block of the sweep in nondominated_mask (three or more
# objectives).
MASK_BLOCK_ROWS = 256


def dominates(a, b) -> bool:
    """True if objective vector ``a`` dominates ``b`` (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def _ranks_2d_kernel(f1, f2, order, ranks):
    # Front assignment by patience-style binary search: fronts keep their
    # minimum f2 (and the f1 at which it was first achieved), which is
    # monotone across fronts, so the first non-dominating front is found by
    # bisection.  Points arrive sorted by (f1 asc, f2 asc).
    n = order.size
    min_f2 = np.empty(n)
    f1_at_min = np.empty(n)
    n_fronts = 0
    for t in range(n):
        i = order[t]
        x = f1[i]
        y = f2[i]
        lo = 0
        hi = n_fronts
        while lo < hi:
            mid = (lo + hi) // 2
            if min_f2[mid] < y or (min_f2[mid] == y and f1_at_min[mid] < x):
                lo = mid + 1
            else:
                hi = mid
        k = lo
        if k == n_fronts:
            min_f2[k] = y
            f1_at_min[k] = x
            n_fronts += 1
        elif y < min_f2[k]:
            min_f2[k] = y
            f1_at_min[k] = x
        ranks[i] = k + 1
    return ranks


try:  # optional JIT; the pure-Python kernel is the reference behavior
    from numba import njit

    _ranks_2d_fast = njit(cache=True)(_ranks_2d_kernel)
except ImportError:  # pragma: no cover
    _ranks_2d_fast = _ranks_2d_kernel


def _ranks_2d(points: np.ndarray) -> np.ndarray:
    f1 = np.ascontiguousarray(points[:, 0])
    f2 = np.ascontiguousarray(points[:, 1])
    order = np.lexsort((f2, f1))
    ranks = np.empty(points.shape[0], dtype=np.int64)
    return _ranks_2d_fast(f1, f2, order, ranks)


def _ranks_deb(points: np.ndarray) -> np.ndarray:
    # Deb-style peeling from the full domination matrix; fine for the
    # moderate set sizes this path sees.
    le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    lt = np.any(points[:, None, :] < points[None, :, :], axis=2)
    dom = le & lt  # dom[i, j]: i dominates j
    n_dominators = dom.sum(axis=0)
    ranks = np.zeros(points.shape[0], dtype=np.int64)
    rank = 0
    remaining = n_dominators.copy()
    active = np.ones(points.shape[0], dtype=bool)
    while active.any():
        rank += 1
        front = active & (remaining == 0)
        if not front.any():  # pragma: no cover - defensive
            raise InvalidStateError("non-dominated sort failed to peel a front")
        ranks[front] = rank
        remaining = remaining - dom[front].sum(axis=0)
        active &= ~front
    return ranks


def fast_nondominated_sort(points) -> np.ndarray:
    """1-based Pareto-front indices for a list of objective vectors."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros(0, dtype=np.int64)
    if points.ndim != 2:
        raise InvalidInputError(f"expected a 2-D array of points, got shape {points.shape}")
    if points.shape[1] == 2:
        return _ranks_2d(points)
    return _ranks_deb(points)


def nondominated_mask(points) -> np.ndarray:
    """Boolean mask of the non-dominated points (minimization)."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros(0, dtype=bool)
    if points.shape[1] == 2:
        return _ranks_2d(points) == 1
    # A dominator precedes its point in lexicographic order and domination is
    # transitive, so a sweep in that order only has to test each block
    # against itself and the non-dominated points of the earlier blocks.
    order = np.lexsort(points.T[::-1])
    mask = np.zeros(points.shape[0], dtype=bool)
    front = points[:0]
    for start in range(0, order.size, MASK_BLOCK_ROWS):
        idx = order[start:start + MASK_BLOCK_ROWS]
        block = points[idx]
        rivals = np.vstack([front, block])
        le = np.all(rivals[:, None, :] <= block[None, :, :], axis=2)
        lt = np.any(rivals[:, None, :] < block[None, :, :], axis=2)
        keep = ~np.any(le & lt, axis=0)
        mask[idx[keep]] = True
        front = np.vstack([front, block[keep]])
    return mask


def hypervolume_2d(front, reference) -> float:
    """Area of the union of boxes [point, reference] over the front.

    Points that do not strictly dominate the reference contribute nothing.
    """
    reference = np.asarray(reference, dtype=float)
    front = np.asarray(front, dtype=float).reshape(-1, 2)
    if front.shape[0] == 0:
        return 0.0
    front = front[np.all(front < reference, axis=1)]
    if front.shape[0] == 0:
        return 0.0
    order = np.lexsort((front[:, 1], front[:, 0]))
    xs = front[order, 0]
    ys_min = np.minimum.accumulate(front[order, 1])
    widths = np.diff(np.append(xs, reference[0]))
    return float(np.sum(widths * (reference[1] - ys_min)))


def exclusive_contribution(point, front, reference) -> float:
    """Hypervolume gained by adding ``point`` to ``front``; 0 if dominated."""
    front = np.asarray(front, dtype=float).reshape(-1, 2)
    combined = np.vstack([front, np.asarray(point, dtype=float).reshape(1, 2)])
    gain = hypervolume_2d(combined, reference) - hypervolume_2d(front, reference)
    return max(gain, 0.0)


def exclusive_contributions(points, front, reference) -> np.ndarray:
    """Vectorized exclusive hypervolume contributions of many candidate points
    against one fixed front.

    Candidates weakly covered by the front are screened out via the front
    staircase; the rest fall back to the literal definition.
    """
    reference = np.asarray(reference, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    front = np.asarray(front, dtype=float).reshape(-1, 2)
    out = np.zeros(points.shape[0])
    dominating = np.all(points < reference, axis=1)
    stair = front[np.all(front < reference, axis=1)] if front.size else front
    if stair.shape[0] == 0:
        boxes = np.prod(reference - points, axis=1)
        out[dominating] = boxes[dominating]
        return out
    order = np.lexsort((stair[:, 1], stair[:, 0]))
    xs = stair[order, 0]
    ys_min = np.minimum.accumulate(stair[order, 1])
    idx = np.searchsorted(xs, points[:, 0], side="right") - 1
    covered = np.zeros(points.shape[0], dtype=bool)
    has_left = idx >= 0
    covered[has_left] = ys_min[idx[has_left]] <= points[has_left, 1]
    for i in np.flatnonzero(dominating & ~covered):
        out[i] = exclusive_contribution(points[i], stair, reference)
    return out


class ParetoArchive:
    """Unbounded archive of mutually non-dominated (alpha, objectives) pairs.

    Dominated entries are evicted on insert; exact duplicate alpha vectors
    are stored once.  Objective-space duplicates with distinct alpha are all
    kept (they are distinct damage hypotheses).
    """

    def __init__(self):
        self._alphas: list[np.ndarray] = []
        self._objectives: list[np.ndarray] = []
        self._alpha_arr: np.ndarray | None = None
        self._obj_arr: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._alphas)

    def __iter__(self):
        return iter(zip(self._alphas, self._objectives))

    @property
    def alphas(self) -> np.ndarray:
        if self._alpha_arr is None:
            self._alpha_arr = np.array(self._alphas) if self._alphas else np.zeros((0, 0))
        return self._alpha_arr

    @property
    def objectives(self) -> np.ndarray:
        if self._obj_arr is None:
            self._obj_arr = np.array(self._objectives) if self._objectives else np.zeros((0, 0))
        return self._obj_arr

    def insert(self, alpha, objectives) -> bool:
        """Insert iff not dominated by any entry; evicts entries the new
        point dominates.  Returns True when the point was stored."""
        alpha = np.array(alpha, dtype=float)
        obj = np.array(objectives, dtype=float)
        if not self._alphas:
            self._store(alpha, obj)
            return True
        O = self.objectives
        le = O <= obj
        lt = O < obj
        if np.any(np.all(le, axis=1) & np.any(lt, axis=1)):
            return False
        A = self.alphas
        if A.shape[1] == alpha.size and np.any(np.all(A == alpha, axis=1)):
            return False
        ge = O >= obj
        gt = O > obj
        beaten = np.all(ge, axis=1) & np.any(gt, axis=1)
        if np.any(beaten):
            keep = ~beaten
            self._alphas = [a for a, k in zip(self._alphas, keep) if k]
            self._objectives = [o for o, k in zip(self._objectives, keep) if k]
        self._store(alpha, obj)
        return True

    def _store(self, alpha: np.ndarray, obj: np.ndarray) -> None:
        alpha.setflags(write=False)
        obj.setflags(write=False)
        self._alphas.append(alpha)
        self._objectives.append(obj)
        self._alpha_arr = None
        self._obj_arr = None

    def mean_objectives(self) -> np.ndarray:
        if not self._alphas:
            raise InvalidStateError("archive is empty")
        return self.objectives.mean(axis=0)
