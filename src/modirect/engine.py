"""Dividing-rectangles search engine with pluggable selection strategies.

The unit hyper-cube is partitioned into cells stored in an exact integer
representation: dimension i of a cell is the ``cell[i]``-th interval of width
3**-depths[i], so the center is (cell[i] + 0.5) * 3**-depths[i].  Trisection,
measure conservation and size classes are therefore exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidStateError
from .moo import (ParetoArchive, exclusive_contributions, fast_nondominated_sort,
                  nondominated_mask)

STRATEGIES = ("pareto-front", "ns-direct", "mo-direct", "mo-direct-hv",
              "single-objective")

DEFAULT_EPSILON = 1e-4

# deepest trisection level whose integer cell coordinates still fit in int64
# (3 ** 40 overflows); cells at this depth are never divided further
MAX_DEPTH = 39


def from_unit(bounds, x_unit) -> np.ndarray:
    """Map a unit-cube point into the box [lower, upper]."""
    lower, upper = _check_bounds(bounds)
    x_unit = np.asarray(x_unit, dtype=float)
    return lower + x_unit * (upper - lower)


def to_unit(bounds, x) -> np.ndarray:
    """Inverse of :func:`from_unit`."""
    lower, upper = _check_bounds(bounds)
    return (np.asarray(x, dtype=float) - lower) / (upper - lower)


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise InvalidInputError("bounds must be two equal-length vectors")
    if not np.all(lower < upper):
        raise InvalidInputError("degenerate bounds: require lower < upper componentwise")
    return lower, upper


@dataclass(frozen=True)
class Rectangle:
    """Read-only view of one partition cell."""

    cell: tuple[int, ...]
    depths: tuple[int, ...]
    objectives: np.ndarray

    @property
    def center(self) -> np.ndarray:
        c = np.asarray(self.cell, dtype=float)
        d = np.asarray(self.depths, dtype=float)
        return (c + 0.5) * 3.0 ** -d

    @property
    def d(self) -> float:
        return 3.0 ** -min(self.depths)

    @property
    def volume(self) -> float:
        return 3.0 ** -sum(self.depths)


def canonical_cell_key(cell, depths) -> tuple[tuple[int, int], ...]:
    """Depth-reduced per-dimension key; equal keys iff equal centers."""
    key = []
    for m, d in zip(cell, depths):
        while d > 0 and m % 3 == 1:
            m //= 3
            d -= 1
        key.append((int(m), int(d)))
    return tuple(key)


class PartitionState:
    """Growable store of the rectangle partition plus run bookkeeping."""

    def __init__(self, n_dims: int, n_objectives: int):
        self.n_dims = n_dims
        self.n_objectives = n_objectives
        cap = 64
        self._cells = np.zeros((cap, n_dims), dtype=np.int64)
        self._depths = np.zeros((cap, n_dims), dtype=np.int64)
        self._objs = np.empty((cap, n_objectives))
        self._min_depth = np.zeros(cap, dtype=np.int64)
        self._sum_depth = np.zeros(cap, dtype=np.int64)
        self.size = 0
        self.evaluations_used = 0
        self.history: list[tuple[int, tuple[float, ...]]] = []

    def _grow(self) -> None:
        cap = self._cells.shape[0] * 2
        for name in ("_cells", "_depths", "_objs", "_min_depth", "_sum_depth"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def append(self, cell: np.ndarray, depths: np.ndarray, objectives: np.ndarray) -> int:
        if self.size == self._cells.shape[0]:
            self._grow()
        i = self.size
        self._cells[i] = cell
        self._depths[i] = depths
        self._objs[i] = objectives
        self._min_depth[i] = depths.min()
        self._sum_depth[i] = depths.sum()
        self.size += 1
        return i

    def replace_shape(self, idx: int, cell: np.ndarray, depths: np.ndarray) -> None:
        self._cells[idx] = cell
        self._depths[idx] = depths
        self._min_depth[idx] = depths.min()
        self._sum_depth[idx] = depths.sum()

    @property
    def objectives(self) -> np.ndarray:
        return self._objs[: self.size]

    @property
    def depth_classes(self) -> np.ndarray:
        """Minimum depth per rectangle; d = 3 ** -depth_class exactly."""
        return self._min_depth[: self.size]

    @property
    def d_values(self) -> np.ndarray:
        return 3.0 ** -self._min_depth[: self.size].astype(float)

    def centers(self) -> np.ndarray:
        c = self._cells[: self.size].astype(float)
        d = self._depths[: self.size].astype(float)
        return (c + 0.5) * 3.0 ** -d

    def volumes(self) -> np.ndarray:
        return 3.0 ** -self._sum_depth[: self.size].astype(float)

    def rectangle(self, idx: int) -> Rectangle:
        if not 0 <= idx < self.size:
            raise InvalidInputError(f"rectangle index {idx} out of range")
        return Rectangle(cell=tuple(int(v) for v in self._cells[idx]),
                         depths=tuple(int(v) for v in self._depths[idx]),
                         objectives=self._objs[idx].copy())

    def rectangles(self):
        return [self.rectangle(i) for i in range(self.size)]


# ---------------------------------------------------------------------------
# selection strategies


def _size_class_minima(values: np.ndarray, depth_classes: np.ndarray):
    """Per size class (exact integer depth) the minimum value and members.

    Returns classes sorted by ascending d (descending depth exponent).
    """
    if values.size == 0:
        raise InvalidStateError("empty partition")
    exps = np.unique(depth_classes)[::-1]  # descending exponent = ascending d
    mins = np.empty(exps.size)
    for k, e in enumerate(exps):
        mins[k] = values[depth_classes == e].min()
    return exps, mins


def _hull_select(values: np.ndarray, depth_classes: np.ndarray,
                 epsilon: float, one_per_class: bool = False) -> np.ndarray:
    """Lower-right convex hull selection over (d, value) size classes.

    Implements both potentially-optimal inequalities: hull membership with a
    positive supporting slope, plus the improvement condition checked at the
    largest feasible rate constant.  With ``one_per_class`` each selected
    (d, value) point contributes its oldest tied rectangle only; dividing it
    moves it out of the class, so tied peers take over on later rounds.
    """
    exps, mins = _size_class_minima(values, depth_classes)
    ds = 3.0 ** -exps.astype(float)
    # lower hull over points (ds, mins), x ascending; keep collinear points
    hull: list[int] = []
    for k in range(exps.size):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (ds[a] - ds[o]) * (mins[k] - mins[o]) - \
                    (mins[a] - mins[o]) * (ds[k] - ds[o])
            if cross < 0.0:
                hull.pop()
            else:
                break
        hull.append(k)
    f_min = values.min()
    threshold = f_min - epsilon * abs(f_min)
    selected_classes = []
    for pos, k in enumerate(hull):
        if pos + 1 < len(hull):
            nxt = hull[pos + 1]
            slope = (mins[nxt] - mins[k]) / (ds[nxt] - ds[k])
            if slope <= 0.0:
                continue
            if mins[k] - slope * ds[k] > threshold:
                continue
        # rightmost hull vertex: any large rate constant works
        selected_classes.append(k)
    out: list[np.ndarray] = []
    for k in selected_classes:
        members = np.flatnonzero((depth_classes == exps[k]) & (values == mins[k]))
        out.append(members[:1] if one_per_class else members)
    return np.sort(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)


def potentially_optimal_single(fvals, depth_classes, f_min=None,
                               epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Classic single-objective potentially-optimal rectangle selection."""
    fvals = np.asarray(fvals, dtype=float).reshape(-1)
    depth_classes = np.asarray(depth_classes, dtype=np.int64).reshape(-1)
    if fvals.size == 0:
        raise InvalidStateError("empty partition")
    del f_min  # recomputed internally; kept for call-site symmetry
    return _hull_select(fvals, depth_classes, epsilon)


def select_pareto_front(objectives, depth_classes) -> np.ndarray:
    """Rank by non-dominated sorting, then take the non-dominated set of
    (rank, -d) pairs; the improvement condition is deliberately omitted.

    All rectangles tying the selected (rank, d) point are returned; clearing
    the whole tied group each round is what lets smaller size classes become
    selectable once the larger class's best rank degrades.
    """
    objectives = np.asarray(objectives, dtype=float)
    depth_classes = np.asarray(depth_classes, dtype=np.int64).reshape(-1)
    if objectives.shape[0] == 0:
        raise InvalidStateError("empty partition")
    ranks = fast_nondominated_sort(objectives)
    exps, min_ranks = _size_class_minima(ranks.astype(float), depth_classes)
    # classes sorted by ascending d; scan from largest d down, keeping classes
    # whose min rank strictly improves on every larger class
    keep = np.zeros(exps.size, dtype=bool)
    best = np.inf
    for k in range(exps.size - 1, -1, -1):
        if min_ranks[k] < best:
            keep[k] = True
            best = min_ranks[k]
    out = []
    for k in np.flatnonzero(keep):
        members = np.flatnonzero((depth_classes == exps[k]) & (ranks == min_ranks[k]))
        out.append(members)
    return np.sort(np.concatenate(out))


def select_ns(objectives, depth_classes, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Potentially-optimal selection with objective values replaced by the
    non-dominated rank."""
    objectives = np.asarray(objectives, dtype=float)
    depth_classes = np.asarray(depth_classes, dtype=np.int64).reshape(-1)
    if objectives.shape[0] == 0:
        raise InvalidStateError("empty partition")
    ranks = fast_nondominated_sort(objectives).astype(float)
    return _hull_select(ranks, depth_classes, epsilon, one_per_class=True)


def select_mo(objectives, depth_classes) -> np.ndarray:
    """Non-dominated front with the rectangle size as one extra objective."""
    objectives = np.asarray(objectives, dtype=float)
    depth_classes = np.asarray(depth_classes, dtype=np.int64).reshape(-1)
    if objectives.shape[0] == 0:
        raise InvalidStateError("empty partition")
    d = 3.0 ** -depth_classes.astype(float)
    extended = np.column_stack([objectives, -d])
    return np.flatnonzero(nondominated_mask(extended))


def select_mo_hv(objectives, depth_classes, archive_front, reference) -> np.ndarray:
    """Non-dominated front in the (hypervolume contribution, size) plane,
    maximizing both; one rectangle (the oldest) per distinct front point."""
    objectives = np.asarray(objectives, dtype=float)
    depth_classes = np.asarray(depth_classes, dtype=np.int64).reshape(-1)
    if objectives.shape[0] == 0:
        raise InvalidStateError("empty partition")
    h = exclusive_contributions(objectives, archive_front, reference)
    d = 3.0 ** -depth_classes.astype(float)
    idx = np.flatnonzero(nondominated_mask(np.column_stack([-h, -d])))
    _, first = np.unique(np.column_stack([h[idx], d[idx]]), axis=0, return_index=True)
    return np.sort(idx[np.sort(first)])


# ---------------------------------------------------------------------------
# the search loop


@dataclass
class _Problem:
    func: object
    lower: np.ndarray
    upper: np.ndarray
    n_objectives: int

    def evaluate_batch(self, unit_points) -> np.ndarray:
        """(m, n_objectives) values at the unit-cube points, in one call to
        ``func.batch`` when the callable has it, else point by point."""
        real = self.lower + np.asarray(unit_points) * (self.upper - self.lower)
        batch = getattr(self.func, "batch", None)
        if batch is None:
            rows = [np.atleast_1d(np.asarray(self.func(p), dtype=float)) for p in real]
            for v in rows:
                if v.shape != (self.n_objectives,):
                    raise InvalidInputError(
                        f"objective callback returned shape {v.shape}, "
                        f"expected ({self.n_objectives},)")
            return np.array(rows)
        out = np.asarray(batch(real), dtype=float)
        if out.shape != (len(real), self.n_objectives):
            raise InvalidInputError(
                f"objective batch returned shape {out.shape}, "
                f"expected ({len(real)}, {self.n_objectives})")
        return out


def _validate_strategy(strategy: str, n_objectives: int) -> None:
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "single-objective" and n_objectives != 1:
        raise InvalidInputError("single-objective strategy requires exactly one objective")
    if strategy in ("pareto-front", "mo-direct", "mo-direct-hv") and n_objectives < 2:
        raise InvalidInputError(f"strategy {strategy!r} requires at least two objectives")
    if strategy == "mo-direct-hv" and n_objectives != 2:
        raise InvalidInputError("mo-direct-hv uses the exact 2-D hypervolume and "
                                "supports exactly two objectives")


class _Engine:
    def __init__(self, problem: _Problem, strategy: str, epsilon: float,
                 hv_reference, archive: ParetoArchive):
        self.problem = problem
        self.strategy = strategy
        self.epsilon = epsilon
        self.hv_reference = (np.zeros(problem.n_objectives) if hv_reference is None
                             else np.asarray(hv_reference, dtype=float))
        self.archive = archive
        self.state = PartitionState(len(problem.lower), problem.n_objectives)

    def _insert(self, unit_point: np.ndarray, objectives: np.ndarray) -> None:
        alpha = self.problem.lower + unit_point * (self.problem.upper - self.problem.lower)
        self.archive.insert(alpha, objectives)

    def _select(self) -> np.ndarray:
        st = self.state
        if self.strategy == "pareto-front":
            return select_pareto_front(st.objectives, st.depth_classes)
        if self.strategy == "ns-direct":
            return select_ns(st.objectives, st.depth_classes, self.epsilon)
        if self.strategy == "mo-direct":
            return select_mo(st.objectives, st.depth_classes)
        if self.strategy == "mo-direct-hv":
            return select_mo_hv(st.objectives, st.depth_classes,
                                self.archive.objectives, self.hv_reference)
        return potentially_optimal_single(st.objectives[:, 0], st.depth_classes,
                                          epsilon=self.epsilon)

    def _trisect(self, idx: int) -> int:
        """Divide rectangle ``idx`` along all its longest dimensions.

        Evaluates first and mutates the partition only afterwards, so a
        failing objective callback leaves the partition unchanged.
        """
        st = self.state
        cell = st._cells[idx].copy()
        depths = st._depths[idx].copy()
        min_depth = depths.min()
        if min_depth >= MAX_DEPTH:
            return 0
        long_dims = np.flatnonzero(depths == min_depth)
        omega = 3.0 ** -(float(min_depth) + 1.0)
        center = (cell.astype(float) + 0.5) * 3.0 ** -depths.astype(float)
        samples = []
        for dim in long_dims:
            for sign in (-1.0, 1.0):
                p = center.copy()
                p[dim] += sign * omega
                samples.append(p)
        objs = self.problem.evaluate_batch(samples)
        st.evaluations_used += len(samples)
        for p, o in zip(samples, objs):
            self._insert(p, o)
        # division order: best (lowest) non-dominated rank among each
        # dimension's two samples, within the batch plus the parent center
        batch = np.vstack([objs, st._objs[idx]])
        ranks = fast_nondominated_sort(batch)
        scores = np.minimum(ranks[0:-1:2], ranks[1:-1:2])
        order = long_dims[np.lexsort((long_dims, scores))]
        cur_cell = cell
        cur_depths = depths
        for dim in order:
            pos = int(np.flatnonzero(long_dims == dim)[0])
            child_depths = cur_depths.copy()
            child_depths[dim] += 1
            left = cur_cell.copy()
            left[dim] = 3 * cur_cell[dim]
            right = cur_cell.copy()
            right[dim] = 3 * cur_cell[dim] + 2
            st.append(left, child_depths, objs[2 * pos])
            st.append(right, child_depths, objs[2 * pos + 1])
            cur_cell = cur_cell.copy()
            cur_cell[dim] = 3 * cur_cell[dim] + 1
            cur_depths = child_depths
        st.replace_shape(idx, cur_cell, cur_depths)
        return len(samples)

    def _record_history(self) -> None:
        mean = self.archive.mean_objectives()
        self.state.history.append((self.state.evaluations_used,
                                   tuple(float(v) for v in mean)))

    def run(self, max_evals: int) -> tuple[ParetoArchive, PartitionState]:
        n = len(self.problem.lower)
        st = self.state
        center = np.full(n, 0.5)
        obj = self.problem.evaluate_batch([center])[0]
        st.append(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), obj)
        st.evaluations_used = 1
        self._insert(center, obj)
        self._record_history()
        if max_evals < 2 * n + 1:
            warnings.warn(
                f"evaluation budget {max_evals} is below the first division "
                f"cost {2 * n + 1}; returning the center-only archive", stacklevel=2)
            return self.archive, st
        while st.evaluations_used < max_evals:
            selected = self._select()
            progressed = False
            for idx in selected:
                if st.evaluations_used >= max_evals:
                    break
                if self._trisect(int(idx)) > 0:
                    progressed = True
            self._record_history()
            if not progressed:
                # every selected rectangle sits at the depth cap
                break
        return self.archive, st


def run(func, bounds, strategy: str, max_evals: int, *, n_objectives: int = 2,
        epsilon: float = DEFAULT_EPSILON, hv_reference=None,
        archive: ParetoArchive | None = None) -> tuple[ParetoArchive, PartitionState]:
    """Run the DIRECT loop on ``func`` over box ``bounds``.

    ``func`` maps a real-coordinate vector to ``n_objectives`` values and must
    be pure.  When it also has a ``batch`` method, mapping an (m, n) array of
    points to (m, n_objectives) values, the samples of each trisection go to
    it in one call, in (dimension index, -/+) order; the outcome must equal
    that of calling ``func`` point by point.
    """
    lower, upper = _check_bounds(bounds)
    _validate_strategy(strategy, n_objectives)
    if max_evals < 1:
        raise InvalidInputError(f"max_evals must be >= 1, got {max_evals}")
    problem = _Problem(func=func, lower=lower, upper=upper, n_objectives=n_objectives)
    archive = ParetoArchive() if archive is None else archive
    return _Engine(problem, strategy, epsilon, hv_reference, archive).run(max_evals)
