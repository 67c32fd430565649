"""Euler-Bernoulli cantilever beam finite-element model.

Provides stiffness/mass assembly with per-element stiffness-loss indices,
a dense generalized modal solver, exact eigenvalue/mode-shape change
computations and the first-order eigenvalue sensitivity matrix.  The modal
solve takes one damage vector or a stack of them, so a search can evaluate
many candidates per numpy call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Free-DOF layout after clamping node 0: (v_1, theta_1, v_2, theta_2, ...).
# Even offsets are translations, odd offsets are rotations.
TRANSLATIONAL_DOFS = slice(0, None, 2)

# Modal-assurance value below which baseline/damaged modes are flagged as a
# possible mode swap.
MODE_MATCH_WARN_MAC = 0.9

# Rows per stacked LAPACK call in solve_modal.  Larger stacks save little
# call overhead and raise the peak memory of a 30-element run by over 10%.
MAX_STACK_ROWS = 16

# Inverse iteration for the wanted mode shapes: the offset of the shift from
# the computed eigenvalue, relative to the largest eigenvalue of the stack's
# matrix, and the number of solves from the fixed start vector.
SHIFT_OFFSET = 1e-13
INVERSE_ITERATION_STEPS = 2


@dataclass(frozen=True)
class BeamModel:
    """Cantilever (fixed-free) beam discretized into equal 2-node elements."""

    n_elements: int
    element_length: float = 10.0
    youngs_modulus: float = 69e9
    cross_section_area: float = 1.0
    second_moment_area: float = 1.0 / 12.0
    mass_density: float = 2700.0

    def __post_init__(self):
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise InvalidInputError(f"n_elements must be a positive integer, got {self.n_elements}")
        for name in ("element_length", "youngs_modulus", "cross_section_area",
                     "second_moment_area", "mass_density"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidInputError(f"{name} must be strictly positive, got {value}")

    @property
    def n_free_dofs(self) -> int:
        return 2 * self.n_elements


@dataclass
class ModalData:
    """Lowest eigenpairs of one model state.

    ``eigenvalues`` are ascending (rad^2/s^2); ``mode_shapes`` has one column
    per requested mode over the free DOFs, mass-ortho-normalized with the
    largest-magnitude translational component of each mode positive.
    """

    eigenvalues: np.ndarray
    mode_shapes: np.ndarray


@dataclass
class SensitivityMatrix:
    """First-order map from damage indices to eigenvalue changes.

    ``matrix[j, i]`` is the quadratic form of baseline mode j over the
    healthy stiffness of element i.
    """

    matrix: np.ndarray


def _element_stiffness(model: BeamModel) -> np.ndarray:
    L = model.element_length
    k = model.youngs_modulus * model.second_moment_area / L**3
    return k * np.array([
        [12.0, 6.0 * L, -12.0, 6.0 * L],
        [6.0 * L, 4.0 * L**2, -6.0 * L, 2.0 * L**2],
        [-12.0, -6.0 * L, 12.0, -6.0 * L],
        [6.0 * L, 2.0 * L**2, -6.0 * L, 4.0 * L**2],
    ])


def _element_mass(model: BeamModel) -> np.ndarray:
    L = model.element_length
    m = model.mass_density * model.cross_section_area * L / 420.0
    return m * np.array([
        [156.0, 22.0 * L, 54.0, -13.0 * L],
        [22.0 * L, 4.0 * L**2, 13.0 * L, -3.0 * L**2],
        [54.0, 13.0 * L, 156.0, -22.0 * L],
        [-13.0 * L, -3.0 * L**2, -22.0 * L, 4.0 * L**2],
    ])


@lru_cache(maxsize=None)
def element_stiffness_stack(model: BeamModel) -> np.ndarray:
    """(n_elements, ndof, ndof) healthy per-element stiffness over free DOFs."""
    n = model.n_elements
    ndof = model.n_free_dofs
    ke = _element_stiffness(model)
    stack = np.zeros((n, ndof, ndof))
    for e in range(n):
        # element e couples global DOFs [2e, 2e+3]; node-0 DOFs (0, 1) are clamped
        dofs = np.arange(2 * e, 2 * e + 4) - 2
        keep = dofs >= 0
        idx = dofs[keep]
        stack[e][np.ix_(idx, idx)] = ke[np.ix_(keep, keep)]
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def mass_matrix(model: BeamModel) -> np.ndarray:
    """Consistent mass matrix over free DOFs (independent of damage)."""
    n = model.n_elements
    ndof = model.n_free_dofs
    me = _element_mass(model)
    M = np.zeros((ndof, ndof))
    for e in range(n):
        dofs = np.arange(2 * e, 2 * e + 4) - 2
        keep = dofs >= 0
        idx = dofs[keep]
        M[np.ix_(idx, idx)] += me[np.ix_(keep, keep)]
    M.setflags(write=False)
    return M


@lru_cache(maxsize=None)
def healthy_stiffness(model: BeamModel) -> np.ndarray:
    K = element_stiffness_stack(model).sum(axis=0)
    K.setflags(write=False)
    return K


def check_alpha(model: BeamModel, alpha) -> np.ndarray:
    """``alpha`` as a float array: one damage vector (n,) or a stack (m, n)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != model.n_elements:
        raise InvalidInputError(
            f"damage vector has shape {alpha.shape}, expected ({model.n_elements},) "
            f"or (m, {model.n_elements})")
    if not np.all(np.isfinite(alpha)) or np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise InvalidInputError("damage indices must lie in [0, 1]")
    return alpha


def assemble(model: BeamModel, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Damaged stiffness and (damage-independent) mass matrices over free DOFs.

    An (m, n) ``alpha`` gives an (m, ndof, ndof) stiffness stack.  K is
    summed element block by element block, so each matrix of a stack is
    bit-identical to assembling its row alone.
    """
    alpha = check_alpha(model, alpha)
    keep = 1.0 - alpha
    ke = _element_stiffness(model)
    ndof = model.n_free_dofs
    K = np.zeros(alpha.shape[:-1] + (ndof, ndof))
    for e in range(model.n_elements):
        # element e couples free DOFs 2e-2 .. 2e+1; node-0 DOFs are clamped
        first = 2 * e - 2
        lo = max(first, 0)
        K[..., lo:first + 4, lo:first + 4] += \
            keep[..., e, None, None] * ke[lo - first:, lo - first:]
    return K, mass_matrix(model).copy()


def _fix_signs(phi: np.ndarray) -> np.ndarray:
    """Make each mode's largest-magnitude translation positive; the last two
    axes of ``phi`` are (DOF, mode)."""
    trans = phi[..., TRANSLATIONAL_DOFS, :]
    lead = np.take_along_axis(trans, np.abs(trans).argmax(axis=-2)[..., None, :], axis=-2)
    return phi * np.where(lead < 0.0, -1.0, 1.0)


def solve_modal(model: BeamModel, alpha, n_modes: int, modes=None) -> ModalData:
    """Lowest ``n_modes`` eigenvalues and the shapes of ``modes`` of the beam.

    ``alpha`` is one damage vector (n,) or a stack (m, n); the eigenvalues
    and mode shapes gain the same leading axis.  ``modes`` lists the 1-based
    modes, each at most ``n_modes``, whose shapes are wanted, in the order of
    the ``mode_shapes`` columns; the default is all ``n_modes``.  Each damaged
    stiffness is Cholesky-factorized, K = L L^T, and the problem reduced to
    the standard form B = L^-1 M L^-T, whose *largest* eigenvalues are the
    reciprocals of the wanted lowest generalized ones.  This shift-invert
    form keeps the low modes accurate despite the wide eigenvalue spread of
    beam stiffness matrices.  The eigenvalues come from an eigenvalues-only
    solve of B and each wanted shape from inverse iteration on B, so a shape
    does not depend on which other shapes were asked for.  Every step works
    matrix by matrix, so a row's result does not depend on the stack it was
    solved in.
    """
    if n_modes < 1 or n_modes > model.n_free_dofs:
        raise InvalidInputError(
            f"n_modes must be in [1, {model.n_free_dofs}], got {n_modes}")
    modes = tuple(range(1, n_modes + 1)) if modes is None else tuple(modes)
    if any(mode < 1 or mode > n_modes for mode in modes):
        raise InvalidInputError(f"modes {modes} must lie in [1, {n_modes}]")
    alpha = check_alpha(model, alpha)
    rows = alpha.reshape(-1, model.n_elements)
    eigenvalues = np.empty((rows.shape[0], n_modes))
    mode_shapes = np.empty((rows.shape[0], model.n_free_dofs, len(modes)))
    for start in range(0, rows.shape[0], MAX_STACK_ROWS):
        chunk = slice(start, start + MAX_STACK_ROWS)
        eigenvalues[chunk], mode_shapes[chunk] = _solve_stack(model, rows[chunk], n_modes, modes)
    if alpha.ndim == 1:
        eigenvalues, mode_shapes = eigenvalues[0], mode_shapes[0]
    return ModalData(eigenvalues=eigenvalues, mode_shapes=mode_shapes)


def _solve_stack(model: BeamModel, rows: np.ndarray, n_modes: int,
                 modes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    K, M = assemble(model, rows)
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"stiffness matrix is not positive definite: {exc}") from exc
    try:
        # W = L^-T, so B = W^T M W; mu = 1/lambda, largest first
        W = np.linalg.inv(np.swapaxes(L, 1, 2))
        B = np.swapaxes(W, 1, 2) @ (M @ W)
        B = 0.5 * (B + np.swapaxes(B, 1, 2))
        mu = np.linalg.eigvalsh(B)[:, :-n_modes - 1:-1]
        if np.any(mu <= 0.0):  # pragma: no cover - M is SPD by construction
            raise NumericalFailureError(
                f"mass matrix is not positive definite (eigenvalue {mu.min():g})")
        wanted = mu[:, [mode - 1 for mode in modes]]
        # the computed mu_j is accurate only to about eps * mu_1 = eps |B|,
        # far above eps * mu_j for the higher modes, so the offset scales
        # with mu_1 to keep B - sigma I from being exactly singular
        Y = _inverse_iteration(B, wanted + SHIFT_OFFSET * mu[:, :1])
        # y = L^T phi with y^T y = 1 gives phi^T M phi = mu; rescale to unit mass norm
        phi = (W[:, None] @ Y)[..., 0] / np.sqrt(wanted)[..., None]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"modal solve failed: {exc}") from exc
    return 1.0 / mu, _fix_signs(np.swapaxes(phi, 1, 2))


def _inverse_iteration(B: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the matrices of ``B`` (m, n, n) for the
    eigenvalues nearest ``shifts`` (m, k), as an (m, k, n, 1) stack.

    The start vector is fixed and every (row, shift) pair is solved on its
    own, so each vector depends only on its own matrix and shift.
    """
    shifted = B[:, None] - shifts[..., None, None] * np.eye(B.shape[-1])
    y = np.ones(shifted.shape[:-1] + (1,))
    for _ in range(INVERSE_ITERATION_STEPS):
        y = np.linalg.solve(shifted, y)
        y /= np.linalg.norm(y, axis=-2, keepdims=True)
    return y


@lru_cache(maxsize=None)
def healthy_modal(model: BeamModel, n_modes: int) -> ModalData:
    data = solve_modal(model, np.zeros(model.n_elements), n_modes)
    data.eigenvalues.setflags(write=False)
    data.mode_shapes.setflags(write=False)
    return data


def eigen_change(model: BeamModel, alpha, q: int) -> np.ndarray:
    """Exact healthy-minus-damaged eigenvalue changes for the first q modes."""
    healthy = healthy_modal(model, q)
    damaged = solve_modal(model, alpha, q, modes=())
    return healthy.eigenvalues - damaged.eigenvalues


def aligned_change(phi_h: np.ndarray, phi_d) -> tuple[np.ndarray, np.ndarray]:
    """Healthy-minus-damaged mode shape and the modal assurance of the pair.

    The damaged shape is sign-aligned against the healthy one before
    differencing.  ``phi_d`` holds one shape or a stack of them over the last
    axis; sums run over that axis only, so each row is independent of the
    stack.
    """
    dots = (phi_d * phi_h).sum(axis=-1)
    mac = dots**2 / ((phi_d * phi_d).sum(axis=-1) * (phi_h * phi_h).sum(axis=-1))
    phi_d = np.where((dots < 0.0)[..., None], -phi_d, phi_d)
    return phi_h - phi_d, mac


def modal_change(model: BeamModel, alpha, q: int,
                 mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Healthy-minus-damaged changes of the first q eigenvalues and of the
    shape of ``mode`` (1-based, over all free DOFs), from one modal solve.

    Returns the two changes and the modal assurance between the matched
    healthy and damaged shapes.  Both the simulated measurement and the
    Evaluator's prediction come from here; ``alpha`` is one damage vector or
    a stack.
    """
    n_modes = max(q, mode)
    healthy = healthy_modal(model, n_modes)
    damaged = solve_modal(model, alpha, n_modes, modes=(mode,))
    delta_phi, mac = aligned_change(healthy.mode_shapes[:, mode - 1],
                                    damaged.mode_shapes[..., 0])
    return healthy.eigenvalues[:q] - damaged.eigenvalues[..., :q], delta_phi, mac


def warn_on_mode_swap(mac, mode: int) -> None:
    """Warn when a modal assurance value drops below MODE_MATCH_WARN_MAC."""
    if np.any(mac < MODE_MATCH_WARN_MAC):
        warnings.warn(
            f"modal assurance between baseline and damaged mode {mode} "
            f"is below {MODE_MATCH_WARN_MAC}: possible mode swap", stacklevel=3)


def mode_change(model: BeamModel, alpha, mode: int,
                measured_dofs=TRANSLATIONAL_DOFS) -> np.ndarray:
    """Healthy-minus-damaged change of one mode shape over the measured DOFs.

    ``mode`` is 1-based.  The damaged mode is sign-aligned against the healthy
    one before differencing; a warning is emitted when the modal-assurance
    value between the matched modes drops below MODE_MATCH_WARN_MAC.
    """
    _, change, mac = modal_change(model, alpha, mode, mode)
    warn_on_mode_swap(mac, mode)
    return change[..., measured_dofs]


def sensitivity_matrix(model: BeamModel, q: int) -> SensitivityMatrix:
    """q x n first-order eigenvalue sensitivities from baseline modes."""
    phi = healthy_modal(model, q).mode_shapes
    stack = element_stiffness_stack(model)
    S = np.einsum("iab,aj,bj->ji", stack, phi, phi)
    # entries are PSD quadratic forms; scrub float round-off below zero
    S[(S < 0.0) & (S > -1e-9 * np.abs(S).max())] = 0.0
    return SensitivityMatrix(matrix=S)
