"""Finite-element beam model: assembly, modal solve, changes, sensitivities."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modirect import beam
from modirect.beam import (BeamModel, assemble, eigen_change, healthy_modal,
                           mode_change, sensitivity_matrix, solve_modal)
from modirect.errors import InvalidInputError, NumericalFailureError

small_alpha = arrays(np.float64, 15, elements=st.floats(0.0, 0.3))


def analytic_first_frequency(model: BeamModel) -> float:
    # closed-form fixed-free Euler-Bernoulli fundamental frequency
    L = model.n_elements * model.element_length
    EI = model.youngs_modulus * model.second_moment_area
    rho_a = model.mass_density * model.cross_section_area
    return 1.87510407 ** 2 * np.sqrt(EI / rho_a) / L**2


class TestModelValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(InvalidInputError):
            BeamModel(n_elements=0)
        with pytest.raises(InvalidInputError):
            BeamModel(n_elements=5, youngs_modulus=-1.0)
        with pytest.raises(InvalidInputError):
            BeamModel(n_elements=5, mass_density=0.0)

    def test_free_dof_count(self):
        assert BeamModel(n_elements=7).n_free_dofs == 14


class TestAssemble:
    def test_zero_alpha_is_healthy(self, beam15):
        K, M = assemble(beam15, np.zeros(15))
        np.testing.assert_array_equal(K, beam.healthy_stiffness(beam15))
        np.testing.assert_array_equal(M, beam.mass_matrix(beam15))

    def test_full_damage_removes_all_stiffness(self, beam15):
        K, _ = assemble(beam15, np.ones(15))
        np.testing.assert_allclose(K, 0.0, atol=1e-6 * beam.healthy_stiffness(beam15).max())

    def test_two_element_half_damage_halves_element_block(self, beam2):
        # hand-assembled check: element 1 couples only the clamped node and
        # node 1, so its free-DOF block is the lower-right 2x2 of the 4x4
        # cubic-Hermite element stiffness
        L = beam2.element_length
        k = beam2.youngs_modulus * beam2.second_moment_area / L**3
        block = k * np.array([[12.0, -6.0 * L], [-6.0 * L, 4.0 * L**2]])
        healthy = beam.healthy_stiffness(beam2)
        K, _ = assemble(beam2, np.array([0.5, 0.0]))
        np.testing.assert_allclose((healthy - K)[:2, :2], 0.5 * block, rtol=1e-12)
        # element 2's contribution is untouched
        np.testing.assert_allclose(K[2:, 2:], healthy[2:, 2:], rtol=1e-12)

    def test_partition_of_unity(self, beam15):
        stack = beam.element_stiffness_stack(beam15)
        np.testing.assert_array_equal(stack.sum(axis=0), beam.healthy_stiffness(beam15))

    def test_dimension_mismatch(self, beam15):
        for shape in (14, (3, 14), (2, 3, 15)):
            with pytest.raises(InvalidInputError):
                assemble(beam15, np.zeros(shape))

    def test_alpha_out_of_range(self, beam15):
        with pytest.raises(InvalidInputError):
            assemble(beam15, np.full(15, 1.5))
        with pytest.raises(InvalidInputError):
            assemble(beam15, np.full(15, -0.1))

    @given(alpha=small_alpha)
    def test_stiffness_symmetric(self, alpha):
        K, M = assemble(BeamModel(n_elements=15), alpha)
        np.testing.assert_allclose(K, K.T, rtol=1e-12)
        np.testing.assert_allclose(M, M.T, rtol=1e-12)


class TestSolveModal:
    def test_first_frequency_matches_analytic(self, beam15):
        data = healthy_modal(beam15, 3)
        omega1 = np.sqrt(data.eigenvalues[0])
        assert omega1 == pytest.approx(analytic_first_frequency(beam15), rel=5e-3)

    def test_eigenvalues_ascending_positive(self, beam15):
        w = solve_modal(beam15, np.zeros(15), 10).eigenvalues
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) > 0.0)

    def test_mass_orthonormal(self, beam15):
        data = healthy_modal(beam15, 6)
        M = beam.mass_matrix(beam15)
        gram = data.mode_shapes.T @ M @ data.mode_shapes
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_rayleigh_identity(self, beam15):
        # with mass-orthonormal modes, lambda_j equals the stiffness
        # quadratic form of mode j
        data = healthy_modal(beam15, 6)
        K = beam.healthy_stiffness(beam15)
        quad = np.einsum("aj,ab,bj->j", data.mode_shapes, K, data.mode_shapes)
        np.testing.assert_allclose(quad, data.eigenvalues, rtol=1e-8)

    def test_sign_convention(self, beam15):
        phi = healthy_modal(beam15, 8).mode_shapes
        trans = phi[beam.TRANSLATIONAL_DOFS, :]
        lead = trans[np.abs(trans).argmax(axis=0), np.arange(8)]
        assert np.all(lead > 0.0)

    def test_uniform_damage_scales_eigenvalues(self, beam15):
        healthy = healthy_modal(beam15, 5)
        damaged = solve_modal(beam15, np.full(15, 0.1), 5)
        np.testing.assert_allclose(damaged.eigenvalues, 0.9 * healthy.eigenvalues,
                                   rtol=1e-10)
        np.testing.assert_allclose(damaged.mode_shapes, healthy.mode_shapes, atol=1e-8)

    def test_residual_tolerance(self, beam15):
        case3 = np.zeros(15)
        case3[[2, 8, 13]] = [0.09, 0.03, 0.05]
        # the nearly lost root element swaps mode 2 (see TestModeChange)
        swapped = np.zeros(15)
        swapped[0] = 0.999
        # the computed mu_j is accurate only to about eps * mu_1; a shift
        # offset relative to mu_j alone left the shifted matrix of mode 6 of
        # random row 15 exactly singular
        random_rows = np.random.default_rng(1).uniform(0.0, 0.3, (40, 15))
        alphas = np.vstack([case3, swapped, np.zeros(15), random_rows])
        data = solve_modal(beam15, alphas, 9)
        K, M = assemble(beam15, alphas)
        lam_M_phi = data.eigenvalues[:, None, :] * (M @ data.mode_shapes)
        residual = np.linalg.norm(K @ data.mode_shapes - lam_M_phi, axis=1)
        bound = 1e-10 * np.linalg.norm(lam_M_phi, axis=1)
        # lambda_1 of the swapped row is so small that rounding phi to float64
        # alone leaves a residual near eps |K| |phi|, about 3e-8 |lambda M phi|
        phi = data.mode_shapes[1, :, 0]
        bound[1, 0] = np.finfo(float).eps * np.linalg.norm(np.abs(K[1]) @ np.abs(phi))
        assert np.all(residual < bound)

    def test_requested_modes_match_all_modes(self, beam15, rng):
        # each shape comes from its own inverse iteration, so asking for a
        # subset changes no bit of the shapes asked for
        alphas = rng.uniform(0.0, 0.3, (beam.MAX_STACK_ROWS + 3, 15))
        alphas[1] = 0.0
        alphas[2, 0] = 0.999
        full = solve_modal(beam15, alphas, 9)
        for modes in ((2,), (9,), (5, 1), ()):
            part = solve_modal(beam15, alphas, 9, modes=modes)
            assert part.mode_shapes.shape == (len(alphas), 30, len(modes))
            np.testing.assert_array_equal(part.eigenvalues, full.eigenvalues)
            for col, mode in enumerate(modes):
                np.testing.assert_array_equal(part.mode_shapes[:, :, col],
                                              full.mode_shapes[:, :, mode - 1])

    def test_requested_modes_out_of_range(self, beam15):
        for modes in ((0,), (6,), (2, 7)):
            with pytest.raises(InvalidInputError):
                solve_modal(beam15, np.zeros(15), 5, modes=modes)

    def test_too_many_modes_rejected(self, beam2):
        with pytest.raises(InvalidInputError):
            solve_modal(beam2, np.zeros(2), 5)

    def test_singular_stiffness_reported(self, beam2):
        with pytest.raises(NumericalFailureError, match="stiffness"):
            solve_modal(beam2, np.ones(2), 2)

    @pytest.mark.parametrize("routine", ["inv", "eigvalsh", "solve"])
    def test_linalg_failure_reported(self, beam15, monkeypatch, routine):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic breakdown")

        monkeypatch.setattr(np.linalg, routine, fail)
        with pytest.raises(NumericalFailureError, match="synthetic breakdown"):
            solve_modal(beam15, np.zeros((3, 15)), 5)

    def test_mesh_refinement_sanity(self):
        coarse = BeamModel(n_elements=30, element_length=5.0)
        fine = BeamModel(n_elements=60, element_length=2.5)
        wc = healthy_modal(coarse, 3).eigenvalues
        wf = healthy_modal(fine, 3).eigenvalues
        np.testing.assert_allclose(np.sqrt(wc), np.sqrt(wf), rtol=1e-3)

    def test_determinism(self, beam15):
        alpha = np.linspace(0.0, 0.2, 15)
        a = solve_modal(beam15, alpha, 6)
        b = solve_modal(beam15, alpha, 6)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.mode_shapes, b.mode_shapes)

    def test_stack_rows_match_single_solves(self, beam15, rng):
        # more rows than one stacked LAPACK call takes
        alphas = rng.uniform(0.0, 0.3, (beam.MAX_STACK_ROWS + 3, 15))
        alphas[0] = 0.0
        data = solve_modal(beam15, alphas, 6)
        assert data.eigenvalues.shape == (len(alphas), 6)
        assert data.mode_shapes.shape == (len(alphas), 30, 6)
        for i, alpha in enumerate(alphas):
            single = solve_modal(beam15, alpha, 6)
            np.testing.assert_array_equal(data.eigenvalues[i], single.eigenvalues)
            np.testing.assert_array_equal(data.mode_shapes[i], single.mode_shapes)


def mpmath_modal(model: BeamModel, alpha, n_modes: int, mode: int):
    """Lowest eigenvalues and the mass-normalized shape of ``mode`` of the
    float64 matrices K(alpha) and M, solved at 30 significant digits."""
    K, M = assemble(model, alpha)
    with mpmath.workdps(30):
        C_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(M.tolist())))
        A = C_inv * mpmath.matrix(K.tolist()) * C_inv.T
        E, Q = mpmath.eigsy((A + A.T) / 2)
        order = sorted(range(len(E)), key=lambda i: E[i])
        eigenvalues = np.array([float(E[i]) for i in order[:n_modes]])
        shape = np.array([float(x) for x in C_inv.T * Q[:, order[mode - 1]]])
    return eigenvalues, shape


def _oracle_cases():
    """Damage vectors of beam15 and the relative eigenvalue tolerance."""
    rng = np.random.default_rng(20261020)
    tip = np.zeros(15)
    tip[14] = 0.01
    root = np.zeros(15)
    root[0] = 0.999
    return [pytest.param(np.zeros(15), 1e-10, id="zero"),
            pytest.param(tip, 1e-10, id="tip-1pct"),
            pytest.param(root, 1e-8, id="root-0.999"),
            pytest.param(rng.uniform(0.0, 0.3, 15), 1e-10, id="uniform-0.3"),
            pytest.param(rng.uniform(0.0, 0.02, 15), 1e-10, id="uniform-0.02")]


class TestOracle:
    """The modal solve of beam15 against a 30-digit ``mpmath`` solve of the
    same float64 matrices: eigenvalues of the first 9 modes and mode 2."""

    @pytest.mark.parametrize("alpha,rtol", _oracle_cases())
    def test_matches_mpmath(self, beam15, alpha, rtol):
        eigenvalues, shape = mpmath_modal(beam15, alpha, 9, 2)
        data = solve_modal(beam15, alpha, 9)
        np.testing.assert_allclose(data.eigenvalues, eigenvalues, rtol=rtol, atol=0.0)
        phi = data.mode_shapes[:, 1]
        shape *= np.sign(shape @ phi)
        assert np.abs(phi - shape).max() <= 1e-11 * np.abs(shape).max()


class TestEigenChange:
    def test_zero_alpha(self, beam15):
        np.testing.assert_array_equal(eigen_change(beam15, np.zeros(15), 5), 0.0)

    def test_uniform_damage_exact(self, beam15):
        change = eigen_change(beam15, np.full(15, 0.1), 5)
        np.testing.assert_allclose(change, 0.1 * healthy_modal(beam15, 5).eigenvalues,
                                   rtol=1e-10)

    def test_nonnegative(self, beam15, rng):
        for _ in range(10):
            alpha = rng.uniform(0.0, 0.3, 15)
            assert np.all(eigen_change(beam15, alpha, 5) >= 0.0)

    @given(alpha=small_alpha, bump=st.integers(0, 14))
    def test_monotone_in_alpha(self, alpha, bump):
        # more damage never raises any frequency
        model = BeamModel(n_elements=15)
        larger = alpha.copy()
        larger[bump] = min(larger[bump] + 0.1, 1.0 - 1e-9)
        base = eigen_change(model, alpha, 4)
        more = eigen_change(model, larger, 4)
        assert np.all(more >= base - 1e-9 * np.abs(base).max())


class TestModeChange:
    def test_zero_alpha(self, beam15):
        np.testing.assert_array_equal(mode_change(beam15, np.zeros(15), 2), 0.0)

    def test_uniform_damage_invariant(self, beam15):
        change = mode_change(beam15, np.full(15, 0.1), 2)
        np.testing.assert_allclose(change, 0.0, atol=1e-8)

    def test_output_length_translational(self, beam15):
        alpha = np.zeros(15)
        alpha[2] = 0.09
        assert mode_change(beam15, alpha, 2).shape == (15,)

    def test_sign_alignment_robust_to_flip(self, beam15, monkeypatch):
        alpha = np.zeros(15)
        alpha[[2, 13]] = [0.09, 0.05]
        reference = mode_change(beam15, alpha, 2)
        assert np.any(reference)
        original = beam.solve_modal

        def flipped(model, a, n_modes, modes=None):
            data = original(model, a, n_modes, modes)
            return beam.ModalData(eigenvalues=data.eigenvalues,
                                  mode_shapes=-data.mode_shapes)

        monkeypatch.setattr(beam, "solve_modal", flipped)
        np.testing.assert_allclose(mode_change(beam15, alpha, 2), reference, atol=1e-12)

    def test_mode_swap_warning(self, beam15):
        # a nearly lost root element turns mode 2 into a different shape
        # (modal assurance about 0.68 against the healthy mode 2)
        alpha = np.zeros(15)
        alpha[0] = 0.999
        with pytest.warns(UserWarning, match="possible mode swap"):
            mode_change(beam15, alpha, 2)
        alpha[0] = 0.09
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mode_change(beam15, alpha, 2)

    def test_mode_out_of_range(self, beam15):
        with pytest.raises(InvalidInputError):
            mode_change(beam15, np.zeros(15), 0)
        with pytest.raises(InvalidInputError):
            mode_change(beam15, np.zeros(15), 31)


class TestSensitivity:
    def test_row_sums_equal_eigenvalues(self, beam15):
        S = sensitivity_matrix(beam15, 6).matrix
        np.testing.assert_allclose(S.sum(axis=1), healthy_modal(beam15, 6).eigenvalues,
                                   rtol=1e-8)

    def test_entries_nonnegative(self, beam15):
        assert np.all(sensitivity_matrix(beam15, 9).matrix >= 0.0)

    def test_first_order_agreement_element3(self, beam15):
        S = sensitivity_matrix(beam15, 5).matrix
        alpha = np.zeros(15)
        alpha[2] = 0.01
        exact = eigen_change(beam15, alpha, 5)
        np.testing.assert_allclose(S @ alpha, exact, rtol=1e-2)

    def test_first_order_error_scales_with_alpha(self, beam15):
        # the linearization error is second order: relative error ~ C * alpha
        # with C <= ~1.1 for this mesh, so halving alpha halves the error
        S = sensitivity_matrix(beam15, 5).matrix
        for i in range(15):
            errs = []
            for eps in (0.01, 0.005):
                alpha = np.zeros(15)
                alpha[i] = eps
                exact = eigen_change(beam15, alpha, 5)
                errs.append(np.linalg.norm(S @ alpha - exact) / np.linalg.norm(exact))
            assert errs[0] < 0.012
            assert errs[1] < 0.65 * errs[0]
