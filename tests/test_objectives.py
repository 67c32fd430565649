"""MDLAC correlation measure and the two-objective evaluation."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modirect import beam
from modirect.beam import BeamModel, eigen_change, mode_change
from modirect.cases import build_model, make_case, simulate_measurement
from modirect.errors import InvalidInputError, NumericalFailureError
from modirect.objectives import Evaluator, Measurement, evaluate, mdlac

finite = st.floats(-1e6, 1e6, allow_nan=False)
vectors = arrays(np.float64, st.integers(1, 12), elements=finite)


def case3_truth() -> np.ndarray:
    alpha = np.zeros(15)
    alpha[[2, 8, 13]] = [0.09, 0.03, 0.05]
    return alpha


def exact_measurement(model: BeamModel, alpha, q: int = 5, mode: int = 2) -> Measurement:
    return Measurement(delta_lambda=eigen_change(model, alpha, q),
                       delta_phi=mode_change(model, alpha, mode),
                       mode_index=mode)


class TestMdlac:
    def test_identical_direction(self):
        v = np.array([1.0, -2.0, 3.0])
        assert mdlac(v, v) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("c", [2.0, -1.0, 0.001, -750.0])
    def test_scale_and_sign_invariance(self, c):
        v = np.array([0.3, 1.2, -0.7, 2.0])
        assert mdlac(v, c * v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert mdlac(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_prediction_convention(self):
        assert mdlac(np.array([1.0, 2.0]), np.zeros(2)) == 0.0

    def test_zero_measurement_rejected(self):
        with pytest.raises(InvalidInputError):
            mdlac(np.zeros(3), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            mdlac(np.ones(3), np.ones(4))

    @given(measured=vectors, data=st.data())
    def test_bounds_and_symmetry(self, measured, data):
        if not np.any(measured):
            measured[0] = 1.0
        predicted = data.draw(arrays(np.float64, measured.size, elements=finite))
        if not np.any(predicted):
            return
        value = mdlac(measured, predicted)
        assert 0.0 <= value <= 1.0
        assert mdlac(predicted, measured) == pytest.approx(value, abs=1e-12)

    # subnormal entries lose their digits when scaled, and the smallest one
    # underflows to zero (see test_underflowed_measurement_rejected)
    @given(measured=arrays(np.float64, st.integers(1, 12),
                           elements=st.floats(-1e6, 1e6, allow_nan=False,
                                              allow_subnormal=False)),
           scale=st.floats(1e-3, 1e3))
    def test_rescaling_either_argument(self, measured, scale):
        if not np.any(measured):
            measured[0] = 1.0
        other = np.arange(1.0, measured.size + 1.0)
        base = mdlac(measured, other)
        assert mdlac(measured * scale, other) == pytest.approx(base, rel=1e-9)
        assert mdlac(measured, other * scale) == pytest.approx(base, rel=1e-9)

    def test_underflowed_measurement_rejected(self):
        with pytest.raises(InvalidInputError):
            mdlac(np.array([5e-324]) * 0.5, np.ones(1))

    def test_stacked_prediction(self, rng):
        measured = rng.normal(size=9)
        predicted = rng.normal(size=(6, 9))
        predicted[2] = 0.0
        predicted[4] = -3.0 * measured
        values = mdlac(measured, predicted)
        assert values.shape == (6,)
        for row, value in zip(predicted, values):
            assert value == mdlac(measured, row)
        assert values[2] == 0.0
        assert values[4] == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(InvalidInputError):
            mdlac(measured, predicted[:, :8])


class TestMeasurement:
    def test_rejects_all_zero(self):
        with pytest.raises(InvalidInputError):
            Measurement(delta_lambda=np.zeros(5), delta_phi=np.zeros(15))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Measurement(delta_lambda=np.zeros(0), delta_phi=np.ones(15))

    def test_q_property(self):
        m = Measurement(delta_lambda=np.ones(7), delta_phi=np.ones(15))
        assert m.q == 7

    def test_immutable(self):
        m = Measurement(delta_lambda=np.ones(5), delta_phi=np.ones(15))
        with pytest.raises(ValueError):
            m.delta_lambda[0] = 2.0


class TestEvaluate:
    def test_truth_scores_perfectly(self, beam15):
        truth = case3_truth()
        meas = exact_measurement(beam15, truth, q=9)
        np.testing.assert_allclose(evaluate(truth, meas, beam15), [-1.0, -1.0],
                                   atol=1e-10)

    def test_healthy_hypothesis_scores_worst(self, beam15):
        meas = exact_measurement(beam15, case3_truth())
        np.testing.assert_array_equal(evaluate(np.zeros(15), meas, beam15), [0.0, 0.0])

    def test_components_in_range(self, beam15, rng):
        meas = exact_measurement(beam15, case3_truth())
        ev = Evaluator(beam15, meas)
        for _ in range(5):
            f = ev(rng.uniform(0.0, 0.3, 15))
            assert np.all(f >= -1.0) and np.all(f <= 0.0)

    def test_scaled_truth_near_optimal(self, beam15):
        # MDLAC is nearly direction-only: candidates on the truth ray stay
        # close to (-1, -1) across a 4x amplitude range
        alpha = np.zeros(15)
        alpha[[2, 13]] = [0.09, 0.05]
        meas = exact_measurement(beam15, alpha)
        for c in (0.5, 2.0):
            f = evaluate(np.clip(c * alpha, 0.0, 1.0), meas, beam15)
            assert f[0] == pytest.approx(-1.0, abs=1e-3)
            assert f[1] == pytest.approx(-1.0, abs=5e-2)

    def test_density_rescaling_invariance(self, beam15):
        truth = case3_truth()
        probe = np.zeros(15)
        probe[[1, 6, 13]] = [0.02, 0.11, 0.04]
        scaled = dataclasses.replace(beam15, mass_density=beam15.mass_density * 3.7)
        for model in (beam15, scaled):
            meas = exact_measurement(model, truth)
            f = evaluate(probe, meas, model)
            if model is beam15:
                reference = f
        np.testing.assert_allclose(f, reference, atol=1e-10)

    def test_sensitivity_mode_scale_invariant(self, beam15):
        # the first-order frequency prediction S @ alpha has exactly
        # scale-free MDLAC
        truth = case3_truth()
        meas = exact_measurement(beam15, truth)
        ev = Evaluator(beam15, meas, prediction="sensitivity")
        f1 = ev(0.5 * truth)[0]
        f2 = ev(truth)[0]
        assert f1 == pytest.approx(f2, abs=1e-12)

    def test_sensitivity_mode_close_to_exact(self, beam15):
        meas = exact_measurement(beam15, case3_truth())
        probe = np.zeros(15)
        probe[[2, 8]] = [0.05, 0.08]
        exact = Evaluator(beam15, meas)(probe)
        approx = Evaluator(beam15, meas, prediction="sensitivity")(probe)
        assert approx[0] == pytest.approx(exact[0], abs=5e-3)
        assert approx[1] == exact[1]

    def test_unknown_prediction_mode(self, beam15):
        meas = exact_measurement(beam15, case3_truth())
        with pytest.raises(InvalidInputError):
            Evaluator(beam15, meas, prediction="linearized")

    def test_evaluator_deterministic(self, beam15, rng):
        meas = exact_measurement(beam15, case3_truth())
        ev = Evaluator(beam15, meas)
        alpha = rng.uniform(0.0, 0.3, 15)
        np.testing.assert_array_equal(ev(alpha), ev(alpha))


@lru_cache(maxsize=None)
def case_evaluator(case_id: str) -> tuple[Evaluator, float]:
    """Evaluator of a registry case and the upper bound of its search box."""
    config = make_case(case_id)
    model = build_model(config)
    return Evaluator(model, simulate_measurement(config, model)), config.bounds[1]


@st.composite
def case_batches(draw):
    """A registry case's Evaluator and a stack of 1 to 2n damage vectors,
    with whole rows at either bound and entries at the bounds."""
    ev, upper = case_evaluator(draw(st.sampled_from(["1", "2", "3", "4", "5"])))
    n = ev.model.n_elements
    entries = st.sampled_from([0.0, upper]) | st.floats(0.0, upper)
    rows = st.one_of(st.just(np.zeros(n)), st.just(np.full(n, upper)),
                     arrays(np.float64, n, elements=entries))
    return ev, np.array(draw(st.lists(rows, min_size=1, max_size=2 * n)))


class TestBatch:
    @settings(max_examples=15)
    @given(case=case_batches())
    def test_rows_match_single_calls(self, case):
        ev, alphas = case
        out = ev.batch(alphas)
        assert out.shape == (len(alphas), 2)
        for row, alpha in zip(out, alphas):
            assert row.tobytes() == ev(alpha).tobytes()

    def test_row_out_of_range(self, beam15):
        ev = Evaluator(beam15, exact_measurement(beam15, case3_truth()))
        for bad in (1.5, -0.1, np.nan):
            alphas = np.zeros((3, 15))
            alphas[1, 4] = bad
            with pytest.raises(InvalidInputError):
                ev.batch(alphas)

    def test_row_of_wrong_length(self, beam15):
        ev = Evaluator(beam15, exact_measurement(beam15, case3_truth()))
        with pytest.raises(InvalidInputError):
            ev.batch(np.zeros((3, 14)))
        with pytest.raises(InvalidInputError):
            ev.batch(np.zeros(15))

    def test_singular_row(self, beam2):
        ev = Evaluator(beam2, exact_measurement(beam2, np.array([0.1, 0.0]), q=3))
        with pytest.raises(NumericalFailureError):
            ev.batch(np.array([[0.1, 0.0], [1.0, 1.0]]))

    def test_zero_row_convention(self, beam15, rng):
        # zero rows first, inside and past the first stacked solve reproduce
        # the healthy solve exactly
        truth = case3_truth()
        ev = Evaluator(beam15, exact_measurement(beam15, truth))
        alphas = rng.uniform(0.0, 0.3, (beam.MAX_STACK_ROWS + 4, 15))
        zero_rows = [0, 7, beam.MAX_STACK_ROWS + 2]
        alphas[zero_rows] = 0.0
        alphas[1] = truth
        delta_lambda, delta_phi, _ = beam.modal_change(beam15, alphas, 5, 2)
        np.testing.assert_array_equal(delta_lambda[zero_rows], 0.0)
        np.testing.assert_array_equal(delta_phi[zero_rows], 0.0)
        assert np.all(delta_lambda[2:7] != 0.0)
        out = ev.batch(alphas)
        np.testing.assert_array_equal(out[zero_rows], 0.0)
        np.testing.assert_allclose(out[1], [-1.0, -1.0], atol=1e-10)

    def test_sensitivity_prediction(self, beam15, rng):
        meas = exact_measurement(beam15, case3_truth())
        ev = Evaluator(beam15, meas, prediction="sensitivity")
        alphas = rng.uniform(0.0, 0.3, (5, 15))
        alphas[0] = 0.0
        out = ev.batch(alphas)
        for row, alpha in zip(out, alphas):
            assert row.tobytes() == ev(alpha).tobytes()
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        # the mode-shape objective comes from the same exact modal solve
        np.testing.assert_array_equal(out[:, 1], Evaluator(beam15, meas).batch(alphas)[:, 1])

    def test_mode_swap_counter(self, beam15):
        ev = Evaluator(beam15, exact_measurement(beam15, case3_truth()))
        swapped = np.zeros(15)
        swapped[0] = 0.999
        assert ev.suspected_mode_swaps == 0
        ev.batch(np.vstack([np.zeros(15), case3_truth(), swapped]))
        assert ev.suspected_mode_swaps == 1
        ev(swapped)
        assert ev.suspected_mode_swaps == 2
