"""MDLAC correlation objectives mapping a damage vector to objective values.

Two objectives are used for the beam benchmark: negated MDLAC of the natural
frequency changes and negated MDLAC of one mode-shape change.  Both lie in
[-1, 0] and are minimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import beam
from .beam import BeamModel
from .errors import InvalidInputError


@dataclass(frozen=True, eq=False)
class Measurement:
    """Measured eigenvalue changes and one mode-shape change.

    ``delta_lambda`` holds the first q eigenvalue changes (healthy minus
    damaged), ``delta_phi`` the change of mode ``mode_index`` (1-based)
    restricted to the measured DOFs.
    """

    delta_lambda: np.ndarray
    delta_phi: np.ndarray
    mode_index: int = 2

    def __post_init__(self):
        dl = np.asarray(self.delta_lambda, dtype=float)
        dp = np.asarray(self.delta_phi, dtype=float)
        if dl.ndim != 1 or dl.size < 1:
            raise InvalidInputError("delta_lambda must be a non-empty 1-D vector")
        if dp.ndim != 1 or dp.size < 1:
            raise InvalidInputError("delta_phi must be a non-empty 1-D vector")
        if self.mode_index < 1:
            raise InvalidInputError(f"mode_index must be >= 1, got {self.mode_index}")
        if not np.any(dl) and not np.any(dp):
            raise InvalidInputError(
                "measurement rejected: both change vectors are identically zero")
        dl.setflags(write=False)
        dp.setflags(write=False)
        object.__setattr__(self, "delta_lambda", dl)
        object.__setattr__(self, "delta_phi", dp)

    @property
    def q(self) -> int:
        return self.delta_lambda.size


def mdlac(measured, predicted):
    """Squared normalized inner product of two change vectors, in [0, 1].

    ``predicted`` is one vector (q,), giving a float, or a stack (m, q),
    giving one value per row.  Returns 0 by convention for a zero predicted
    change (the healthy hypothesis must never look perfect against a real
    change).  Sums run along rows only, so each row's value does not depend
    on the stack.
    """
    measured = np.asarray(measured, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if measured.ndim != 1 or predicted.ndim not in (1, 2) or \
            predicted.shape[-1:] != measured.shape:
        raise InvalidInputError(
            f"vector length mismatch: {measured.shape} vs {predicted.shape}")
    if not np.any(measured):
        raise InvalidInputError("measured change vector is identically zero")
    # pre-scale by the largest magnitudes so near-subnormal or huge inputs
    # cannot underflow/overflow the Gram products
    measured = measured / np.abs(measured).max()
    scale = np.abs(predicted).max(axis=-1, keepdims=True)
    predicted = predicted / np.where(scale == 0.0, 1.0, scale)
    norms = (predicted * predicted).sum(axis=-1)
    # a zero row has a zero numerator; give it a nonzero denominator
    value = (measured * predicted).sum(axis=-1) ** 2 / (
        (measured * measured).sum() * np.where(norms == 0.0, 1.0, norms))
    value = np.minimum(value, 1.0)
    return float(value) if predicted.ndim == 1 else value


@dataclass
class Evaluator:
    """Callable mapping a damage vector to the two-objective MDLAC vector.

    ``batch`` evaluates a stack of damage vectors with one stacked modal
    solve, ``beam.modal_change``, which covers both the frequency and the
    mode-shape prediction and also simulates the measurement;
    calling the evaluator on one vector is a batch of one.
    ``prediction="sensitivity"`` replaces the exact frequency-change
    re-solve with the first-order map S @ alpha.  ``suspected_mode_swaps``
    counts the evaluated rows whose damaged mode matches the healthy one
    with a modal assurance below ``beam.MODE_MATCH_WARN_MAC``.
    """

    model: BeamModel
    measurement: Measurement
    prediction: str = "exact"
    _sensitivity: np.ndarray | None = field(default=None, repr=False)
    suspected_mode_swaps: int = field(default=0, init=False)

    def __post_init__(self):
        if self.prediction not in ("exact", "sensitivity"):
            raise InvalidInputError(
                f"prediction mode must be 'exact' or 'sensitivity', got {self.prediction!r}")
        if self.prediction == "sensitivity":
            self._sensitivity = beam.sensitivity_matrix(self.model, self.measurement.q).matrix

    def __call__(self, alpha) -> np.ndarray:
        return self.batch(np.asarray(alpha, dtype=float)[None])[0]

    def batch(self, alphas) -> np.ndarray:
        """(m, 2) objective vectors of the damage vectors in the rows of ``alphas``."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 2:
            raise InvalidInputError(
                f"expected an (m, n) stack of damage vectors, got shape {alphas.shape}")
        meas = self.measurement
        delta_lambda, delta_phi, mac = beam.modal_change(
            self.model, alphas, meas.q, meas.mode_index)
        if self._sensitivity is not None:
            delta_lambda = (alphas[:, None, :] * self._sensitivity).sum(axis=-1)
        self.suspected_mode_swaps += int(np.count_nonzero(mac < beam.MODE_MATCH_WARN_MAC))
        return -np.column_stack([
            mdlac(meas.delta_lambda, delta_lambda),
            mdlac(meas.delta_phi, delta_phi[:, beam.TRANSLATIONAL_DOFS])])


def evaluate(alpha, measurement: Measurement, model: BeamModel,
             prediction: str = "exact") -> np.ndarray:
    """Objective vector (f1, f2) = (-MDLAC_freq, -MDLAC_mode) at ``alpha``."""
    return Evaluator(model, measurement, prediction)(alpha)
