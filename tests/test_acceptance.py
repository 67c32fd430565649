"""End-to-end acceptance criteria for the damage-identification toolkit.

Each criterion emits exactly one PASS/FAIL line on the real stdout (bypassing
pytest capture) before asserting, so the verdict survives in any log.  The
quantitative benchmark reproductions (criteria 1-3) are asserted at their
stated tolerances; see the test docstrings for what each one requires.
"""

import dataclasses
import sys

import numpy as np
import pytest

from modirect import beam, engine
from modirect.beam import eigen_change, healthy_modal, sensitivity_matrix
from modirect.cases import (compare_strategies, make_case, run_case,
                            simulate_measurement, sweep, true_alpha)
from modirect.moo import (ParetoArchive, dominates, exclusive_contribution,
                          fast_nondominated_sort, hypervolume_2d)
from modirect.objectives import Measurement, evaluate, mdlac

# Table-2-style targets for the Case 3 comparison: posterior damage indices
# at elements 3/9/14 per strategy.
PROPOSED_TARGET = np.array([0.0900, 0.0300, 0.0500])
RIVAL_TARGETS = {
    "ns-direct": np.array([0.0875, 0.0425, 0.0575]),
    "mo-direct": np.array([0.0897, 0.0302, 0.0507]),
    "mo-direct-hv": np.array([0.0859, 0.0254, 0.0409]),
}


@pytest.fixture
def verdict(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def emit(number: int, title: str, ok: bool, detail: str = "") -> bool:
        line = f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" -- {detail}"
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        return ok

    return emit


@pytest.fixture(scope="module")
def criterion1_config():
    return make_case("3", noise_sigma=0.0, q_frequencies=9,
                     strategy="pareto-front", max_evals=30_000)


@pytest.fixture(scope="module")
def criterion1_report(criterion1_config):
    return run_case(criterion1_config)


def damaged_errors(report) -> np.ndarray:
    truth = true_alpha(report.config)
    elems = np.array([e - 1 for e, _ in report.config.damages])
    return np.abs(report.posterior_alpha[elems] - truth[elems])


def test_criterion_1_table2_reproduction(criterion1_report, verdict):
    """Case 3, q = 9, zero noise, 30,000 evaluations: posterior within
    0.005 of (0.09, 0.03, 0.05) at elements 3/9/14 and below 0.005 elsewhere,
    in at most five minutes single-threaded."""
    report = criterion1_report
    alpha = report.posterior_alpha
    damaged = np.array([2, 8, 13])
    others = np.setdiff1d(np.arange(15), damaged)
    err = np.abs(alpha[damaged] - PROPOSED_TARGET)
    ok = bool(err.max() <= 5e-3 and np.abs(alpha[others]).max() < 5e-3
              and report.wall_clock_seconds <= 300.0)
    verdict(1, "Table 2 reproduction", ok,
            f"posterior at 3/9/14 = {np.round(alpha[damaged], 4).tolist()}, "
            f"max |error| = {err.max():.4f}, elsewhere max = "
            f"{np.abs(alpha[others]).max():.4f}, "
            f"{report.wall_clock_seconds:.0f}s")
    assert report.wall_clock_seconds <= 300.0
    assert err.max() <= 5e-3
    assert np.abs(alpha[others]).max() < 5e-3


def test_criterion_2_strategy_comparison(criterion1_config, verdict):
    """Under criterion-1 conditions the proposed strategy's summed absolute
    error at damaged elements is no worse than each rival's (inversion is a
    warning, not a failure) and every rival row lands within 0.01 per element
    of its published comparison value."""
    result = compare_strategies(criterion1_config)
    assert not result.errors, f"strategies failed: {result.errors}"
    errors = {name: float(damaged_errors(rep).sum())
              for name, rep in result.reports.items()}
    damaged = np.array([2, 8, 13])
    deviations = {}
    for name, target in RIVAL_TARGETS.items():
        row = result.reports[name].posterior_alpha[damaged]
        deviations[name] = float(np.abs(row - target).max())
    ranking_ok = all(errors["pareto-front"] <= errors[name] + 1e-12
                     for name in RIVAL_TARGETS)
    rows_ok = all(dev <= 0.01 for dev in deviations.values())
    verdict(2, "strategy comparison", rows_ok,
            f"summed errors = { {k: round(v, 4) for k, v in errors.items()} }, "
            f"rival row deviations = { {k: round(v, 4) for k, v in deviations.items()} }, "
            f"ranking best = {ranking_ok}")
    if not ranking_ok:
        import warnings
        warnings.warn("strategy ranking inverted on Case 3 comparison")
    assert rows_ok, f"rival rows deviate beyond 0.01: {deviations}"


def test_criterion_3_noisy_identification(verdict):
    """Cases 1 and 2 with 1.5% noise over ten seeds: the elements with
    posterior index >= 0.01 must equal the true damage set in at least 7 of
    10 seeds, with severities within 0.02 of truth whenever the set is
    correct."""
    summary = {}
    ok = True
    for case_id in ("1", "2"):
        config = make_case(case_id, noise_sigma=0.015, max_evals=30_000, seed=0)
        reports = sweep(config, 10)
        true_set = {e for e, _ in config.damages}
        truth = true_alpha(config)
        hits = 0
        severity_ok = True
        for report in reports:
            found = {int(i) + 1 for i in np.flatnonzero(report.posterior_alpha >= 0.01)}
            if found == true_set:
                hits += 1
                for e in true_set:
                    if abs(report.posterior_alpha[e - 1] - truth[e - 1]) > 0.02:
                        severity_ok = False
        summary[case_id] = (hits, severity_ok)
        ok = ok and hits >= 7 and severity_ok
    verdict(3, "noisy identification", ok,
            f"set matches per case (of 10) and severity-ok = {summary}")
    for case_id, (hits, severity_ok) in summary.items():
        assert hits >= 7, f"case {case_id}: true damage set found in {hits}/10 seeds"
        assert severity_ok, f"case {case_id}: severities beyond 0.02 on a correct set"


def test_criterion_4_case5_information_gain(verdict):
    """On the 30-element case, using eight measured frequencies must beat
    five: strictly smaller mean absolute posterior error at the damaged
    elements, averaged over five seeds."""
    means = {}
    for case_id in ("5", "5b"):
        config = make_case(case_id, max_evals=30_000, seed=0)
        reports = sweep(config, 5)
        means[config.q_frequencies] = float(np.mean(
            [damaged_errors(r).mean() for r in reports]))
    ok = means[8] < means[5]
    verdict(4, "Case 5 information gain", ok,
            f"mean abs error q=5: {means[5]:.4f}, q=8: {means[8]:.4f}")
    assert ok


def test_criterion_5_forward_model_oracle(beam15, verdict):
    """Healthy frequencies against the closed-form cantilever solution
    (0.5%), and the sensitivity matrix against exact eigenvalue changes at
    one-percent damage (1% relative per element)."""
    beta_l = np.array([1.87510407, 4.69409113, 7.85475744])
    L = beam15.n_elements * beam15.element_length
    scale = np.sqrt(beam15.youngs_modulus * beam15.second_moment_area /
                    (beam15.mass_density * beam15.cross_section_area)) / L**2
    analytic = beta_l**2 * scale
    computed = np.sqrt(healthy_modal(beam15, 3).eigenvalues)
    freq_err = float(np.abs(computed / analytic - 1.0).max())

    S = sensitivity_matrix(beam15, 5).matrix
    sens_err = 0.0
    for i in range(15):
        alpha = np.zeros(15)
        alpha[i] = 0.01
        exact = eigen_change(beam15, alpha, 5)
        sens_err = max(sens_err, float(
            np.linalg.norm(S @ alpha - exact) / np.linalg.norm(exact)))

    ok = freq_err <= 5e-3 and sens_err <= 1e-2
    verdict(5, "forward-model oracle", ok,
            f"frequency error = {freq_err:.2e}, worst first-order "
            f"sensitivity error = {sens_err:.4f}")
    assert freq_err <= 5e-3
    assert sens_err <= 1e-2, (
        "first-order check exceeds 1%: the linearization error at alpha = "
        "0.01 is ~1.06% for the tip element (second-order curvature of the "
        "eigenvalue map), see tests/test_beam.py for the scaling check")


def test_criterion_6_engine_property_suite(monkeypatch, verdict):
    """Partition measure conservation on every iteration, selection and
    sorting operators against brute-force oracles, archive filtering, and
    the exact hypervolume examples."""
    from test_engine import oracle_potentially_optimal
    from test_moo import oracle_ranks

    failures = []

    # measure = 1 after every iteration, all strategies
    original = engine._Engine._record_history

    def checking(self):
        total = self.state.volumes().sum()
        if abs(total - 1.0) > 1e-9:
            failures.append(f"measure {total!r}")
        original(self)

    monkeypatch.setattr(engine._Engine, "_record_history", checking)
    f2 = lambda x: np.array([float(np.sum(x**2)), float(np.sum((x - 1.0) ** 2))])
    for strategy in ("pareto-front", "ns-direct", "mo-direct", "mo-direct-hv"):
        engine.run(f2, (np.zeros(3), np.ones(3)), strategy, 600)
    monkeypatch.setattr(engine._Engine, "_record_history", original)

    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        fvals = rng.uniform(-1.0, 0.0, n)
        exps = rng.integers(0, 5, n)
        got = engine.potentially_optimal_single(fvals, exps)
        want = oracle_potentially_optimal(fvals, exps, engine.DEFAULT_EPSILON)
        if not np.array_equal(got, want):
            failures.append("potentially-optimal mismatch")
            break

    for _ in range(100):
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 201)), int(rng.integers(1, 4))))
        if not np.array_equal(fast_nondominated_sort(pts), oracle_ranks(pts)):
            failures.append("non-dominated sort mismatch")
            break

    for trial in range(3):
        stream = rng.uniform(-1.0, 0.0, (1000, 2))
        archive = ParetoArchive()
        for i, obj in enumerate(stream):
            archive.insert([float(i)], obj)
        expected = {i for i in range(1000)
                    if not any(dominates(stream[j], stream[i]) for j in range(1000))}
        if {int(a[0]) for a, _ in archive} != expected:
            failures.append("archive filter mismatch")
            break

    if hypervolume_2d([(-0.5, -0.5)], (0.0, 0.0)) != 0.25:
        failures.append("hypervolume single box")
    if abs(hypervolume_2d([(-0.8, -0.2), (-0.2, -0.8)], (0.0, 0.0)) - 0.28) > 1e-15:
        failures.append("hypervolume union")
    if abs(exclusive_contribution((-0.5, -0.5), [(-0.8, -0.2), (-0.2, -0.8)],
                                  (0.0, 0.0)) - 0.09) > 1e-15:
        failures.append("exclusive contribution")

    verdict(6, "engine property suite", not failures, "; ".join(failures) or "all oracles agree")
    assert not failures


def test_criterion_7_objective_identities(beam15, rng, verdict):
    """evaluate(truth) = (-1, -1) under zero noise; MDLAC range and
    scale/sign invariance over 1,000 random pairs; density-rescaling
    invariance of both objectives."""
    failures = []
    truth = true_alpha(make_case("3"))
    meas = simulate_measurement(make_case("3", noise_sigma=0.0))
    f = evaluate(truth, meas, beam15)
    if np.abs(f + 1.0).max() > 1e-10:
        failures.append(f"evaluate(truth) = {f}")

    for _ in range(1000):
        size = int(rng.integers(1, 20))
        a = rng.normal(size=size)
        b = rng.normal(size=size)
        if not np.any(a):
            continue
        value = mdlac(a, b) if np.any(b) else 0.0
        if not 0.0 <= value <= 1.0:
            failures.append("mdlac out of [0, 1]")
            break
        c = float(rng.uniform(0.1, 10.0)) * (1 if rng.random() < 0.5 else -1)
        if np.any(b) and abs(mdlac(a, c * b) - value) > 1e-9:
            failures.append("mdlac not scale/sign invariant")
            break

    probe = np.zeros(15)
    probe[[1, 6, 13]] = [0.02, 0.11, 0.04]
    scaled_model = dataclasses.replace(beam15, mass_density=beam15.mass_density * 2.5)
    scaled_meas = Measurement(
        delta_lambda=eigen_change(scaled_model, truth, 5),
        delta_phi=beam.mode_change(scaled_model, truth, 2), mode_index=2)
    base_meas = Measurement(
        delta_lambda=eigen_change(beam15, truth, 5),
        delta_phi=beam.mode_change(beam15, truth, 2), mode_index=2)
    drift = np.abs(evaluate(probe, scaled_meas, scaled_model) -
                   evaluate(probe, base_meas, beam15)).max()
    if drift > 1e-10:
        failures.append(f"density-rescaling drift {drift:.1e}")

    verdict(7, "objective identities", not failures, "; ".join(failures) or
            f"density drift {drift:.1e}")
    assert not failures


def test_criterion_8_determinism(verdict, run_case_per_point):
    """Two runs of the same configuration, and a third that evaluates each
    sample on its own instead of in one batch per trisection, produce
    byte-identical reports apart from the wall clock."""
    config = make_case("2", max_evals=2_000, seed=3)
    texts = {report.to_json(include_wall_clock=False) for report in
             (run_case(config), run_case(config), run_case_per_point(config))}
    ok = len(texts) == 1
    verdict(8, "determinism", ok, f"{3} runs, {len(texts)} distinct report(s)")
    assert ok
