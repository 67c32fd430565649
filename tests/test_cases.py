"""Benchmark harness: case registry, measurement simulation, end-to-end runs,
report serialization and the strategy comparison."""

import dataclasses

import numpy as np
import pytest

from modirect import cases
from modirect.beam import eigen_change, mode_change
from modirect.cases import (BUILTIN_CASES, CaseConfig, compare_strategies,
                            history_csv, make_case, report_from_json, run_case,
                            simulate_measurement, summed_damage_error, sweep,
                            true_alpha)
from modirect.errors import InvalidInputError

FAST = dict(max_evals=300, noise_sigma=0.0)


class TestRegistry:
    def test_builtin_case_table(self):
        assert make_case("1").damages == ((3, 0.09), (14, 0.05))
        assert make_case("2").damages == ((8, 0.02), (11, 0.08))
        assert make_case("3").damages == ((3, 0.09), (9, 0.03), (14, 0.05))
        assert make_case("4").n_elements == 20
        assert make_case("5").n_elements == 30
        assert make_case("5b").q_frequencies == 8
        for case_id in BUILTIN_CASES:
            config = make_case(case_id)
            assert config.mode_index == 2
            if case_id != "5b":
                assert config.q_frequencies == 5

    def test_unknown_case(self):
        with pytest.raises(InvalidInputError):
            make_case("7")

    def test_overrides(self):
        config = make_case("3", strategy="mo-direct", seed=11)
        assert config.strategy == "mo-direct"
        assert config.seed == 11

    def test_true_alpha_layout(self):
        alpha = true_alpha(make_case("3"))
        assert alpha[2] == 0.09 and alpha[8] == 0.03 and alpha[13] == 0.05
        assert np.count_nonzero(alpha) == 3


class TestConfigValidation:
    def test_damage_element_out_of_range(self):
        with pytest.raises(InvalidInputError):
            CaseConfig(n_elements=10, damages=((11, 0.05),))

    def test_duplicate_damage_element(self):
        with pytest.raises(InvalidInputError):
            CaseConfig(n_elements=10, damages=((3, 0.05), (3, 0.02)))

    def test_severity_range(self):
        with pytest.raises(InvalidInputError):
            CaseConfig(n_elements=10, damages=((3, 1.0),))

    def test_bounds_ordering(self):
        with pytest.raises(InvalidInputError):
            CaseConfig(bounds=(0.3, 0.1))
        with pytest.raises(InvalidInputError):
            CaseConfig(bounds=(-0.1, 0.3))

    def test_strategy_enum(self):
        with pytest.raises(InvalidInputError):
            CaseConfig(strategy="random-search")


class TestSimulateMeasurement:
    def test_zero_noise_is_exact(self):
        config = make_case("1", noise_sigma=0.0)
        model = cases.build_model(config)
        meas = simulate_measurement(config, model)
        alpha = true_alpha(config)
        np.testing.assert_array_equal(
            meas.delta_lambda, eigen_change(model, alpha, config.q_frequencies))
        np.testing.assert_array_equal(
            meas.delta_phi, mode_change(model, alpha, config.mode_index))

    def test_same_seed_identical(self):
        config = make_case("1", seed=42)
        a = simulate_measurement(config)
        b = simulate_measurement(config)
        np.testing.assert_array_equal(a.delta_lambda, b.delta_lambda)
        np.testing.assert_array_equal(a.delta_phi, b.delta_phi)

    def test_different_seed_differs(self):
        a = simulate_measurement(make_case("1", seed=1))
        b = simulate_measurement(make_case("1", seed=2))
        assert np.any(a.delta_lambda != b.delta_lambda)

    def test_noise_factor_standard_deviation(self):
        # per-component multiplicative factor over many seeds has sample
        # std within 5% of sigma
        config = make_case("1", noise_sigma=0.015)
        model = cases.build_model(config)
        exact = eigen_change(model, true_alpha(config), config.q_frequencies)
        factors = np.empty((1000, exact.size))
        for seed in range(1000):
            meas = simulate_measurement(dataclasses.replace(config, seed=seed), model)
            factors[seed] = meas.delta_lambda / exact
        std = factors.std(axis=0, ddof=1)
        np.testing.assert_allclose(std, 0.015, rtol=0.05)


class TestRunCase:
    def test_report_contents(self):
        report = run_case(make_case("1", **FAST))
        n = report.config.n_elements
        assert report.archive_alphas.shape[1] == n
        assert report.archive_objectives.shape[1] == 2
        assert np.all(report.archive_alphas >= report.config.bounds[0])
        assert np.all(report.archive_alphas <= report.config.bounds[1])
        assert 0 <= report.posterior_index < len(report.archive_alphas)
        np.testing.assert_array_equal(
            report.posterior_alpha, report.archive_alphas[report.posterior_index])
        assert report.element_mean.shape == (n,)
        assert report.wall_clock_seconds > 0.0

    def test_history_values_are_mdlac(self):
        report = run_case(make_case("1", **FAST))
        for evals, freq, mode in report.history:
            assert evals >= 1
            assert 0.0 <= freq <= 1.0
            assert 0.0 <= mode <= 1.0

    def test_two_element_oracle(self):
        # 2-D problem with one damage: dense-grid verifiable optimum
        config = make_case("custom", n_elements=2, damages=((1, 0.1),),
                           q_frequencies=3, noise_sigma=0.0, max_evals=3000)
        report = run_case(config)
        np.testing.assert_allclose(report.posterior_alpha, [0.1, 0.0], atol=5e-3)

    def test_all_strategies_run(self):
        for strategy in cases.BENCHMARK_STRATEGIES:
            report = run_case(make_case("1", strategy=strategy, **FAST))
            assert len(report.archive_alphas) >= 1

    def test_deterministic_repeat(self):
        config = make_case("2", max_evals=300, seed=5)
        a = run_case(config).to_json(include_wall_clock=False)
        b = run_case(config).to_json(include_wall_clock=False)
        assert a == b

    def test_batching_does_not_change_result(self, run_case_per_point):
        config = make_case("1", **FAST)
        a = run_case(config).to_json(include_wall_clock=False)
        b = run_case_per_point(config).to_json(include_wall_clock=False)
        assert a == b


class TestReportSerialization:
    def test_round_trip_identity(self):
        report = run_case(make_case("1", **FAST))
        text = report.to_json()
        assert report_from_json(text).to_json() == text

    def test_history_csv_header(self):
        report = run_case(make_case("1", **FAST))
        lines = history_csv(report).splitlines()
        assert lines[0] == "evaluations,mean_mdlac_freq,mean_mdlac_mode"
        assert len(lines) == len(report.history) + 1


class TestComparison:
    def test_table_layout(self):
        result = compare_strategies(make_case("1", **FAST))
        rows = result.table_rows()
        assert rows[0] == ["true", 0.09, 0.05]
        assert [r[0] for r in rows[1:]] == list(cases.BENCHMARK_STRATEGIES)
        csv = result.to_csv()
        assert csv.splitlines()[0] == "algorithm,element_3,element_14"

    def test_per_strategy_failure_reported(self, monkeypatch):
        original = cases.run_case

        def failing(config, **kwargs):
            if config.strategy == "mo-direct":
                raise RuntimeError("synthetic failure")
            return original(config, **kwargs)

        monkeypatch.setattr(cases, "run_case", failing)
        result = cases.compare_strategies(make_case("1", **FAST))
        assert "mo-direct" in result.errors
        assert set(result.reports) == {"pareto-front", "ns-direct", "mo-direct-hv"}
        assert any("error" in row for row in result.table_rows())

    def test_summed_damage_error(self):
        report = run_case(make_case("1", **FAST))
        truth = true_alpha(report.config)
        expected = abs(report.posterior_alpha[2] - truth[2]) + \
            abs(report.posterior_alpha[13] - truth[13])
        assert summed_damage_error(report) == pytest.approx(expected)


class TestSweep:
    def test_consecutive_seeds(self):
        reports = sweep(make_case("1", max_evals=300, seed=7), 3)
        assert [r.config.seed for r in reports] == [7, 8, 9]

    def test_invalid_count(self):
        with pytest.raises(InvalidInputError):
            sweep(make_case("1"), 0)
