"""Benchmark harness: case registry, synthetic measurements, end-to-end runs,
report serialization and the strategy comparison."""

from __future__ import annotations

import dataclasses
import io
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import engine
from .beam import BeamModel, eigen_change, mode_change
from .errors import InvalidInputError
from .moo import ParetoArchive
from .objectives import Evaluator, Measurement
from .posterior import PosteriorConfig, archive_stats, sparse_select

# selection strategies applicable to the two-objective benchmark
BENCHMARK_STRATEGIES = ("pareto-front", "ns-direct", "mo-direct", "mo-direct-hv")

# cantilever benchmark scenarios: (n_elements, ((element, severity), ...))
BUILTIN_CASES: dict[str, dict] = {
    "1": dict(n_elements=15, damages=((3, 0.09), (14, 0.05))),
    "2": dict(n_elements=15, damages=((8, 0.02), (11, 0.08))),
    "3": dict(n_elements=15, damages=((3, 0.09), (9, 0.03), (14, 0.05))),
    "4": dict(n_elements=20, damages=((8, 0.02), (11, 0.08))),
    "5": dict(n_elements=30, damages=((8, 0.02), (11, 0.08), (21, 0.04))),
    "5b": dict(n_elements=30, damages=((8, 0.02), (11, 0.08), (21, 0.04)),
               q_frequencies=8),
}


@dataclass(frozen=True)
class CaseConfig:
    """One fully-specified identification run.

    ``damages`` holds 1-based (element, severity) pairs; ``bounds`` is the
    damage-index search box.  Identical configs (including ``seed``) always
    produce identical reports.
    """

    case_id: str = "custom"
    n_elements: int = 15
    damages: tuple[tuple[int, float], ...] = ()
    q_frequencies: int = 5
    mode_index: int = 2
    noise_sigma: float = 0.015
    seed: int = 0
    max_evals: int = 30_000
    strategy: str = "pareto-front"
    bounds: tuple[float, float] = (0.0, 0.3)

    def __post_init__(self):
        if self.n_elements < 1:
            raise InvalidInputError("n_elements must be positive")
        seen = set()
        for elem, severity in self.damages:
            if not 1 <= elem <= self.n_elements:
                raise InvalidInputError(
                    f"damage element {elem} out of range [1, {self.n_elements}]")
            if elem in seen:
                raise InvalidInputError(f"duplicate damage element {elem}")
            seen.add(elem)
            if not 0.0 < severity < 1.0:
                raise InvalidInputError(f"damage severity {severity} not in (0, 1)")
        if self.q_frequencies < 1:
            raise InvalidInputError("q_frequencies must be >= 1")
        if self.mode_index < 1:
            raise InvalidInputError("mode_index must be >= 1")
        if self.noise_sigma < 0.0:
            raise InvalidInputError("noise_sigma must be >= 0")
        if self.max_evals < 1:
            raise InvalidInputError("max_evals must be >= 1")
        if self.strategy not in BENCHMARK_STRATEGIES:
            raise InvalidInputError(
                f"strategy must be one of {BENCHMARK_STRATEGIES}, got {self.strategy!r}")
        lo, hi = self.bounds
        if not 0.0 <= lo < hi <= 1.0:
            raise InvalidInputError(f"bounds must satisfy 0 <= lower < upper <= 1, got {self.bounds}")


def make_case(case_id: str, **overrides) -> CaseConfig:
    """Build a config for a registry case ('1'..'5', '5b') or 'custom'."""
    case_id = str(case_id)
    if case_id == "custom":
        return CaseConfig(case_id="custom", **overrides)
    if case_id not in BUILTIN_CASES:
        raise InvalidInputError(
            f"unknown case {case_id!r}; expected one of {sorted(BUILTIN_CASES)} or 'custom'")
    fields = dict(BUILTIN_CASES[case_id])
    fields.update(overrides)
    return CaseConfig(case_id=case_id, **fields)


def build_model(config: CaseConfig) -> BeamModel:
    return BeamModel(n_elements=config.n_elements)


def true_alpha(config: CaseConfig) -> np.ndarray:
    alpha = np.zeros(config.n_elements)
    for elem, severity in config.damages:
        alpha[elem - 1] = severity
    return alpha


def simulate_measurement(config: CaseConfig, model: BeamModel | None = None) -> Measurement:
    """Exact forward-model changes with per-component multiplicative Gaussian
    noise of standard deviation ``noise_sigma`` (seeded PCG64 generator)."""
    if model is None:
        model = build_model(config)
    alpha = true_alpha(config)
    delta_lambda = eigen_change(model, alpha, config.q_frequencies)
    delta_phi = mode_change(model, alpha, config.mode_index)
    rng = np.random.default_rng(config.seed)
    delta_lambda = delta_lambda * (1.0 + config.noise_sigma * rng.standard_normal(delta_lambda.size))
    delta_phi = delta_phi * (1.0 + config.noise_sigma * rng.standard_normal(delta_phi.size))
    return Measurement(delta_lambda=delta_lambda, delta_phi=delta_phi,
                       mode_index=config.mode_index)


@dataclass
class RunReport:
    """Self-contained record of one identification run."""

    config: CaseConfig
    archive_alphas: np.ndarray
    archive_objectives: np.ndarray
    posterior_index: int
    posterior_alpha: np.ndarray
    element_mean: np.ndarray
    element_variance: np.ndarray
    history: list[tuple[int, float, float]]
    wall_clock_seconds: float

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        cfg = dataclasses.asdict(self.config)
        cfg["damages"] = [list(d) for d in self.config.damages]
        cfg["bounds"] = list(self.config.bounds)
        out = {
            "config": cfg,
            "archive": [
                {"alpha": list(map(float, a)), "objectives": list(map(float, o))}
                for a, o in zip(self.archive_alphas, self.archive_objectives)
            ],
            "posterior": {
                "index": int(self.posterior_index),
                "alpha": list(map(float, self.posterior_alpha)),
            },
            "element_stats": {
                "mean": list(map(float, self.element_mean)),
                "variance": list(map(float, self.element_variance)),
            },
            "history": [[int(e), float(a), float(b)] for e, a, b in self.history],
        }
        if include_wall_clock:
            out["wall_clock_seconds"] = float(self.wall_clock_seconds)
        return out

    def to_json(self, include_wall_clock: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_clock), indent=2)


def report_from_json(text: str) -> RunReport:
    data = json.loads(text)
    cfg = dict(data["config"])
    cfg["damages"] = tuple((int(e), float(s)) for e, s in cfg["damages"])
    cfg["bounds"] = tuple(cfg["bounds"])
    config = CaseConfig(**cfg)
    return RunReport(
        config=config,
        archive_alphas=np.array([e["alpha"] for e in data["archive"]]),
        archive_objectives=np.array([e["objectives"] for e in data["archive"]]),
        posterior_index=int(data["posterior"]["index"]),
        posterior_alpha=np.array(data["posterior"]["alpha"]),
        element_mean=np.array(data["element_stats"]["mean"]),
        element_variance=np.array(data["element_stats"]["variance"]),
        history=[(int(e), float(a), float(b)) for e, a, b in data["history"]],
        wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
    )


def history_csv(report: RunReport) -> str:
    buf = io.StringIO()
    buf.write("evaluations,mean_mdlac_freq,mean_mdlac_mode\n")
    for evals, freq, mode in report.history:
        buf.write(f"{evals},{freq!r},{mode!r}\n")
    return buf.getvalue()


def run_case(config: CaseConfig, *,
             posterior: PosteriorConfig = PosteriorConfig()) -> RunReport:
    """Simulate the measurement, run the engine and assemble the report."""
    start = time.perf_counter()
    model = build_model(config)
    measurement = simulate_measurement(config, model)
    evaluator = Evaluator(model, measurement)
    n = config.n_elements
    bounds = (np.full(n, config.bounds[0]), np.full(n, config.bounds[1]))
    archive: ParetoArchive
    archive, state = engine.run(evaluator, bounds, config.strategy, config.max_evals,
                                n_objectives=2)
    p_idx, p_alpha = sparse_select(archive, posterior)
    mean, var = archive_stats(archive)
    history = [(evals, -m[0], -m[1]) for evals, m in state.history]
    return RunReport(
        config=config,
        archive_alphas=archive.alphas.copy(),
        archive_objectives=archive.objectives.copy(),
        posterior_index=p_idx,
        posterior_alpha=p_alpha,
        element_mean=mean,
        element_variance=var,
        history=history,
        wall_clock_seconds=time.perf_counter() - start,
    )


@dataclass
class ComparisonResult:
    config: CaseConfig
    reports: dict[str, RunReport]
    errors: dict[str, str]

    def damaged_elements(self) -> list[int]:
        return [elem for elem, _ in self.config.damages]

    def table_rows(self) -> list[list]:
        """Table-2-style layout: true severities then per-strategy posteriors."""
        elems = self.damaged_elements()
        truth = true_alpha(self.config)
        rows: list[list] = [["true"] + [truth[e - 1] for e in elems]]
        for strategy in BENCHMARK_STRATEGIES:
            if strategy in self.reports:
                alpha = self.reports[strategy].posterior_alpha
                rows.append([strategy] + [float(alpha[e - 1]) for e in elems])
            elif strategy in self.errors:
                rows.append([strategy] + ["error"] * len(elems))
        return rows

    def to_csv(self) -> str:
        elems = self.damaged_elements()
        buf = io.StringIO()
        buf.write("algorithm," + ",".join(f"element_{e}" for e in elems) + "\n")
        for row in self.table_rows():
            buf.write(",".join(str(v) for v in row) + "\n")
        return buf.getvalue()


def summed_damage_error(report: RunReport) -> float:
    """Sum of absolute posterior errors at the true damaged elements."""
    truth = true_alpha(report.config)
    elems = [e for e, _ in report.config.damages]
    return float(sum(abs(report.posterior_alpha[e - 1] - truth[e - 1]) for e in elems))


def compare_strategies(config: CaseConfig,
                       strategies=BENCHMARK_STRATEGIES) -> ComparisonResult:
    """Run the case once per strategy on the identical measurement.

    Per-strategy failures are recorded and do not abort the remaining rows.
    A warning is emitted when a rival beats the pareto-front strategy on
    summed absolute damage error.
    """
    reports: dict[str, RunReport] = {}
    failures: dict[str, str] = {}
    for strategy in strategies:
        run_config = dataclasses.replace(config, strategy=strategy)
        try:
            reports[strategy] = run_case(run_config)
        except Exception as exc:  # noqa: BLE001 - per-row reporting by contract
            failures[strategy] = f"{type(exc).__name__}: {exc}"
    if "pareto-front" in reports:
        own = summed_damage_error(reports["pareto-front"])
        for strategy, report in reports.items():
            if strategy != "pareto-front" and summed_damage_error(report) < own:
                warnings.warn(
                    f"strategy ranking inverted: {strategy} beats pareto-front "
                    f"({summed_damage_error(report):.6g} < {own:.6g})", stacklevel=2)
    return ComparisonResult(config=config, reports=reports, errors=failures)


def sweep(config: CaseConfig, n_seeds: int) -> list[RunReport]:
    """Repeat the case with seeds seed, seed+1, ..., seed+n_seeds-1."""
    if n_seeds < 1:
        raise InvalidInputError("n_seeds must be >= 1")
    return [run_case(dataclasses.replace(config, seed=config.seed + k))
            for k in range(n_seeds)]
