import os

# The suite solves thousands of small (at most 60 x 60) eigenproblems, where
# BLAS worker threads never pay; on a loaded machine they spin against each
# other and slow the acceptance runs several-fold.  The pin must precede the
# first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

from modirect import engine  # noqa: E402
from modirect.beam import BeamModel  # noqa: E402
from modirect.cases import run_case  # noqa: E402

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture(scope="session")
def beam15() -> BeamModel:
    return BeamModel(n_elements=15)


@pytest.fixture(scope="session")
def beam2() -> BeamModel:
    return BeamModel(n_elements=2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


@pytest.fixture
def run_case_per_point(monkeypatch):
    """``run_case`` with the engine handed a plain callable instead of the
    Evaluator, so every sample is evaluated on its own rather than in one
    ``Evaluator.batch`` call per trisection."""
    batched_run = engine.run

    def per_point_run(func, *args, **kwargs):
        return batched_run(lambda a: func(a), *args, **kwargs)

    def run(config):
        with monkeypatch.context() as m:
            m.setattr(engine, "run", per_point_run)
            return run_case(config)

    return run
