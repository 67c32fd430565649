#!/usr/bin/env python3
"""Layer benchmark of the forward model: the modal solve and the Evaluator.

Times, per damage-vector row:

- ``beam.solve_modal`` on 16-row stacks at 30 DOF (15 elements, 9 modes)
  and 60 DOF (30 elements, 5 modes), once with every mode shape (the
  default call) and, where the checkout's ``solve_modal`` accepts
  ``modes``, with mode 2 only, as the Evaluator asks for it;
- ``Evaluator.batch`` on 16-row stacks for case 3 (q=9, no noise) and
  case 5 (the registry defaults).

Damage rows are uniform in [0, 0.3] from a fixed seed.  Each figure is the
median and quartiles over ``--repeats`` samples, each sample timing about
``--sample-seconds`` of back-to-back calls.  BLAS threads are pinned to 1
unless the environment already sets them.  Results and the machine facts go
to ``BENCH_forward_<date>.json``; a run appends itself to the file's
``runs`` when the file exists, so runs of two checkouts can be compared.
The script imports modirect from the checkout it sits in.

Usage (from the repository root):

    python3 scripts/bench_forward.py --label change
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from modirect import beam  # noqa: E402
from modirect.cases import build_model, make_case, simulate_measurement  # noqa: E402
from modirect.objectives import Evaluator  # noqa: E402

STACK_ROWS = 16
SHAPE_MODE = 2


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
    }


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modirect").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def time_per_row(call, rows: int, repeats: int, sample_seconds: float) -> dict:
    """Median and quartiles of microseconds per row over ``repeats`` samples."""
    call()
    start = time.perf_counter()
    call()
    loops = max(1, round(sample_seconds / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        samples.append((time.perf_counter() - start) / (loops * rows) * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_us_per_row": median, "q1_us_per_row": q1, "q3_us_per_row": q3,
            "samples": repeats, "calls_per_sample": loops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="Free text stored with the run.")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--sample-seconds", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(f"BENCH_forward_{datetime.date.today().isoformat()}.json"))
    args = parser.parse_args(argv)
    if args.repeats < 4 or args.sample_seconds <= 0.0:
        parser.error("--repeats must be >= 4 and --sample-seconds > 0")

    rng = np.random.default_rng(args.seed)
    takes_modes = "modes" in inspect.signature(beam.solve_modal).parameters
    timings = {}
    for n_elements, n_modes in ((15, 9), (30, 5)):
        model = beam.BeamModel(n_elements=n_elements)
        stack = rng.uniform(0.0, 0.3, (STACK_ROWS, n_elements))
        dof = model.n_free_dofs
        timings[f"solve_modal.all_shapes.{dof}dof"] = time_per_row(
            lambda: beam.solve_modal(model, stack, n_modes),
            STACK_ROWS, args.repeats, args.sample_seconds)
        timings[f"solve_modal.mode{SHAPE_MODE}.{dof}dof"] = time_per_row(
            lambda: beam.solve_modal(model, stack, n_modes, modes=(SHAPE_MODE,)),
            STACK_ROWS, args.repeats, args.sample_seconds) if takes_modes else None
    for case_id, overrides in (("3", dict(q_frequencies=9, noise_sigma=0.0)), ("5", {})):
        config = make_case(case_id, **overrides)
        model = build_model(config)
        evaluator = Evaluator(model, simulate_measurement(config, model))
        stack = rng.uniform(0.0, 0.3, (STACK_ROWS, config.n_elements))
        timings[f"Evaluator.batch.case{case_id}.{model.n_free_dofs}dof"] = time_per_row(
            lambda: evaluator.batch(stack), STACK_ROWS, args.repeats, args.sample_seconds)

    run = {"label": args.label, "time": datetime.datetime.now().isoformat(timespec="seconds"),
           "code_sha256": code_digest(), "stack_rows": STACK_ROWS,
           "machine": machine_facts(), "timings": timings}
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    data["runs"].append(run)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    for name, figure in timings.items():
        text = "n/a" if figure is None else (
            f"{figure['median_us_per_row']:8.1f} us/row "
            f"[{figure['q1_us_per_row']:.1f}, {figure['q3_us_per_row']:.1f}]")
        print(f"{name:36s} {text}")
    print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
