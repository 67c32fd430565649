"""End-to-end and per-layer benchmark of modirect identification runs.

Usage (from the repository root):

    python3 perfbench/run.py --workload case3-pareto --seed 1 --seconds 30 --trace 0

One run sets the workload up several times in fresh interpreters, then
repeats the workload's operation (``run_case`` or ``compare_strategies``)
in this process for about ``--seconds`` seconds, checks every report, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` each traced operation is paired with an
untraced one and the metrics are the per-layer ones from ``spans.LAYERS``.
The line before it holds the machine facts, the samples, the report digests
and the span table.  The exit code is 1 when any check fails.
"""

import os

# BLAS and OpenMP thread pools size themselves when numpy is first imported.
# On a shared 2-core box an unpinned pool makes one modal solve vary from
# about 0.13 ms to 3.9 ms, so pin them before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import DigestStore, check_report, code_digest, report_digest  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 15

# Each workload names the layer it is meant to stress; BENCHMARK.json
# repeats the rationale.  A run makes `realizations` configs with the seeds
# seed * realizations + j, which feed CaseConfig.seed (the noise draw).
WORKLOADS = {
    # Table 2 run: the Evaluator is about 80% of run time, selection ~4%.
    "case3-pareto": dict(case="3", compare=False, realizations=1, overrides=dict(
        q_frequencies=9, noise_sigma=0.0, strategy="pareto-front",
        max_evals=30_000)),
    # 30 elements with noise: the Evaluator at a larger matrix size.  The
    # posterior error varies by about 7% between noise draws, so a run
    # averages four draws.
    "case5-noisy": dict(case="5", compare=False, realizations=4,
                        overrides=dict(max_evals=30_000)),
    # all four strategies: selection and sorting are most of run time.  A
    # smaller budget would shrink the partition and with it that share.
    "case3-compare": dict(case="3", compare=True, realizations=1, overrides=dict(
        q_frequencies=9, noise_sigma=0.0, max_evals=10_000)),
}


def parse_args(argv=None):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_package():
    """Import modirect from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import modirect
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import modirect from {SRC}: {exc}")
    if Path(modirect.__file__).resolve().parent != (SRC / "modirect").resolve():
        raise SystemExit(f"perfbench: modirect was imported from {modirect.__file__}, "
                         f"not from {SRC}")
    return modirect


def openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_facts() -> dict:
    import numpy as np
    import scipy

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
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
    }


def measure_setup(spec: dict) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if Path(result["module"]).resolve().parent != (SRC / "modirect").resolve():
            raise SystemExit(f"perfbench: set-up probe imported {result['module']}")
        samples.append(result["setup_s"])
    return samples


def run_operation(modirect, config, compare: bool):
    """One timed identification operation.

    Returns the seconds taken and one (strategy, report, error) row per
    identification run; a row has a report or an error message.
    """
    start = time.perf_counter()
    try:
        if compare:
            result = modirect.compare_strategies(config)
        else:
            result = modirect.run_case(config)
    except Exception as exc:  # noqa: BLE001 - a raising run is a counted failure
        seconds = time.perf_counter() - start
        return seconds, [(config.strategy, None, f"{type(exc).__name__}: {exc}")]
    seconds = time.perf_counter() - start
    if not compare:
        return seconds, [(config.strategy, result, None)]
    rows = [(s, report, None) for s, report in result.reports.items()]
    rows += [(s, None, error) for s, error in result.errors.items()]
    return seconds, rows


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    modirect = import_package()
    from modirect import moo, objectives

    workload = WORKLOADS[args.workload]
    k = workload["realizations"]
    specs = [dict(case=workload["case"],
                  overrides=dict(workload["overrides"], seed=args.seed * k + j))
             for j in range(k)]
    configs = [modirect.make_case(spec["case"], **spec["overrides"]) for spec in specs]
    facts = machine_facts()
    setup_samples = [] if args.trace else measure_setup(specs[0])
    store = DigestStore(OUT_DIR / "digests.json", code_digest(SRC / "modirect"))
    tracer = Tracer() if args.trace else None
    root = "cases.compare_strategies" if workload["compare"] else "cases.run_case"
    modes = (False, True) if args.trace else (False,)
    # quality is averaged over every config once, so it cannot depend on
    # how many repeats fit into the run
    min_units = 1 if args.trace else len(configs)

    seconds = {False: [], True: []}
    evals_per_s = []
    first_reports = {}
    archive_sizes = []
    digests = {}
    problems = []
    attempted = failed = 0
    peak_rss_mb = None
    unit_times = []
    loop_start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        config = configs[len(unit_times) % len(configs)]
        for traced in modes:
            if traced:
                with tracer.traced(root):
                    elapsed, rows = run_operation(modirect, config, workload["compare"])
            else:
                elapsed, rows = run_operation(modirect, config, workload["compare"])
            if peak_rss_mb is None:
                # a CLI run makes one operation per process; later repeats
                # add allocator fragmentation that varies from draw to draw
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            op_failed = False
            for strategy, report, error in rows:
                attempted += 1
                key = f"{args.workload}/seed={config.seed}/{strategy}"
                row_problems = [error] if error else []
                if report is not None:
                    measurement = modirect.simulate_measurement(report.config)
                    model = modirect.BeamModel(n_elements=report.config.n_elements)
                    row_problems += check_report(report, measurement, model,
                                                 objectives.evaluate)
                    digest = report_digest(report)
                    digests[key] = digest
                    earlier = store.record(key, digest)
                    if earlier:
                        row_problems.append(f"report digest {digest} differs from "
                                            f"{earlier} of an earlier run of this code")
                    first_reports.setdefault(key, report)
                    if traced:
                        archive_sizes.append(len(report.archive_alphas))
                if row_problems:
                    failed += 1
                    op_failed = True
                    problems += [f"{key}: {p}" for p in row_problems]
            if not op_failed:
                seconds[traced].append(elapsed)
                if not traced:
                    evals = sum(report.history[-1][0] for _, report, _ in rows)
                    evals_per_s.append(evals / elapsed)
        unit_times.append(time.perf_counter() - unit_start)
        spent = time.perf_counter() - loop_start
        if len(unit_times) >= min_units and \
                spent + statistics.median(unit_times) > args.seconds:
            break
    store.save()

    metrics = {}
    if args.trace:
        if seconds[True] and seconds[False]:
            n_traced = len(seconds[True])
            traced_s = statistics.median(seconds[True])
            root_s = tracer.stats[root][1]
            metrics = tracer.layer_metrics(n_traced)
            metrics["moo.archive.size"] = metric(statistics.fmean(archive_sizes), "count")
            metrics["trace.run_s"] = metric(traced_s, "s")
            metrics["trace.overhead_s"] = metric(
                traced_s - statistics.median(seconds[False]), "s")
            metrics["trace.evaluator_share"] = metric(
                tracer.stats["objectives.Evaluator"][1] / root_s, "ratio")
            metrics["trace.selection_share"] = metric(
                tracer.selection_seconds() / root_s, "ratio")
    elif seconds[False]:
        reports = first_reports.values()
        truth = dict(configs[0].damages)
        l1_errs = [sum(abs(float(a) - truth.get(i + 1, 0.0))
                       for i, a in enumerate(r.posterior_alpha)) for r in reports]
        hvs = [moo.hypervolume_2d(r.archive_objectives, (0.0, 0.0)) for r in reports]
        metrics = {
            "run_s": metric(statistics.median(seconds[False]), "s"),
            "evals_per_s": metric(statistics.median(evals_per_s), "1/s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "posterior_l1_err": metric(statistics.fmean(l1_errs), "1"),
            "archive_hv": metric(statistics.fmean(hvs), "1"),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": facts,
        "code_digest": store.code,
        "report_digests": digests,
        "run_s_samples": seconds[False],
        "traced_run_s_samples": seconds[True],
        "setup_s_samples": setup_samples,
        "problems": problems,
    }
    if tracer is not None:
        info["absent_layers"] = tracer.absent
        info["spans"] = tracer.edge_table()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as out:
        out.write(json.dumps({"info": info, "result": result}) + "\n")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
