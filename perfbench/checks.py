"""Output checks on one identification run and the determinism digests."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

# Re-evaluating an archived alpha must reproduce its stored objectives to
# this absolute tolerance.  The objectives lie in [-1, 0]; the margin admits
# a forward model that reorders floating-point sums (a batched solver, say)
# but not one that changes the physics.
OBJECTIVE_TOL = 1e-8


def check_report(report, measurement, model, evaluate) -> list[str]:
    """Problems found in ``report``; an empty list means it passed.

    ``measurement`` and ``model`` are the ones the run was made against and
    ``evaluate`` is ``modirect.objectives.evaluate``.
    """
    config = report.config
    alphas = np.asarray(report.archive_alphas, dtype=float)
    objs = np.asarray(report.archive_objectives, dtype=float)
    posterior = np.asarray(report.posterior_alpha, dtype=float)
    n = config.n_elements
    problems = []
    if alphas.ndim != 2 or alphas.shape[0] == 0 or alphas.shape[1] != n \
            or objs.shape != (alphas.shape[0], 2):
        return [f"archive has shape {alphas.shape} / {objs.shape}"]

    # brute force over all ordered pairs: j dominates i
    le = np.all(objs[None, :, :] <= objs[:, None, :], axis=2)
    lt = np.any(objs[None, :, :] < objs[:, None, :], axis=2)
    dominated = np.flatnonzero(np.any(le & lt, axis=1))
    if dominated.size:
        problems.append(f"{dominated.size} archive entries are dominated")

    worst = max(float(np.max(np.abs(evaluate(a, measurement, model) - o)))
                for a, o in zip(alphas, objs))
    if not worst <= OBJECTIVE_TOL:
        problems.append(f"re-evaluated objectives differ by {worst:.3g}")

    if not np.any(np.all(alphas == posterior, axis=1)):
        problems.append("posterior alpha is not an archive member")

    lo, hi = config.bounds
    if not (np.all((alphas >= lo) & (alphas <= hi))
            and np.all((posterior >= lo) & (posterior <= hi))):
        problems.append(f"an alpha lies outside the bounds {config.bounds}")

    used = int(report.history[-1][0])
    if used > config.max_evals + 2 * n:
        problems.append(f"{used} evaluations exceed max_evals + 2n = "
                        f"{config.max_evals + 2 * n}")
    return problems


def report_digest(report) -> str:
    return hashlib.sha256(
        report.to_json(include_wall_clock=False).encode()).hexdigest()


def code_digest(package_dir: Path) -> str:
    """sha256 over the package's Python sources, keyed by relative path."""
    h = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        h.update(str(path.relative_to(package_dir)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class DigestStore:
    """Report digests of earlier runs, per code digest and run key.

    A run whose digest differs from the one recorded for the same code and
    the same key is non-deterministic and counts as a failure.
    """

    def __init__(self, path: Path, code: str):
        self.path = path
        self.code = code
        try:
            self._all = json.loads(path.read_text())
        except FileNotFoundError:
            self._all = {}
        self.seen = self._all.setdefault(code, {})

    def record(self, key: str, digest: str) -> str | None:
        """Store ``digest`` under ``key``; returns the earlier digest when it
        disagrees, else None."""
        earlier = self.seen.setdefault(key, digest)
        return earlier if earlier != digest else None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._all, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
