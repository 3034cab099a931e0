"""Randomized benchmark harness.

Builds seeded group-monotone instances of rank n - 1, equips each with
three G-regular splittings, and runs the one-, two- and three-step schemes
side by side under the default stopping rule of ``IterationConfig``.
Rows are deterministic for a fixed seed except for the timing column;
each trial draws from its own seed-derived stream, so trials could run
concurrently without changing the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alternating import (
    IterationConfig,
    Scheme,
    iterate,
    random_g_regular_splitting,
    random_group_monotone,
)
from .kernel import DEFAULT_TOL, Tolerances

CSV_COLUMNS = (
    "n",
    "seed",
    "scheme",
    "rho",
    "iterations",
    "elapsed_seconds",
    "final_error",
    "converged",
)

SCHEME_LABELS = ("one-step", "two-step", "three-step")


@dataclass(frozen=True)
class RunReport:
    """One solver run on one randomized instance."""

    n: int
    seed: int
    trial: int
    scheme_label: str
    rho: float
    iterations: int
    elapsed_seconds: float
    final_error: float
    converged: bool

    def csv_row(self) -> str:
        return ",".join((
            str(self.n),
            str(self.seed),
            self.scheme_label,
            repr(self.rho),
            str(self.iterations),
            repr(self.elapsed_seconds),
            repr(self.final_error),
            str(self.converged).lower(),
        ))


def run_bench(n: int, seed: int, trials: int, tol: Tolerances = DEFAULT_TOL) -> list[RunReport]:
    """Run 1-/2-/3-step schemes on ``trials`` random instances of size n and rank n - 1.

    Every run stops at ``IterationConfig()``'s step-norm threshold and
    iteration cap.  The error column measures the distance from the
    group-inverse solution, which the instance construction knows exactly.
    Each trial decomposes its instance once, at ``tol``, in
    random_group_monotone; the three splittings share that decomposition
    and its tolerances.  A trial forms no A#: the truth is the
    construction's a_ginv, and the sweeps read only each splitting's U#.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    reports: list[RunReport] = []
    streams = np.random.SeedSequence(seed).spawn(max(trials, 1))
    cfg = IterationConfig()
    for trial in range(trials):
        rng = np.random.default_rng(streams[trial])
        inst = random_group_monotone(n, n - 1, rng, tol)
        splittings = [random_g_regular_splitting(inst, rng) for _ in range(3)]
        b = rng.uniform(-1.0, 1.0, n)
        truth = inst.a_ginv @ b
        for steps, label in enumerate(SCHEME_LABELS, start=1):
            scheme = Scheme(splittings=tuple(splittings[:steps]))
            trace = iterate(scheme, b, cfg)
            reports.append(RunReport(
                n=n,
                seed=seed,
                trial=trial,
                scheme_label=label,
                rho=scheme.rho,
                iterations=trace.iterations,
                elapsed_seconds=trace.elapsed_seconds,
                final_error=float(np.linalg.norm(trace.x_final - truth)),
                converged=trace.converged,
            ))
    return reports


def write_csv(reports: list[RunReport], fh) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for report in reports:
        fh.write(report.csv_row() + "\n")
