"""The benchmark workloads.

A workload builds its inputs from the workload seed in ``__init__`` (the
set-up the benchmark times as ``setup_s``), then serves ops: ``run(i)`` is
the timed call into the library and ``check(i, result)`` verifies its
output outside the timed region, raising :class:`CheckFailed`.  Op ``i``
uses input ``i % cycle``, so a run does the same work however many ops
it completes.

Every call goes through a module attribute (``alternating.iterate``, not
a name imported from it), so the traced run sees the wrapped function.
Checks use tolerances, never bit equality, so that a change which moves
results by a few ulps does not count as a failure.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import numpy as np

from altiter import alternating, bench, catalog, cli, kernel, mmio

# Stopping rule of every solve here: step norm below 1e-6.  With the
# radii these instances have (at most about 0.9) the error of the final
# iterate stays near 1e-5, so 1e-4 is a tolerance, not a tight fit.
SOLVE_ERROR_BOUND = 1e-4


class CheckFailed(Exception):
    """An op returned output that does not match the reference."""


def _derived_seeds(seed: int, name: str, count: int) -> list[int]:
    entropy = [seed] + [ord(ch) for ch in name]
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


@contextlib.contextmanager
def _environ(overrides: dict[str, str]):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_cli(argv: list[str], env: dict[str, str] | None = None) -> tuple[int, str]:
    """In-process ``altiter`` call with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with _environ(env or {}):
            code = cli.main(argv)
    return code, out.getvalue()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _near(value: float, reference: float, tol: float, what: str) -> None:
    _expect(abs(value - reference) <= tol, f"{what}: {value!r} vs {reference!r} (tol {tol})")


def _random_instance(rng: np.random.Generator, n: int):
    inst = alternating.random_group_monotone(n, n - 1, rng)
    splittings = tuple(alternating.random_g_regular_splitting(inst, rng) for _ in range(3))
    return inst, splittings


class BenchN128:
    """Each op is one ``run_bench`` trial at n=128: decomposition-bound."""

    cycle = 8
    n = 128

    def __init__(self, seed: int, workdir: str):
        self.seeds = _derived_seeds(seed, "bench-n128", self.cycle)

    def run(self, i: int):
        return bench.run_bench(n=self.n, seed=self.seeds[i % self.cycle], trials=1)

    def check(self, i: int, rows) -> None:
        labels = tuple(row.scheme_label for row in rows)
        _expect(labels == bench.SCHEME_LABELS, f"scheme rows {labels}")
        for row in rows:
            _expect(row.n == self.n and row.seed == self.seeds[i % self.cycle], "row identity")
            _expect(row.converged and row.rho < 1.0, f"{row.scheme_label} did not converge")
            _expect(row.final_error <= SOLVE_ERROR_BOUND,
                    f"{row.scheme_label} final_error {row.final_error:.3e}")


class RhsN400:
    """One n=400 three-step scheme built in set-up; each op is one ``iterate``.

    The scheme is the same in every run and the workload seed draws only
    the right-hand sides: the cost of ``eigvals`` and the iteration count
    depend on the matrix (by up to 1.5x between instances), which would
    otherwise swamp run-to-run comparisons.
    """

    cycle = 16
    n = 400

    def __init__(self, seed: int, workdir: str):
        inst, splittings = _random_instance(np.random.default_rng(0), self.n)
        self.scheme = alternating.Scheme(splittings=splittings)
        rng = np.random.default_rng(_derived_seeds(seed, "rhs-n400", 1)[0])
        self.rhs = [rng.uniform(-1.0, 1.0, self.n) for _ in range(self.cycle)]
        self.truth = [inst.a_ginv @ b for b in self.rhs]

    def run(self, i: int):
        return alternating.iterate(self.scheme, self.rhs[i % self.cycle])

    def check(self, i: int, trace) -> None:
        error = float(np.linalg.norm(trace.x_final - self.truth[i % self.cycle]))
        _expect(trace.converged, "iterate did not converge")
        _expect(error <= SOLVE_ERROR_BOUND, f"|x - A#b| = {error:.3e}")


class CliSolveN128:
    """``altiter solve A b U1 U2 U3`` on MatrixMarket files written in set-up."""

    cycle = 4
    n = 128

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(_derived_seeds(seed, "cli-solve-n128", 1)[0])
        inst, splittings = _random_instance(rng, self.n)
        paths = {"a": inst.a} | {f"u{k}": s.u for k, s in enumerate(splittings, start=1)}
        for key, m in paths.items():
            mmio.save_matrix(os.path.join(workdir, f"{key}.mtx"), m)
        self.argvs, self.truth = [], []
        for k in range(self.cycle):
            b = rng.uniform(-1.0, 1.0, self.n)
            b_path = os.path.join(workdir, f"b{k}.mtx")
            mmio.save_matrix(b_path, b.reshape(-1, 1))
            self.argvs.append(["solve", os.path.join(workdir, "a.mtx"), b_path]
                              + [os.path.join(workdir, f"u{j}.mtx") for j in (1, 2, 3)])
            self.truth.append(inst.a_ginv @ b)

    def run(self, i: int):
        return run_cli(self.argvs[i % self.cycle])

    def check(self, i: int, result) -> None:
        code, out = result
        _expect(code == 0, f"exit code {code}")
        lines = out.splitlines()
        _expect(lines[1].split()[-1] == "true", "solve did not converge")
        solution = [line for line in lines if line.startswith("solution:")]
        _expect(len(solution) == 1, "no solution line")
        x = np.array([float(tok) for tok in solution[0].split()[1:]])
        _expect(x.shape == (self.n,), f"solution has {x.size} entries")
        error = float(np.linalg.norm(x - self.truth[i % self.cycle]))
        _expect(error <= SOLVE_ERROR_BOUND, f"|x - A#b| = {error:.3e}")


def _tol_env(tol: kernel.Tolerances) -> dict[str, str]:
    """The ALTITER_* variables a user sets to run a fixture at its tolerances."""
    if tol == kernel.DEFAULT_TOL:
        return {}
    return {kernel.ENV_PREFIX + name.upper(): repr(value) for name, value in vars(tol).items()}


def _group_inverse_reference(a: np.ndarray) -> np.ndarray:
    """A# = A (A^3)^+ A, valid for index at most one; independent of altiter."""
    return a @ np.linalg.pinv(a @ a @ a) @ a


def _floats(text: str) -> list[float]:
    out = []
    for tok in text.replace("[", " ").replace("]", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            pass
    return out


class CatalogCli:
    """Each op is one pass of ``altiter`` calls over every catalog fixture.

    The pass runs ``ginv`` on every fixture, ``classify`` on every
    splitting part, ``solve`` on every fixture quoting a right-hand side
    and ``compare`` on every fixture that defines a comparison; the seed
    only shuffles the order of the calls within each pass.
    """

    cycle = 4
    _NOT_PARTS = ("a", "b", "q")

    def __init__(self, seed: int, workdir: str):
        calls = []
        for fid in catalog.fixture_ids():
            fx = catalog.get_fixture(fid)
            matrices = dict(fx.matrices, target=fx.target())
            if "k_pre" in matrices:  # k_pre splits q @ a even though k splits a
                matrices["qa"] = matrices["q"] @ matrices["a"]
            files = {key: os.path.join(workdir, f"{fid}-{key}.mtx") for key in matrices}
            for key, m in matrices.items():
                mmio.save_matrix(files[key], m)
            env = _tol_env(fx.tol)
            calls.append((["ginv", files["a"]], env, self._ginv_check(fx)))
            for key in fx.matrices:
                if key in self._NOT_PARTS or key.endswith("_ref"):
                    continue
                target = files["qa" if key == "k_pre" else "target"]
                calls.append((["classify", target, files[key]], env, self._classify_check))
            if "b" in fx.matrices:
                argv = ["solve", files["a"], files["b"]] + [files[k] for k in fx.scheme_order]
                if fx.preconditioned:
                    argv += ["--precondition", files["q"]]
                calls.append((argv, env, self._solve_check(fx)))
            if fid != "ex3.1":
                calls.append((["compare", fid], {}, self._compare_check(fx)))
        order = random.Random(_derived_seeds(seed, "catalog-cli", 1)[0])
        self.passes = []
        for _ in range(self.cycle):
            calls = calls[:]
            order.shuffle(calls)
            self.passes.append(calls)

    def run(self, i: int):
        return [run_cli(argv, env) for argv, env, _ in self.passes[i % self.cycle]]

    def check(self, i: int, results) -> None:
        for (argv, _, check), (code, out) in zip(self.passes[i % self.cycle], results):
            try:
                _expect(code == 0, f"exit code {code}")
                check(out)
            except (CheckFailed, IndexError, ValueError) as exc:
                raise CheckFailed(f"altiter {' '.join(argv[:2])}: {exc}") from exc

    @staticmethod
    def _ginv_check(fx):
        reference = _group_inverse_reference(np.asarray(fx.matrices["a"]))

        def check(out: str) -> None:
            lines = out.splitlines()
            _expect(lines[0] in ("index: 0", "index: 1"), lines[0])
            n = reference.shape[0]
            printed = np.array(_floats("\n".join(lines[2:2 + n]))).reshape(n, n)
            scale = max(1.0, float(np.abs(reference).max()))
            _near(float(np.abs(printed - reference).max()), 0.0, 1e-5 * scale, "group inverse")
            if "a_ginv_ref" in fx.matrices:
                quoted = np.abs(printed - fx.matrices["a_ginv_ref"]).max()
                _near(float(quoted), 0.0, fx.tol.refval_tol, "quoted group inverse")
        return check

    @staticmethod
    def _classify_check(out: str) -> None:
        _expect(out.startswith("classes: ") and "proper" in out.splitlines()[0], out[:60])

    @staticmethod
    def _solve_check(fx):
        expected = fx.expected["rho_plain" if len(fx.scheme_order) == 1 else "rho_h"]
        a, b = np.asarray(fx.matrices["a"]), np.asarray(fx.matrices["b"])[:, 0]
        truth = _group_inverse_reference(a) @ b

        def check(out: str) -> None:
            row = out.splitlines()[1].split()
            iters, rho, converged = int(row[-5]), float(row[-4]), row[-1] == "true"
            _near(rho, expected.value, expected.tol, "rho(H)")
            _expect(converged == (expected.value < 1.0), f"converged={converged}")
            if not converged:
                _expect(iters == 2000, f"{iters} iterations")
                return
            x = np.array(_floats(out.splitlines()[2].split(":", 1)[1]))
            _near(float(np.abs(x - truth).max()), 0.0,
                  fx.tol.refval_tol * max(1.0, float(np.abs(truth).max())), "solution")
        return check

    @staticmethod
    def _compare_check(fx):
        exp = {key: e.value for key, e in fx.expected.items()}
        slack = fx.tol.refval_tol

        def check(out: str) -> None:
            last = out.splitlines()[-1]
            holds = last.endswith("-> holds")
            _expect(holds or last.endswith("-> fails"), last)
            if fx.fixture_id == "ex5.5":
                radii = _floats(last.split(":", 1)[1].split("->")[0].replace("<=", " "))
                for got, key in zip(radii, ("rho_three", "rho_two", "rho_one")):
                    _near(got, exp[key], slack, key)
                _expect(holds, "ex5.5 chain fails")
                return
            lhs, rhs = _floats(last.split(":", 1)[1].split("->")[0].replace("<=", " ")
                               .replace(">", " "))
            if fx.fixture_id == "ex5.4":
                _near(lhs, exp["rho_pre"], slack, "rho_pre")
                _near(rhs, exp["rho_plain"], slack, "rho_plain")
                _expect(holds, "ex5.4 comparison fails")
                return
            if "rho_h" in exp:
                _near(lhs, exp["rho_h"], slack, "rho(H)")
            singles = [exp[k] for k in ("rho_k", "rho_u", "rho_x") if k in exp]
            if singles:
                _near(rhs, min(singles), slack, "min single radius")
                _expect(holds == (exp["rho_h"] <= min(singles) + slack), "conclusion")
        return check


WORKLOADS = {
    "bench-n128": BenchN128,
    "rhs-n400": RhsN400,
    "cli-solve-n128": CliSolveN128,
    "catalog-cli": CatalogCli,
}
