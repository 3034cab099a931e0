"""Print every output the library promises to keep bit for bit.

Usage, from any directory:

    python3 tools/canonical_outputs.py > outputs.txt

It prints eight sections:

* the 96 ``run_bench`` rows for n in {6, 9, 50, 128}, seeds 0-3 and 2
  trials each, with the timing column left out;
* every ``altiter`` call of one catalog-cli benchmark pass (the first pass
  of ``benchmarks/workloads.CatalogCli`` at seed 0), each with its exit
  code and its stdout, with the seconds column of ``solve`` masked and the
  temporary directory shown as ``<tmp>``;
* ``altiter compare --matrix A --first U1 --second U2`` for every ordered
  pair of splitting parts that split the same matrix, on the files and at
  the fixture tolerances of that pass's ``classify`` calls;
* ``altiter bench --n 9 --seed S --trials 2`` for S in {0, 1}, with the
  ``ALTITER_*`` variables of the rounded fixture tolerances set and the
  seconds column masked: the one CLI path whose random instances are
  decomposed at tolerances other than the defaults;
* the stdout of every ``demos/*.py`` script, run with
  ``PYTHONWARNINGS=error``, with its exit code and the seconds column of
  demo 05's CSV masked;
* the bits of ``alternating.iterate`` on every catalog fixture with a
  ``b`` and on the one-, two- and three-step schemes of ``run_bench``'s
  first trial for n in {50, 128} and seeds 0-1: iterations, converged,
  the ``repr`` of the last step norm, the SHA-256 of ``x_final`` and of
  the step-norm array, and the verdict derived from the step norms:
  status, first_nonfinite and the ``repr`` of observed_rate.  No other
  section pins the step norms;
* the SHA-256 of ``a``, ``a_ginv`` and ``target.ginv`` (the ``A#`` that
  ``group_inverse`` forms on first read) of ``random_group_monotone(400,
  399, default_rng(0))`` and of ``u``, ``v`` and ``u_ginv`` of the three
  ``random_g_regular_splitting`` draws from that same generator: the
  inputs of the rhs-n400 benchmark workload, and the one instance above
  n = 128 that the tool pins;
* the ``--help`` text of ``altiter`` and of each of its five
  subcommands, at 80 columns, so that any change to the options shows.

Run it on two checkouts and ``diff`` the outputs: a change that keeps
every number prints the same text.  The altiter of the checkout holding
this script is imported, from its ``src``, with one BLAS thread, help
text wrapped at 80 columns and no ``ALTITER_*`` variable inherited from
the caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps help text at this width
for _var in [key for key in os.environ if key.startswith("ALTITER_")]:
    del os.environ[_var]  # each call sets the overrides it needs

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
from altiter import catalog  # noqa: E402
from altiter.alternating import (  # noqa: E402
    Scheme,
    iterate,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.bench import CSV_COLUMNS, SCHEME_LABELS, run_bench  # noqa: E402
from altiter.catalog import ROUNDED_TOL  # noqa: E402
from altiter.cli import build_parser  # noqa: E402
from workloads import CatalogCli, _tol_env, run_cli  # noqa: E402

BENCH_SIZES = (6, 9, 50, 128)
BENCH_SEEDS = range(4)
BENCH_TRIALS = 2
ITERATE_SIZES = (50, 128)
ITERATE_SEEDS = range(2)
LARGE_N = 400
HELP_ARGVS = [["--help"]] + [
    [command, "--help"] for command in ("ginv", "classify", "solve", "compare", "bench")
]
BENCH_CLI_ARGVS = [["bench", "--n", "9", "--seed", str(seed), "--trials", "2"] for seed in (0, 1)]
MASK = "<masked>"


def bench_rows() -> list[str]:
    """One line per run_bench report, every column but elapsed_seconds."""
    rows = []
    for n in BENCH_SIZES:
        for seed in BENCH_SEEDS:
            for r in run_bench(n=n, seed=seed, trials=BENCH_TRIALS):
                rows.append(",".join((
                    str(r.n), str(r.seed), str(r.trial), r.scheme_label, repr(r.rho),
                    str(r.iterations), repr(r.final_error), str(r.converged).lower(),
                )))
    return rows


def _mask_seconds(out: str) -> str:
    """Mask the seconds column of bench CSV rows and of the row that follows a solve header."""
    lines = out.splitlines()
    if lines and lines[0] == ",".join(CSV_COLUMNS):
        at = CSV_COLUMNS.index("elapsed_seconds")
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if len(cells) != len(CSV_COLUMNS):
                break  # the rows end where a demo's text begins
            cells[at] = MASK
            lines[i] = ",".join(cells)
    for i, line in enumerate(lines[:-1]):
        if line.startswith("scheme") and line.endswith("seconds  converged"):
            head, _, converged = lines[i + 1].rsplit(None, 2)
            lines[i + 1] = f"{head} {MASK} {converged}"
    return "\n".join(lines)


def _entry(argv: list[str], env: dict[str, str], workdir: str) -> str:
    """One altiter call as a block: the command, its exit code and stdout."""
    code, out = run_cli(argv, env)
    env_text = " ".join(f"{key}={value}" for key, value in sorted(env.items()))
    command = " ".join(argv).replace(workdir, "<tmp>")
    return (
        f"$ {env_text + ' ' if env_text else ''}altiter {command}\n"
        f"exit {code}\n{_mask_seconds(out).replace(workdir, '<tmp>')}"
    )


def cli_entries(workdir: str) -> tuple[list[str], list[str]]:
    """Blocks of the catalog-cli calls, then of the compare pairs."""
    calls = CatalogCli(0, workdir).passes[0]
    parts = {}  # (target file, env) -> the parts classified against it
    for argv, env, _ in calls:
        if argv[0] == "classify":
            parts.setdefault((argv[1], tuple(sorted(env.items()))), []).append(argv[2])
    pairs = [
        (["compare", "--matrix", target, "--first", first, "--second", second], dict(env))
        for (target, env), files in sorted(parts.items())
        for first in sorted(files)
        for second in sorted(files)
    ]
    return (
        [_entry(argv, env, workdir) for argv, env, _ in calls],
        [_entry(argv, env, workdir) for argv, env in pairs],
    )


def demo_entries() -> list[str]:
    """One block per demo script: its name, exit code and stdout; a warning is an error."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    blocks = []
    for script in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, check=False
        )
        blocks.append(
            f"$ python demos/{script.name}\nexit {done.returncode}\n{_mask_seconds(done.stdout)}"
        )
    return blocks


def _digest(m: np.ndarray) -> str:
    return hashlib.sha256(m.tobytes()).hexdigest()


def _iterate_line(label: str, scheme: Scheme, b) -> str:
    trace = iterate(scheme, b)
    x_hash, steps_hash = _digest(trace.x_final), _digest(np.array(trace.step_norms))
    return (
        f"{label} iterations={trace.iterations} converged={str(trace.converged).lower()} "
        f"last_step={trace.step_norms[-1]!r} x_sha256={x_hash} steps_sha256={steps_hash} "
        f"status={trace.status} first_nonfinite={trace.first_nonfinite} "
        f"observed_rate={trace.observed_rate!r}"
    )


def iterate_lines() -> list[str]:
    """One line per iterate call: the catalog fixtures with a b, then run_bench's schemes."""
    lines = []
    for fixture_id in catalog.fixture_ids():
        fx = catalog.get_fixture(fixture_id)
        if "b" in fx.matrices:
            lines.append(_iterate_line(fixture_id, catalog.build_scheme(fx), fx.matrices["b"]))
    for n in ITERATE_SIZES:
        for seed in ITERATE_SEEDS:
            # the draws of run_bench(n, seed, trials)'s first trial, in its order
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            inst = random_group_monotone(n, n - 1, rng)
            splittings = [random_g_regular_splitting(inst, rng) for _ in range(3)]
            b = rng.uniform(-1.0, 1.0, n)
            for steps, label in enumerate(SCHEME_LABELS, start=1):
                scheme = Scheme(splittings=tuple(splittings[:steps]))
                lines.append(_iterate_line(f"n={n} seed={seed} {label}", scheme, b))
    return lines


def large_instance_lines() -> list[str]:
    """One line per array of the n=400 instance, its A# and its three G-regular parts."""
    rng = np.random.default_rng(0)
    inst = random_group_monotone(LARGE_N, LARGE_N - 1, rng)
    lines = [f"{name} sha256={_digest(m)}" for name, m in (
        ("a", inst.a), ("a_ginv", inst.a_ginv), ("target.ginv", inst.target.ginv))]
    for k in range(1, 4):
        s = random_g_regular_splitting(inst, rng)
        lines += [f"{name}{k} sha256={_digest(getattr(s, name))}" for name in ("u", "v", "u_ginv")]
    return lines


def help_entries() -> list[str]:
    """One block per --help call: the command, its exit code and the help text."""
    blocks = []
    for argv in HELP_ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                build_parser().parse_args(argv)
            except SystemExit as exc:  # argparse exits after printing help
                code = exc.code
        blocks.append(f"$ altiter {' '.join(argv)}\nexit {code}\n{out.getvalue().rstrip()}")
    return blocks


def main() -> int:
    rows = bench_rows()
    print(f"# run_bench rows: {len(rows)}")
    print("\n".join(rows))
    with tempfile.TemporaryDirectory() as workdir:
        entries, pairs = cli_entries(workdir)
        benches = [_entry(argv, _tol_env(ROUNDED_TOL), workdir) for argv in BENCH_CLI_ARGVS]
    print(f"# catalog cli calls: {len(entries)}")
    print("\n".join(entries))
    print(f"# compare pairs: {len(pairs)}")
    print("\n".join(pairs))
    print(f"# bench cli calls: {len(benches)}")
    print("\n".join(benches))
    demos = demo_entries()
    print(f"# demos: {len(demos)}")
    print("\n".join(demos))
    iterates = iterate_lines()
    print(f"# iterate bits: {len(iterates)}")
    print("\n".join(iterates))
    large = large_instance_lines()
    print(f"# n={LARGE_N} instance digests: {len(large)}")
    print("\n".join(large))
    helps = help_entries()
    print(f"# cli help: {len(helps)}")
    print("\n".join(helps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
