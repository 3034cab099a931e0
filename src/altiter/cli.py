"""Command-line interface.

Subcommands: ginv, classify, solve, compare, bench.  Matrices travel as
MatrixMarket files; reports print as plain tables and optionally as CSV.

Exit codes: 0 success, 1 usage or input-file error, 2 mathematical
precondition failure, 3 numerical failure.  Default tolerances can be
overridden per field through ALTITER_* environment variables
(ALTITER_RANK_REL, ALTITER_SUBSPACE_TOL, ALTITER_NONNEG_TOL,
ALTITER_MAT_EQ_TOL, ALTITER_REFVAL_TOL).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import catalog
from .alternating import IterationConfig, Scheme, iterate
from .analysis import (
    ComparisonReport,
    compare_splittings,
    make_preconditioner,
    preconditioned_comparison,
    three_step_comparison,
)
from .bench import run_bench, write_csv
from .errors import (
    MatrixMarketError,
    NumericFailureError,
    PreconditionError,
)
from .ginverse import group_inverse, verify_group_axioms
from .kernel import Tolerances, as_vector
from .mmio import load_matrix
from .splittings import make_splitting, splitting_identity_residuals

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on our exit-code contract
        raise UsageError(message)


def _fmt_matrix(m: np.ndarray) -> str:
    return "\n".join(
        "  [" + "  ".join(f"{value: .6f}" for value in row) + "]" for row in np.atleast_2d(m)
    )


def _print_report(report: ComparisonReport) -> None:
    print("hypotheses:")
    for h in report.hypotheses:
        mark = "ok " if h.satisfied else "FAIL"
        print(f"  [{mark}] {h.name} (violation {h.residual:.3e})")
    rel = "<=" if report.conclusion_holds else ">"
    print(
        f"conclusion: {report.conclusion_lhs:.4f} {rel} {report.conclusion_rhs:.4f}"
        f" -> {'holds' if report.conclusion_holds else 'fails'}"
    )


def _cmd_ginv(args, tol: Tolerances) -> int:
    a = load_matrix(args.matrix)
    result = group_inverse(a, tol)
    residuals = verify_group_axioms(a, result.ginv)
    print(f"index: {result.index}")
    print("group inverse:")
    print(_fmt_matrix(result.ginv))
    print(
        "axiom residuals: AXA-A %.3e  XAX-X %.3e  AX-XA %.3e"
        % (residuals.axa, residuals.xax, residuals.commutator)
    )
    return EXIT_OK


def _cmd_classify(args, tol: Tolerances) -> int:
    a = load_matrix(args.matrix)
    u = load_matrix(args.splitting)
    s = make_splitting(a, u, tol)
    print("classes: " + ", ".join(sorted(c.value for c in s.classes)))
    ident = splitting_identity_residuals(s, tol)
    print(
        "identity residuals: projectors %.3e/%.3e factorizations %.3e/%.3e "
        "inverses %.3e/%.3e"
        % (
            ident.projector_left,
            ident.projector_right,
            ident.factor_left,
            ident.factor_right,
            ident.ginv_left,
            ident.ginv_right,
        )
    )
    print(
        "smallest singular values of the two fixed-point factors: %.3e / %.3e"
        % (ident.sigma_min_left, ident.sigma_min_right)
    )
    return EXIT_OK


def _cmd_solve(args, tol: Tolerances) -> int:
    a = load_matrix(args.matrix)
    b = as_vector(load_matrix(args.rhs))
    splitting_parts = [load_matrix(path) for path in args.splittings]
    steps = args.steps or len(splitting_parts)
    if steps > len(splitting_parts):
        raise UsageError(
            f"--steps {steps} needs {steps} splitting files, got {len(splitting_parts)}"
        )
    precond = None
    if args.precondition:
        precond = make_preconditioner(a, load_matrix(args.precondition), tol)
    # one decomposition per target: A (for A# b) and, if preconditioned, Q A
    a_target = group_inverse(a, tol)
    target = a_target if precond is None else group_inverse(precond @ a, tol)
    splittings = tuple(
        make_splitting(target, part, tol) for part in splitting_parts[:steps]
    )
    scheme = Scheme(splittings=splittings, preconditioner=precond)
    x0 = as_vector(load_matrix(args.x0)) if args.x0 else None
    cfg = IterationConfig(x0=x0, eps=args.eps, max_iter=args.max_iter)
    trace = iterate(scheme, b, cfg)
    truth = a_target.ginv @ b
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run's error is inf
        final_error = float(np.linalg.norm(trace.x_final - truth))
    label = f"{steps}-step" + (" preconditioned" if precond is not None else "")
    header = f"{'scheme':<24}{'iters':>6}{'rho':>10}{'error':>12}{'seconds':>10}  converged"
    row = (
        f"{label:<24}{trace.iterations:>6}{trace.rho_h:>10.4f}"
        f"{final_error:>12.3e}{trace.elapsed_seconds:>10.4f}  {str(trace.converged).lower()}"
    )
    print(header)
    print(row)
    print("solution: " + "  ".join(f"{value:.8f}" for value in trace.x_final))
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write("scheme,iterations,rho,final_error,elapsed_seconds,converged\n")
            fh.write(
                f"{label},{trace.iterations},{trace.rho_h!r},{final_error!r},"
                f"{trace.elapsed_seconds!r},{str(trace.converged).lower()}\n"
            )
    return EXIT_OK


def _compare_fixture(fixture_id: str, tol_override: Tolerances | None) -> int:
    fx = catalog.get_fixture(fixture_id)
    tol = tol_override or fx.tol
    if fixture_id == "ex5.4":
        s_plain = catalog.splitting_of(fx, "k", tol)
        qa = fx.matrices["q"] @ fx.matrices["a"]
        s_pre = make_splitting(qa, fx.matrices["k_pre"], tol)
        report = preconditioned_comparison(
            fx.matrices["a"], s_plain, fx.matrices["q"], s_pre, tol
        )
        _print_report(report)
        return EXIT_OK
    if fixture_id == "ex5.5":
        radii = [
            catalog.build_scheme(fx, keys, tol).rho
            for keys in (("k",), ("k", "u"), fx.scheme_order)
        ]
        chain = " <= ".join(f"{value:.4f}" for value in reversed(radii))
        ordered = radii[2] <= radii[1] + tol.refval_tol and radii[1] <= radii[0] + tol.refval_tol
        print(f"three-step vs two-step vs one-step: {chain} -> {'holds' if ordered else 'fails'}")
        return EXIT_OK
    if len(fx.scheme_order) == 3:
        scheme = catalog.build_scheme(fx, tol=tol)
        _print_report(three_step_comparison(scheme, tol))
        return EXIT_OK
    raise UsageError(f"fixture {fixture_id!r} has no comparison defined")


def _cmd_compare(args, tol: Tolerances) -> int:
    if args.fixture:
        return _compare_fixture(args.fixture, None)
    if not (args.matrix and args.first and args.second):
        raise UsageError("compare needs a fixture id or --matrix/--first/--second files")
    target = group_inverse(load_matrix(args.matrix), tol)
    s1 = make_splitting(target, load_matrix(args.first), tol)
    s2 = make_splitting(target, load_matrix(args.second), tol)
    _print_report(compare_splittings(s1, s2, tol))
    return EXIT_OK


def _cmd_bench(args, tol: Tolerances) -> int:
    reports = run_bench(
        n=args.n,
        seed=args.seed,
        trials=args.trials,
        rank=args.rank,
        eps=args.eps,
        max_iter=args.max_iter,
        tol=tol,
    )
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            write_csv(reports, fh)
        print(f"wrote {len(reports)} rows to {args.out}")
    else:
        write_csv(reports, sys.stdout)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call of
    main (parsing does not change it); callers must not modify it."""
    parser = _Parser(
        prog="altiter",
        description="Alternating matrix-splitting iterations for singular systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ginv", help="group inverse, index and axiom residuals")
    p.add_argument("matrix", help="MatrixMarket file")
    p.set_defaults(func=_cmd_ginv)

    p = sub.add_parser("classify", help="validate and classify a splitting")
    p.add_argument("matrix", help="the matrix being split")
    p.add_argument("splitting", help="the U part of the splitting")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="run an alternating scheme on a x = b")
    p.add_argument("matrix")
    p.add_argument("rhs")
    p.add_argument("splittings", nargs="+", help="one to three U parts, in application order")
    p.add_argument("--steps", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--x0", default=None, help="start vector file (default zero)")
    p.add_argument("--precondition", default=None, metavar="Q",
                   help="commuting preconditioner; splittings then target Q A")
    p.add_argument("--csv", default=None, help="also write the report row as CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="spectral-radius comparison reports")
    p.add_argument("fixture", nargs="?", default=None,
                   help=f"built-in problem id ({', '.join(catalog.fixture_ids())})")
    p.add_argument("--matrix", default=None)
    p.add_argument("--first", default=None, help="U part rated on the left")
    p.add_argument("--second", default=None, help="U part rated on the right")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="randomized instances, 1/2/3-step schemes, CSV")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--rank", type=int, default=None, help="instance rank (default n-1)")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tol = Tolerances.from_env()
    try:
        return args.func(args, tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: catch it first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MatrixMarketError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
