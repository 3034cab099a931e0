"""Command-line interface.

Subcommands: ginv, classify, solve, compare, bench.  Matrices travel as
MatrixMarket files; reports print as plain tables and optionally as CSV.

Exit codes: 0 success, 1 usage or input-file error, 2 mathematical
precondition failure, 3 numerical failure.  Each ALTITER_* environment
variable set (ALTITER_RANK_REL, ALTITER_SUBSPACE_TOL, ALTITER_NONNEG_TOL,
ALTITER_MAT_EQ_TOL, ALTITER_REFVAL_TOL) overrides one tolerance field: of
the defaults, or of the fixture's own tolerances for ``compare <fixture>``.
Every matrix a subcommand decomposes, ``bench`` instances included, is
decomposed at those tolerances, and classes and hypotheses follow them.
The CLI only maps exception families to exit codes: the library raises
NumericFailureError for every product that overflows.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import catalog
from .alternating import IterationConfig, Scheme, iterate
from .analysis import ComparisonReport, compare_splittings, make_preconditioner
from .bench import run_bench, write_csv
from .errors import (
    MatrixMarketError,
    NumericFailureError,
    PreconditionError,
)
from .ginverse import group_inverse, verify_group_axioms
from .kernel import Tolerances, _quiet_product, as_vector
from .mmio import load_matrix
from .splittings import make_splitting, splitting_identity_residuals

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


_EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (MatrixMarketError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
    (KeyError, EXIT_USAGE),
    (PreconditionError, EXIT_PRECONDITION),
    (NumericFailureError, EXIT_NUMERIC),
)


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
    s = make_splitting(group_inverse(a, tol), u)
    ident = splitting_identity_residuals(s)  # before printing: an overflow here exits 3
    print("classes: " + ", ".join(sorted(c.value for c in s.classes)))
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
    q = load_matrix(args.precondition) if args.precondition else None
    # one decomposition per target: A (for A# b and the Q checks) and Q A
    a_target = group_inverse(a, tol)
    precond = None if q is None else make_preconditioner(a_target, q)
    target = a_target if precond is None else group_inverse(precond @ a, tol)
    splittings = tuple(make_splitting(target, part) for part in splitting_parts)
    scheme = Scheme(splittings=splittings, preconditioner=precond)
    x0 = as_vector(load_matrix(args.x0)) if args.x0 else None
    cfg = IterationConfig(x0=x0, eps=args.eps, max_iter=args.max_iter)
    rho = scheme.rho  # before any sweep, so an overflowing H fails first
    trace = iterate(scheme, b, cfg)
    truth = _quiet_product(lambda: a_target.ginv @ b, "the group-inverse solution A# b")
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run's error is inf
        final_error = float(np.linalg.norm(trace.x_final - truth))
    label = f"{scheme.steps}-step" + (" preconditioned" if precond is not None else "")
    header = f"{'scheme':<24}{'iters':>6}{'rho':>10}{'error':>12}{'seconds':>10}  converged"
    row = (
        f"{label:<24}{trace.iterations:>6}{rho:>10.4f}"
        f"{final_error:>12.3e}{trace.elapsed_seconds:>10.4f}  {str(trace.converged).lower()}"
    )
    print(header)
    print(row)
    print("solution: " + "  ".join(f"{value:.8f}" for value in trace.x_final))
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write("scheme,iterations,rho,final_error,elapsed_seconds,converged\n")
            fh.write(
                f"{label},{trace.iterations},{rho!r},{final_error!r},"
                f"{trace.elapsed_seconds!r},{str(trace.converged).lower()}\n"
            )
    return EXIT_OK


def _compare_fixture(fixture_id: str) -> int:
    fx = catalog.get_fixture(fixture_id)
    reports = catalog.comparison(dataclasses.replace(fx, tol=Tolerances.from_env(fx.tol)))
    if len(reports) == 1:
        _print_report(reports[0])
    else:  # a chain: each report's rhs is the next one's lhs
        radii = [reports[0].conclusion_lhs] + [r.conclusion_rhs for r in reports]
        chain = " <= ".join(f"{value:.4f}" for value in radii)
        verdict = "holds" if all(r.conclusion_holds for r in reports) else "fails"
        print(f"three-step vs two-step vs one-step: {chain} -> {verdict}")
    return EXIT_OK


def _cmd_compare(args, tol: Tolerances) -> int:
    if args.fixture:
        if args.matrix or args.first or args.second:
            raise UsageError("compare takes a fixture id or --matrix/--first/--second, not both")
        return _compare_fixture(args.fixture)
    if not (args.matrix and args.first and args.second):
        raise UsageError("compare needs a fixture id or --matrix/--first/--second files")
    target = group_inverse(load_matrix(args.matrix), tol)
    s1 = make_splitting(target, load_matrix(args.first))
    s2 = make_splitting(target, load_matrix(args.second))
    _print_report(compare_splittings(s1, s2))
    return EXIT_OK


def _cmd_bench(args, tol: Tolerances) -> int:
    reports = run_bench(n=args.n, seed=args.seed, trials=args.trials, tol=tol)
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
    p.add_argument("--eps", type=float, default=IterationConfig.eps)
    p.add_argument("--max-iter", type=int, default=IterationConfig.max_iter)
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
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, Tolerances.from_env())
    except tuple(exc_type for exc_type, _ in _EXIT_CODES) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return next(code for exc_type, code in _EXIT_CODES if isinstance(exc, exc_type))


if __name__ == "__main__":
    sys.exit(main())
