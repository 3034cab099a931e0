import collections
import collections.abc
import dataclasses
import os
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from altiter import catalog, cli
from altiter.bench import CSV_COLUMNS
from altiter.cli import _tolerance_overrides, build_parser, main
from altiter.kernel import Tolerances
from altiter.mmio import save_matrix
from conftest import bench_scheme


EX31, EX41, EX51, EX53, EX54, EX55 = (
    catalog.get_fixture(f).matrices for f in ("ex3.1", "ex4.1", "ex5.1", "ex5.3", "ex5.4", "ex5.5")
)


@pytest.fixture
def ex51_files(write_matrices):
    return write_matrices(**EX51)


@pytest.fixture
def ex41_files(write_matrices):
    return write_matrices(**EX41)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def succeeds(capsys, *argv):
    """The standard output of a call that exits 0."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return out


class Failure(NamedTuple):
    """altiter argv exits with code and prints "error: <err>" and a newline to
    stderr; an err ending in " ..." is only the message's start.  Each name in
    files is written as a MatrixMarket file (a str as raw text) and stands for
    its path in argv, DIR for a directory; env is set for the call.  A quiet
    failure prints nothing to stdout."""

    argv: str  # split at spaces
    code: int
    err: str
    files: dict = {}
    env: dict = {}
    quiet: bool = True


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
EMPTY = {"empty": np.zeros((0, 0)), "rhs": np.zeros((0, 1))}
NO_TOLERANCE = (" names no tolerance; use one of ALTITER_RANK_REL, ALTITER_NONNEG_TOL,"
                " ALTITER_MAT_EQ_TOL, ALTITER_REFVAL_TOL")
IS_A_DIRECTORY = "[Errno 21] Is a directory: ..."
FIXTURE_IDS = ", ".join(catalog.fixture_ids())

FAILURES = {
    "ginv-nilpotent": Failure("ginv m", 2, "the matrix is not of index 1", {"m": NILPOTENT}),
    "ginv-nilpotent-block": Failure(
        "ginv m", 2, "the matrix is not of index 1",
        {"m": np.block([[NILPOTENT, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([1.0, 2.0])]])}),
    "ginv-missing-file": Failure(
        "ginv /no/such/file.mtx", 1, "[Errno 2] No such file or directory: '/no/such/file.mtx'"),
    "ginv-directory": Failure("ginv DIR", 1, IS_A_DIRECTORY),
    "ginv-underscore-entry": Failure(
        "ginv m", 1, "line 3: bad entry '1_0'",
        {"m": "%%MatrixMarket matrix array real general\n1 1\n1_0\n"}),
    "ginv-variable-names-no-tolerance": Failure(
        "ginv a", 1, "ALTITER_TOL" + NO_TOLERANCE, EX51, {"ALTITER_TOL": "100"}),
    "ginv-empty": Failure("ginv empty", 1, "the matrix is empty", EMPTY),
    # A# of 2^-1025 A is 2^1025 A#
    "ginv-overflowing-a-ginv": Failure(
        "ginv a", 3, "A# overflowed", {"a": np.ldexp(EX54["a"], -1025)}),
    "classify-improper": Failure(
        "classify a u", 2, "R(A) or N(A) not preserved (off-diagonal part 7.1e-01)",
        {"a": np.diag([1.0, 0.0]), "u": np.eye(2)}),
    "classify-empty": Failure("classify empty empty", 1, "the matrix is empty", EMPTY),
    # the splitting classifies, but U#V = -1e310 in its identity residuals overflows
    "classify-overflowing-product": Failure(
        "classify a u", 3, "I - U#V overflowed", {"a": [[1e10]], "u": [[1e-300]]}),
    # the report is printed before the CSV file is opened
    "solve-csv-directory": Failure(
        "solve a b u --csv DIR", 1, IS_A_DIRECTORY, EX51, quiet=False),
    "solve-four-splittings": Failure(
        "solve a b k u x u", 1, "a scheme takes one, two or three splittings", EX51),
    **{f"solve-eps-{eps}": Failure(
        f"solve a b u --eps {eps}", 1, f"eps must be a finite positive number, got {eps}", EX51)
       for eps in ("inf", "nan")},
    **{f"solve-preconditioner-of-rank-{rank}": Failure(
        "solve a b u --precondition q", 3, "the preconditioner is singular", {**EX51, "q": q})
       for rank, q in ((0, np.zeros((3, 3))), (2, np.diag([1.0, 1.0, 0.0])))},
    "solve-empty": Failure("solve empty rhs empty", 1, "the matrix is empty", EMPTY),
    # finite, valid parts whose H = (U#V)^2 = 1e400 overflows
    "solve-overflowing-h": Failure(
        "solve a a u u", 3, "the iteration matrix H overflowed", {"a": [[1.0]], "u": [[1e-200]]}),
    # A = [[1]] and Q = [[4]] are valid, but Q b = 4e308 overflows
    "solve-overflowing-q-b": Failure(
        "solve a b q --precondition q", 3, "the right-hand side Q b overflowed",
        {"a": [[1.0]], "b": [[1e308]], "q": [[4.0]]}),
    # every part is finite, but QA = 2^1022 (QA) is not
    "solve-overflowing-qa": Failure(
        "solve a b k_pre --precondition q", 3, "QA overflowed",
        {key: np.ldexp(EX54[key], 511) for key in ("a", "b", "q", "k_pre")}),
    # H = 1/2 and the sweeps diverge quietly, but A# b = 1e310
    "solve-overflowing-a-ginv-b": Failure(
        "solve a b u", 3, "the group-inverse solution A# b overflowed",
        {"a": [[1e-300]], "b": [[1e10]], "u": [[2e-300]]}),
    **{f"compare-environment-{value}": Failure(
        "compare ex4.5", 1, f"ALTITER_NONNEG_TOL must be a finite positive number, got {shown}",
        env={"ALTITER_NONNEG_TOL": value})
       for value, shown in (("abc", "'abc'"), ("-1", "-1.0"), ("inf", "inf"), ("nan", "nan"))},
    # a misspelt field, which would otherwise be ignored
    "compare-variable-names-no-tolerance": Failure(
        "compare ex4.5", 1, "ALTITER_NONEG_TOL" + NO_TOLERANCE, env={"ALTITER_NONEG_TOL": "100"}),
    "compare-fixture-and-files": Failure(
        "compare ex5.1 --matrix a", 1,
        "compare takes a fixture id or --matrix/--first/--second, not both", EX51),
    **{f"compare-unknown-fixture-{fid}": Failure(
        f"compare {fid}", 1, f"unknown fixture '{fid}'; available: {FIXTURE_IDS}")
       for fid in ("ex9.9", "nope")},
    "compare-no-arguments": Failure(
        "compare", 1, "compare needs a fixture id or --matrix/--first/--second files"),
    "compare-fixture-without-comparison": Failure(
        "compare ex3.1", 1, "fixture 'ex3.1' has no comparison defined"),
    "compare-empty": Failure(
        "compare --matrix empty --first empty --second empty", 1, "the matrix is empty", EMPTY),
    "compare-overflowing-h": Failure(
        "compare --matrix a --first u --second u", 3, "the iteration matrix H overflowed",
        {"a": [[1e10]], "u": [[1e-300]]}),
    "bench-bad-flag": Failure(
        "bench --n not-a-number", 1, "argument --n: invalid int value: 'not-a-number'"),
    "bench-n-1": Failure("bench --n 1", 1, "n must be at least 2"),
    "bench-trials-minus-1": Failure("bench --trials -1", 1, "trials must be nonnegative"),
    "bench-out-directory": Failure("bench --n 4 --trials 1 --out DIR", 1, IS_A_DIRECTORY),
    # Python versions quote the list of choices differently
    "unknown-subcommand": Failure(
        "frobnicate", 1, "argument command: invalid choice: 'frobnicate' ..."),
}


def run_case(case, tmp_path, capsys, monkeypatch):
    """run() on case.argv, with case.files written under tmp_path and case.env set."""
    paths = {"DIR": str(tmp_path)}
    for name, m in case.files.items():
        path = tmp_path / f"{name}.mtx"
        if isinstance(m, str):
            path.write_text(m)
        else:
            save_matrix(path, m)
        paths[name] = str(path)
    for name, value in case.env.items():
        monkeypatch.setenv(name, value)
    return run(capsys, *(paths.get(arg, arg) for arg in case.argv.split()))


@pytest.mark.parametrize("case", FAILURES.values(), ids=FAILURES)
def test_failure_exits_in_its_family(case, tmp_path, capsys, monkeypatch):
    code, out, err = run_case(case, tmp_path, capsys, monkeypatch)
    assert code == case.code
    if case.err.endswith(" ..."):
        assert err.startswith(f"error: {case.err[:-4]}")
    else:
        assert err == f"error: {case.err}\n"
    assert out == "" or not case.quiet


def test_overflowing_classify_prints_nothing(write_matrices, capsys):
    # the splitting classifies, but its identity residuals overflow
    paths = write_matrices(a=[[1e10]], u=[[1e-300]])
    code, out, _ = run(capsys, "classify", *paths.values())
    assert (code, out) == (3, "")


class Calls(NamedTuple):
    """altiter argv exits 0 after exactly these numpy.linalg calls (no inv or
    pinv), passes the matrices of decomposed to group_inverse in that order,
    and prints a line that matches shows.  files and env are as in Failure."""

    argv: str
    svd: int
    eigvals: int
    solve: int
    decomposed: tuple
    shows: str
    files: dict = {}
    env: dict = {}


TOL54 = catalog.get_fixture("ex5.4").tol
QA54 = (EX54["a"], EX54["q"] @ EX54["a"])
BENCH20, SCHEME20, B20 = bench_scheme(20, 0)  # an n = 20 instance of the solve workloads

# each target matrix is decomposed once: A, and QA when preconditioned
CALLS = {
    "ginv": Calls("ginv a", 1, 0, 2, (EX51["a"],), r"^index: 1$", EX51),
    "classify": Calls("classify a u", 3, 0, 5, (EX31["a"],), r"^classes: ", EX31),
    "solve": Calls("solve a b x u k", 1, 1, 5, (EX51["a"],), r"^3-step .* true$", EX51),
    # one SVD of A; eigvals for rho(H); solves for the inverses of Q, of each P1 and of A's core
    "solve-bench-instance": Calls(
        "solve a b u1 u2 u3", 1, 1, 5, (BENCH20.a,), r"^3-step .* true$",
        {"a": BENCH20.a, "b": B20.reshape(-1, 1),
         **{f"u{k}": s.u for k, s in enumerate(SCHEME20.splittings, 1)}}),
    # four-decimal fixture data needs the relaxed thresholds, given as a user would
    "solve-precondition": Calls(
        "solve a b k_pre --precondition q", 2, 1, 5, QA54, r"^1-step preconditioned .* true$",
        EX54, {"ALTITER_RANK_REL": str(TOL54.rank_rel),
               "ALTITER_MAT_EQ_TOL": str(TOL54.mat_eq_tol)}),
    "compare-fixture": Calls("compare ex5.1", 1, 4, 6, (EX51["a"],), r"-> holds$"),
    "compare-chain-fixture": Calls("compare ex5.5", 1, 3, 4, (EX55["a"],), r"-> holds$"),
    "compare-preconditioned-fixture": Calls("compare ex5.4", 2, 2, 6, QA54, r"-> holds$"),
    "compare-files": Calls(
        "compare --matrix a --first u --second k", 1, 2, 4, (EX51["a"],),
        r"^conclusion: 0\.3983 > 0\.3684 -> fails$", EX51),
}


@pytest.mark.parametrize("case", CALLS.values(), ids=CALLS)
def test_lapack_calls_per_command(case, tmp_path, capsys, monkeypatch, lapack_calls,
                                  group_inverse_calls):
    code, out, _ = run_case(case, tmp_path, capsys, monkeypatch)
    assert code == 0 and re.search(case.shows, out, re.M), out
    counts = collections.Counter(svd=case.svd, eigvals=case.eigvals, solve=case.solve)
    assert lapack_calls == counts  # Counters compare a missing name as 0: no inv or pinv
    assert len(group_inverse_calls) == len(case.decomposed)
    for called, matrix in zip(group_inverse_calls, case.decomposed):
        np.testing.assert_array_equal(called, matrix)


class TestGinv:
    def test_identity(self, write_matrices, capsys):
        out = succeeds(capsys, "ginv", write_matrices(eye=np.eye(2))["eye"])
        assert "index: 0" in out

    def test_fixture_inverse_matches_reference(self, write_matrices, capsys):
        out = succeeds(capsys, "ginv", write_matrices(u=EX31["u"])["u"])
        assert "0.111111" in out  # the central entry of the reference inverse

    def test_lapack_failure_exits_three(self, write_matrices, capsys, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        path = write_matrices(eye=np.eye(2))["eye"]
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        code, _, err = run(capsys, "ginv", path)
        assert code == 3
        assert err.startswith("error:") and "SVD did not converge" in err

    @pytest.mark.parametrize("m", [
        np.diag([1e308, 0.0]),
        np.array([[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1e308]]),
    ])
    def test_entries_near_overflow(self, m, write_matrices, capsys):
        path = write_matrices(big=m)["big"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "ginv", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index: 1"
        residuals = [float(tok) for tok in lines[-1].split()[3::2]]
        assert len(residuals) == 3
        assert all(np.isfinite(r) and r < 1e-12 for r in residuals)


@pytest.mark.parametrize("argv, loader", [
    (["ginv", "huge.mtx"], "load_matrix"),
    (["bench", "--n", "200000", "--trials", "1"], "run_bench"),
], ids=["ginv", "bench"])
def test_input_too_large_to_allocate_exits_one(argv, loader, capsys, monkeypatch):
    message = "Unable to allocate 65.5 TiB for an array with shape (3000000, 3000000)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, loader, refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


class TestClassify:
    def test_weak_regular_not_regular(self, write_matrices, capsys):
        paths = write_matrices(a=EX31["a"], u=EX31["u"])
        out = succeeds(capsys, "classify", *paths.values())
        assert "G-weak-regular" in out
        assert "G-regular," not in out and not out.strip().endswith("G-regular")

    @pytest.mark.parametrize("m", [
        # Q^-1 A Q would overflow unless A is scaled first
        1e308 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        # just below 2^512, A is not scaled, and only the norm of Q^-1 A Q would overflow
        np.diag([1.3e154, 1.3e154, 0.0]),
    ])
    def test_entries_near_overflow(self, m, write_matrices, capsys):
        path = write_matrices(big=m)["big"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "classify", path, path)
        assert code == 0
        assert out.startswith("classes: ") and "proper" in out.splitlines()[0]
        assert "inf" not in out and "nan" not in out

    def test_regular_with_rounded_product_is_weak_regular(self, write_matrices, capsys):
        # V >= -5e-11 passes nonneg_tol, but U#V = [[0, -5e-9], [0, 0]] does
        # not: the classes and both class hypotheses of compare still agree
        pa, pu = write_matrices(a=np.array([[0.01, 5e-11], [0.0, 1.0]]),
                                u=np.diag([0.01, 1.0])).values()
        out = succeeds(capsys, "classify", pa, pu)
        assert out.splitlines()[0] == "classes: G-regular, G-weak-regular, proper"
        out = succeeds(capsys, "compare", "--matrix", pa, "--first", pu, "--second", pu)
        lines = out.splitlines()
        assert lines[1] == "  [ok ] first splitting G-weak regular (violation 5.000e-11)"
        assert lines[2] == "  [ok ] second splitting G-regular (violation 5.000e-11)"

    def test_zero_matrices(self, write_matrices, capsys):
        path = write_matrices(zero=np.zeros((3, 3)))["zero"]
        out = succeeds(capsys, "classify", path, path)
        assert out.splitlines()[0] == "classes: G-regular, G-weak-regular, proper"


class TestSolve:
    def test_three_step_run(self, ex51_files, capsys, tmp_path):
        csv = tmp_path / "run.csv"
        out = succeeds(capsys, "solve", *map(ex51_files.get, "abxuk"), "--csv", str(csv))
        assert "3-step" in out and "true" in out
        text = csv.read_text()
        assert text.startswith("scheme,iterations,rho,final_error,elapsed_seconds,converged")
        row = text.splitlines()[1].split(",")
        assert float(row[3]) < 1e-4 and row[-1] == "true"  # final_error against A# b

    def test_one_step_from_one_file(self, ex51_files, capsys):
        out = succeeds(capsys, "solve", *map(ex51_files.get, "abu"), "--eps", "1e-8")
        assert "1-step" in out

    def test_preconditioned_solve_recovers_original_solution(
        self, write_matrices, capsys, monkeypatch
    ):
        # four-decimal fixture data needs the relaxed thresholds, supplied
        # through the environment exactly as a user would
        fx = catalog.get_fixture("ex5.3")
        monkeypatch.setenv("ALTITER_RANK_REL", str(fx.tol.rank_rel))
        monkeypatch.setenv("ALTITER_MAT_EQ_TOL", str(fx.tol.mat_eq_tol))
        paths = write_matrices(**EX53)
        out = succeeds(capsys, "solve", *map(paths.get, "abkux"), "--precondition", paths["q"])
        assert "preconditioned" in out and "true" in out

    def test_custom_start_vector_flag(self, ex51_files, write_matrices, capsys):
        x0 = write_matrices(x0=np.array([[1.0], [2.0], [3.0]]))["x0"]
        code, out, _ = run(capsys, "solve", *map(ex51_files.get, "abxuk"), "--x0", x0)
        assert code == 0 and "true" in out

    def test_vectors_saved_as_1d_arrays(self, ex51_files, write_matrices, capsys):
        b, x0 = write_matrices(
            b_1d=np.ravel(EX51["b"]), x0=np.array([1.0, 2.0, 3.0])
        ).values()
        code, out, _ = run(capsys, "solve", ex51_files["a"], b, *map(ex51_files.get, "xuk"),
                           "--x0", x0)
        assert code == 0 and "true" in out

    def test_divergent_fixture_reports_nonconvergence(self, ex41_files, capsys):
        out = succeeds(capsys, "solve", *map(ex41_files.get, "abxuk"), "--max-iter", "100")
        assert "false" in out

    def test_divergent_run_emits_no_warning(self, ex41_files, capsys):
        # 2000 sweeps take x to about 1e265, and the norm of the final error overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "solve", *map(ex41_files.get, "abxuk"))
        assert code == 0
        row = out.splitlines()[1].split()
        assert row[1] == "2000" and row[-1] == "false"


class TestCompare:
    def test_fixture_with_preconditioner(self, capsys):
        out = succeeds(capsys, "compare", "ex5.4")
        assert "0.3318" in out and "0.6993" in out and "holds" in out

    def test_fixture_reads_environment_overrides(self, capsys, monkeypatch):
        # ex4.5's splittings miss G-regularity by at most 83.5 and its
        # composite radius exceeds the smallest single one by 0.52
        monkeypatch.setenv("ALTITER_NONNEG_TOL", "100")
        monkeypatch.setenv("ALTITER_REFVAL_TOL", "10")
        out = succeeds(capsys, "compare", "ex4.5")
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "conclusion: 1.7746 <= 1.2530 -> holds"

    def test_fixture_with_failed_hypotheses(self, capsys):
        out = succeeds(capsys, "compare", "ex4.5")
        assert "FAIL" in out and "fails" in out

    def test_chain_fixture(self, capsys):
        out = succeeds(capsys, "compare", "ex5.5")
        # quoted chain is 0.1513 <= 0.3038 <= 0.5346; the middle radius
        # computes to 0.30374 and prints as its four-decimal floor
        assert out == "three-step vs two-step vs one-step: 0.1513 <= 0.3037 <= 0.5346 -> holds\n"

    def test_path_mode(self, write_matrices, capsys):
        # CALLS["compare-files"] pins what path mode decomposes
        paths = write_matrices(a=np.array([[2.0, -1.0], [-1.0, 2.0]]),
                               first=np.array([[2.0, 0.0], [-1.0, 2.0]]),
                               second=np.diag([2.0, 2.0]))
        out = succeeds(capsys, "compare", "--matrix", paths["a"],
                       "--first", paths["first"], "--second", paths["second"])
        assert "0.2500 <= 0.5000" in out


class _ScanCountingEnviron(collections.abc.Mapping):
    """A read-only stand-in for os.environ that counts the scans of its names."""

    def __init__(self, variables):
        self._variables, self.scans = dict(variables), 0

    def __getitem__(self, name):
        return self._variables[name]

    def __len__(self):
        return len(self._variables)

    def __iter__(self):
        self.scans += 1
        return iter(self._variables)


class TestToleranceOverrides:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ALTITER_NONNEG_TOL", "1e-5")
        monkeypatch.setenv("ALTITER_REFVAL_TOL", "5e-3")
        tol = Tolerances(**_tolerance_overrides())
        assert tol.nonneg_tol == 1e-5
        assert tol.refval_tol == 5e-3
        assert tol.rank_rel == 1e-12

    @pytest.mark.parametrize(
        ("raw", "shown"),
        [("abc", "'abc'"), ("-1", "-1.0"), ("inf", "inf"), ("nan", "nan")],
        ids=["abc", "-1", "inf", "nan"],
    )
    def test_env_value_that_is_not_a_number_names_its_variable(self, raw, shown, monkeypatch):
        monkeypatch.setenv("ALTITER_RANK_REL", raw)
        with pytest.raises(ValueError) as info:
            _tolerance_overrides()
        assert str(info.value) == f"ALTITER_RANK_REL must be a finite positive number, got {shown}"

    @pytest.mark.parametrize("name", ["ALTITER_NONEG_TOL", "ALTITER_TOL", "ALTITER_"])
    def test_env_name_that_is_no_field_is_refused(self, name, monkeypatch):
        monkeypatch.setenv("ALTITER_NONNEG_TOL", "1e-5")
        monkeypatch.setenv(name, "1e-4")
        with pytest.raises(ValueError) as info:
            _tolerance_overrides()
        assert str(info.value) == (
            f"{name} names no tolerance; use one of ALTITER_RANK_REL, ALTITER_NONNEG_TOL,"
            " ALTITER_MAT_EQ_TOL, ALTITER_REFVAL_TOL"
        )

    def test_env_overrides_a_given_base(self, capsys, monkeypatch):
        # compare <fixture> overrides the fixture's own tolerances, field by field
        fx, comparison, seen = catalog.get_fixture("ex4.5"), catalog.comparison, []
        monkeypatch.setattr(catalog, "comparison", lambda f: seen.append(f.tol) or comparison(f))
        assert run(capsys, "compare", "ex4.5")[0] == 0
        monkeypatch.setenv("ALTITER_NONNEG_TOL", "1e-5")
        assert run(capsys, "compare", "ex4.5")[0] == 0
        assert seen == [fx.tol, dataclasses.replace(fx.tol, nonneg_tol=1e-5)]

    @pytest.mark.parametrize(
        "command", ["ginv", "classify", "solve", "compare-files", "compare-fixture", "bench"]
    )
    def test_reads_the_environment_once_per_call(self, command, ex51_files, capsys, monkeypatch):
        f = ex51_files
        argv = {
            "ginv": ["ginv", f["a"]],
            "classify": ["classify", f["a"], f["u"]],
            "solve": ["solve", f["a"], f["b"], f["u"]],
            "compare-files": ["compare", "--matrix", f["a"], "--first", f["u"], "--second", f["k"]],
            "compare-fixture": ["compare", "ex4.5"],
            "bench": ["bench", "--n", "4", "--trials", "1"],
        }[command]
        environ = _ScanCountingEnviron({**os.environ, "ALTITER_NONNEG_TOL": "1e-9"})
        with monkeypatch.context() as patch:  # pytest writes os.environ after the test
            patch.setattr(os, "environ", environ)
            code, _, _ = run(capsys, *argv)
        assert (code, environ.scans) == (0, 1)


class TestBench:
    def test_zero_trials_writes_header_only(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--n", "4", "--trials", "0",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines == ["n,seed,scheme,rho,iterations,elapsed_seconds,final_error,converged"]

    def test_without_out_writes_csv_to_stdout(self, capsys):
        for n in ("3", "2"):  # 2 is the smallest n
            code, out, _ = run(capsys, "bench", "--n", n, "--trials", "1")
            lines = out.splitlines()
            assert code == 0
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) == 4  # header + 1 trial x 3 schemes

    def test_row_count_and_ordering(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--n", "9", "--seed", "1",
                         "--trials", "5", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 16  # header + 5 trials x 3 schemes
        rows = [line.split(",") for line in lines[1:]]
        for trial in range(5):
            rho_one, rho_two, rho_three = (
                float(rows[3 * trial + i][3]) for i in range(3)
            )
            assert rho_three <= rho_two + 1e-9 <= rho_one + 2e-9
            assert all(row[7] == "true" for row in rows[3 * trial: 3 * trial + 3])
        assert max(float(row[6]) for row in rows) < 1e-4  # final_error, against A# b

def test_dominance_read_past_overflow_is_reported(write_matrices, capsys):
    # U1# - U2# = 2 / 5.6e-309 overflows to +inf, which is read only for its sign
    a, u1, u2 = write_matrices(a=[[1.0]], u1=[[5.6e-309]], u2=[[-5.6e-309]]).values()
    code, out, err = run(capsys, "compare", "--matrix", a, "--first", u1, "--second", u2)
    assert (code, err) == (0, "")
    assert "  [ok ] first inverse dominates second (violation 0.000e+00)\n" in out


def _without_seconds(out: str) -> str:
    """Solve output with the timing column of its report row blanked."""
    lines = out.splitlines()
    if lines and lines[0].startswith("scheme"):
        row = lines[1].split()
        lines[1] = " ".join(row[:-2] + row[-1:])
    return "\n".join(lines)


def test_repeated_calls_in_one_process_match_fresh_ones(ex51_files, write_matrices, capsys):
    eye = write_matrices(eye=np.eye(2))["eye"]
    solve = ("solve", *map(ex51_files.get, "abkux"))
    calls = [
        ("ginv", eye),
        solve + ("--max-iter", "many"),  # usage error: not an int
        solve + ("--max-iter", "3", "--eps", "1e-12"),
        solve,  # no option of the previous call may carry over
    ]
    reused = [run(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in reused] == [0, 1, 0, 0]
    for (code, out, err), (fcode, fout, ferr) in zip(reused, fresh):
        assert (code, _without_seconds(out), err) == (fcode, _without_seconds(fout), ferr)
    capped, plain = (reused[i][1].splitlines()[1].split() for i in (2, 3))
    assert capped[1] == "3" and capped[-1] == "false"
    assert int(plain[1]) > 3 and plain[-1] == "true"
