import collections.abc
import dataclasses
import os
import warnings

import numpy as np
import pytest

from altiter import catalog, cli
from altiter.bench import CSV_COLUMNS
from altiter.cli import _tolerance_overrides, build_parser, main
from altiter.kernel import Tolerances


def fixture_files(write_matrices, fixture_id, keys):
    """The paths of the catalog fixture's matrices named by keys, written by write_matrices."""
    matrices = catalog.get_fixture(fixture_id).matrices
    return write_matrices(**{key: matrices[key] for key in keys})


@pytest.fixture
def ex51_files(write_matrices):
    return fixture_files(write_matrices, "ex5.1", ("a", "b", "k", "u", "x"))


@pytest.fixture
def ex41_files(write_matrices):
    return fixture_files(write_matrices, "ex4.1", ("a", "b", "k", "u", "x"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def succeeds(capsys, *argv):
    """The standard output of a call that exits 0."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return out


class TestGinv:
    def test_identity(self, write_matrices, capsys):
        out = succeeds(capsys, "ginv", write_matrices(eye=np.eye(2))["eye"])
        assert "index: 0" in out

    def test_nilpotent_exits_two(self, write_matrices, capsys):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        for m in (nilpotent, np.block([[nilpotent, np.zeros((2, 2))],
                                       [np.zeros((2, 2)), np.diag([1.0, 2.0])]])):
            code, _, err = run(capsys, "ginv", write_matrices(nil=m)["nil"])
            assert code == 2
            assert "not of index 1" in err

    def test_fixture_inverse_matches_reference(self, write_matrices, capsys):
        out = succeeds(capsys, "ginv", fixture_files(write_matrices, "ex3.1", ("u",))["u"])
        assert "0.111111" in out  # the central entry of the reference inverse

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ginv", "/no/such/file.mtx")
        assert code == 1

    def test_directory_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "ginv", str(tmp_path))
        assert code == 1 and err.startswith("error:")

    def test_underscore_entry_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "grouped.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n1_0\n")
        code, out, err = run(capsys, "ginv", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 3: bad entry '1_0'\n"

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
        paths = fixture_files(write_matrices, "ex3.1", ("a", "u"))
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

    def test_decomposes_the_target_once(self, write_matrices, capsys, group_inverse_calls):
        paths = fixture_files(write_matrices, "ex3.1", ("a", "u"))
        succeeds(capsys, "classify", *paths.values())
        assert len(group_inverse_calls) == 1  # the identity residuals reuse it
        np.testing.assert_array_equal(
            group_inverse_calls[0], catalog.get_fixture("ex3.1").matrices["a"]
        )

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

    def test_improper_pair_exits_two(self, write_matrices, capsys):
        paths = write_matrices(a=np.diag([1.0, 0.0]), u=np.eye(2))
        code, _, err = run(capsys, "classify", *paths.values())
        assert code == 2


class TestSolve:
    def test_three_step_run(self, ex51_files, capsys, tmp_path):
        csv = tmp_path / "run.csv"
        out = succeeds(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
            "--csv", str(csv),
        )
        assert "3-step" in out and "true" in out
        text = csv.read_text()
        assert text.startswith("scheme,iterations,rho,final_error,elapsed_seconds,converged")
        row = text.splitlines()[1].split(",")
        assert float(row[3]) < 1e-4 and row[-1] == "true"  # final_error against A# b

    def test_csv_directory_is_usage_error(self, ex51_files, tmp_path, capsys):
        code, _, err = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"], ex51_files["u"],
            "--csv", str(tmp_path),
        )
        assert code == 1 and err.startswith("error:")

    def test_one_step_from_one_file(self, ex51_files, capsys):
        out = succeeds(
            capsys, "solve", ex51_files["a"], ex51_files["b"], ex51_files["u"], "--eps", "1e-8",
        )
        assert "1-step" in out

    def test_four_splitting_files_is_usage_error(self, ex51_files, capsys):
        code, _, err = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["k"], ex51_files["u"], ex51_files["x"], ex51_files["u"],
        )
        assert code == 1
        assert err == "error: a scheme takes one, two or three splittings\n"

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_eps_must_be_finite_and_positive(self, ex51_files, capsys, eps):
        code, out, err = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"], ex51_files["u"], "--eps", eps,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: eps must be a finite positive number")

    def test_preconditioned_solve_recovers_original_solution(
        self, write_matrices, capsys, monkeypatch
    ):
        # four-decimal fixture data needs the relaxed thresholds, supplied
        # through the environment exactly as a user would
        fx = catalog.get_fixture("ex5.3")
        monkeypatch.setenv("ALTITER_RANK_REL", str(fx.tol.rank_rel))
        monkeypatch.setenv("ALTITER_MAT_EQ_TOL", str(fx.tol.mat_eq_tol))
        paths = fixture_files(write_matrices, "ex5.3", ("a", "b", "q", "k", "u", "x"))
        out = succeeds(
            capsys, "solve", paths["a"], paths["b"],
            paths["k"], paths["u"], paths["x"],
            "--precondition", paths["q"],
        )
        assert "preconditioned" in out and "true" in out

    def test_decomposes_the_target_once(self, ex51_files, capsys, group_inverse_calls):
        succeeds(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
        )
        assert len(group_inverse_calls) == 1
        a = catalog.get_fixture("ex5.1").matrices["a"]
        np.testing.assert_array_equal(group_inverse_calls[0], a)

    def test_preconditioned_solve_decomposes_qa_and_a(
        self, write_matrices, capsys, monkeypatch, group_inverse_calls
    ):
        fx = catalog.get_fixture("ex5.4")
        monkeypatch.setenv("ALTITER_RANK_REL", str(fx.tol.rank_rel))
        monkeypatch.setenv("ALTITER_MAT_EQ_TOL", str(fx.tol.mat_eq_tol))
        paths = fixture_files(write_matrices, "ex5.4", ("a", "b", "q", "k_pre"))
        code, out, _ = run(
            capsys, "solve", paths["a"], paths["b"], paths["k_pre"],
            "--precondition", paths["q"],
        )
        assert code == 0 and "preconditioned" in out
        a, q = fx.matrices["a"], fx.matrices["q"]
        assert len(group_inverse_calls) == 2
        np.testing.assert_array_equal(group_inverse_calls[0], a)
        np.testing.assert_array_equal(group_inverse_calls[1], q @ a)

    def test_singular_preconditioner_exits_three(self, ex51_files, write_matrices, capsys):
        for q in (np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])):  # zero and rank 2
            code, _, err = run(
                capsys, "solve", ex51_files["a"], ex51_files["b"],
                ex51_files["u"], "--precondition", write_matrices(q=q)["q"],
            )
            assert code == 3
            assert err == "error: the preconditioner is singular\n"

    def test_custom_start_vector_flag(self, ex51_files, write_matrices, capsys):
        x0 = write_matrices(x0=np.array([[1.0], [2.0], [3.0]]))["x0"]
        code, out, _ = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
            "--x0", x0,
        )
        assert code == 0 and "true" in out

    def test_vectors_saved_as_1d_arrays(self, ex51_files, write_matrices, capsys):
        b, x0 = write_matrices(
            b_1d=np.ravel(catalog.get_fixture("ex5.1").matrices["b"]), x0=np.array([1.0, 2.0, 3.0])
        ).values()
        code, out, _ = run(
            capsys, "solve", ex51_files["a"], b,
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
            "--x0", x0,
        )
        assert code == 0 and "true" in out

    def test_divergent_fixture_reports_nonconvergence(self, ex41_files, capsys):
        out = succeeds(
            capsys, "solve", ex41_files["a"], ex41_files["b"],
            ex41_files["x"], ex41_files["u"], ex41_files["k"], "--max-iter", "100",
        )
        assert "false" in out

    def test_divergent_run_emits_no_warning(self, ex41_files, capsys):
        # the full 2000 iterations overflow, and so does the final error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(
                capsys, "solve", ex41_files["a"], ex41_files["b"],
                ex41_files["x"], ex41_files["u"], ex41_files["k"],
            )
        assert code == 0
        row = out.splitlines()[1].split()
        assert row[1] == "2000" and row[-1] == "false"


class TestCompare:
    def test_fixture_with_preconditioner(self, capsys):
        out = succeeds(capsys, "compare", "ex5.4")
        assert "0.3318" in out and "0.6993" in out and "holds" in out

    def test_fixture_decomposes_the_target_once(self, capsys, group_inverse_calls):
        succeeds(capsys, "compare", "ex5.1")
        assert len(group_inverse_calls) == 1
        np.testing.assert_array_equal(
            group_inverse_calls[0], catalog.get_fixture("ex5.1").matrices["a"]
        )

    def test_preconditioned_fixture_decomposes_a_and_qa(self, capsys, group_inverse_calls):
        succeeds(capsys, "compare", "ex5.4")
        fx = catalog.get_fixture("ex5.4")
        a, q = fx.matrices["a"], fx.matrices["q"]
        assert len(group_inverse_calls) == 2
        np.testing.assert_array_equal(group_inverse_calls[0], a)
        np.testing.assert_array_equal(group_inverse_calls[1], q @ a)

    def test_chain_fixture_decomposes_the_target_once(self, capsys, group_inverse_calls):
        out = succeeds(capsys, "compare", "ex5.5")
        assert out == "three-step vs two-step vs one-step: 0.1513 <= 0.3037 <= 0.5346 -> holds\n"
        assert len(group_inverse_calls) == 1
        np.testing.assert_array_equal(
            group_inverse_calls[0], catalog.get_fixture("ex5.5").matrices["a"]
        )

    def test_fixture_reads_environment_overrides(self, capsys, monkeypatch):
        # ex4.5's splittings miss G-regularity by at most 83.5 and its
        # composite radius exceeds the smallest single one by 0.52
        monkeypatch.setenv("ALTITER_NONNEG_TOL", "100")
        monkeypatch.setenv("ALTITER_REFVAL_TOL", "10")
        out = succeeds(capsys, "compare", "ex4.5")
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "conclusion: 1.7746 <= 1.2530 -> holds"

    @pytest.mark.parametrize("value", ["abc", "-1", "inf", "nan"])
    def test_bad_environment_override_is_usage_error(self, value, capsys, monkeypatch):
        monkeypatch.setenv("ALTITER_NONNEG_TOL", value)
        code, _, err = run(capsys, "compare", "ex4.5")
        assert code == 1 and err.startswith("error: ")
        assert "ALTITER_NONNEG_TOL" in err

    @pytest.mark.parametrize(
        ("name", "command"),
        [("ALTITER_TOL", "ginv"), ("ALTITER_NONEG_TOL", "compare")],
    )
    def test_variable_that_names_no_tolerance_is_usage_error(
        self, name, command, ex51_files, capsys, monkeypatch
    ):
        # a name that is no field and a misspelt field: either would otherwise be ignored
        monkeypatch.setenv(name, "100")
        argv = ["ginv", ex51_files["a"]] if command == "ginv" else ["compare", "ex4.5"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {name} names no tolerance; use one of ALTITER_RANK_REL,"
            " ALTITER_NONNEG_TOL, ALTITER_MAT_EQ_TOL, ALTITER_REFVAL_TOL\n"
        )

    def test_fixture_with_files_is_usage_error(self, ex51_files, capsys):
        code, _, err = run(capsys, "compare", "ex5.1", "--matrix", ex51_files["a"])
        assert code == 1 and "not both" in err

    def test_fixture_with_failed_hypotheses(self, capsys):
        out = succeeds(capsys, "compare", "ex4.5")
        assert "FAIL" in out and "fails" in out

    def test_chain_fixture(self, capsys):
        out = succeeds(capsys, "compare", "ex5.5")
        # quoted chain is 0.1513 <= 0.3038 <= 0.5346; the middle radius
        # computes to 0.30374 and may print as its four-decimal floor
        assert "0.1513 <= 0.303" in out and "<= 0.5346" in out
        assert "holds" in out

    def test_path_mode(self, write_matrices, capsys, group_inverse_calls):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        paths = write_matrices(
            a=a, first=np.array([[2.0, 0.0], [-1.0, 2.0]]), second=np.diag([2.0, 2.0])
        )
        out = succeeds(
            capsys, "compare", "--matrix", paths["a"],
            "--first", paths["first"], "--second", paths["second"],
        )
        assert "0.2500 <= 0.5000" in out
        assert len(group_inverse_calls) == 1
        np.testing.assert_array_equal(group_inverse_calls[0], a)

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "ex9.9")
        assert code == 1

    def test_unknown_fixture_message_has_no_repr_quotes(self, capsys):
        code, _, err = run(capsys, "compare", "nope")
        assert code == 1
        assert err == (
            "error: unknown fixture 'nope'; available: "
            + ", ".join(catalog.fixture_ids()) + "\n"
        )

    def test_missing_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare")
        assert code == 1

    def test_fixture_without_comparison_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "ex3.1")
        assert (code, err) == (1, "error: fixture 'ex3.1' has no comparison defined\n")


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

    def test_usage_error_for_bad_flag(self, capsys):
        code, _, err = run(capsys, "bench", "--n", "not-a-number")
        assert code == 1

    @pytest.mark.parametrize("flag, value, message", (
        ("--n", "1", "n must be at least 2"),
        ("--trials", "-1", "trials must be nonnegative"),
    ))
    def test_out_of_range_argument_is_usage_error(self, flag, value, message, capsys):
        code, _, err = run(capsys, "bench", flag, value)
        assert (code, err) == (1, f"error: {message}\n")

    def test_out_directory_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "bench", "--n", "4", "--trials", "1", "--out", str(tmp_path))
        assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", ("ginv", "classify", "solve", "compare"))
def test_empty_matrix_is_usage_error(command, write_matrices, capsys):
    empty, rhs = write_matrices(empty=np.zeros((0, 0)), rhs=np.zeros((0, 1))).values()
    argv = {
        "ginv": [empty],
        "classify": [empty, empty],
        "solve": [empty, rhs, empty],
        "compare": ["--matrix", empty, "--first", empty, "--second", empty],
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 1
    assert err == "error: the matrix is empty\n"


@pytest.mark.parametrize(
    "command, a, u",
    # finite, valid inputs whose H = 1e400 (solve) or U#V = -1e310 overflows
    (("solve", 1.0, 1e-200), ("classify", 1e10, 1e-300), ("compare", 1e10, 1e-300)),
)
def test_overflowing_product_exits_three(command, a, u, write_matrices, capsys):
    a_path, u_path = write_matrices(a=[[a]], u=[[u]]).values()
    argv = {
        "solve": [a_path, a_path, u_path, u_path],
        "classify": [a_path, u_path],
        "compare": ["--matrix", a_path, "--first", u_path, "--second", u_path],
    }[command]
    code, _, err = run(capsys, command, *argv)
    product = "I - U#V" if command == "classify" else "the iteration matrix H"
    assert code == 3
    assert err == f"error: {product} overflowed\n"


def test_overflowing_preconditioned_rhs_exits_three(write_matrices, capsys):
    # A = [[1]] and Q = [[4]] are valid, but Q b = 4e308 overflows
    a, b, q = write_matrices(a=[[1.0]], b=[[1e308]], q=[[4.0]]).values()
    code, out, err = run(capsys, "solve", a, b, q, "--precondition", q)
    assert (code, out) == (3, "")
    assert err == "error: the right-hand side Q b overflowed\n"


EX54 = catalog.get_fixture("ex5.4").matrices


@pytest.mark.parametrize(
    "matrices, argv, product",
    (
        # A# of 2^-1025 A is 2^1025 A#
        ({"a": np.ldexp(EX54["a"], -1025)}, ("ginv", "a"), "A#"),
        # every part is finite, but QA = 2^1022 (QA) is not
        (
            {key: np.ldexp(EX54[key], 511) for key in ("a", "b", "q", "k_pre")},
            ("solve", "a", "b", "k_pre", "--precondition", "q"),
            "QA",
        ),
        # H = 1/2 and the sweeps diverge quietly, but A# b = 1e310
        (
            {"a": [[1e-300]], "b": [[1e10]], "u": [[2e-300]]},
            ("solve", "a", "b", "u"),
            "the group-inverse solution A# b",
        ),
    ),
    ids=("ginv", "solve-precondition", "solve"),
)
def test_overflowing_product_is_named(matrices, argv, product, write_matrices, capsys):
    paths = write_matrices(**matrices)
    argv = [paths.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {product} overflowed\n"


def test_dominance_read_past_overflow_is_reported(write_matrices, capsys):
    # U1# - U2# = 2 / 5.6e-309 overflows to +inf, which is read only for its sign
    a, u1, u2 = write_matrices(a=[[1.0]], u1=[[5.6e-309]], u2=[[-5.6e-309]]).values()
    code, out, err = run(capsys, "compare", "--matrix", a, "--first", u1, "--second", u2)
    assert (code, err) == (0, "")
    assert "  [ok ] first inverse dominates second (violation 0.000e+00)\n" in out


def test_overflowing_classify_prints_nothing(write_matrices, capsys):
    # the splitting classifies, but its identity residuals overflow
    paths = write_matrices(a=[[1e10]], u=[[1e-300]])
    code, out, _ = run(capsys, "classify", *paths.values())
    assert (code, out) == (3, "")


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def _without_seconds(out: str) -> str:
    """Solve output with the timing column of its report row blanked."""
    lines = out.splitlines()
    if lines and lines[0].startswith("scheme"):
        row = lines[1].split()
        lines[1] = " ".join(row[:-2] + row[-1:])
    return "\n".join(lines)


def test_repeated_calls_in_one_process_match_fresh_ones(ex51_files, write_matrices, capsys):
    eye = write_matrices(eye=np.eye(2))["eye"]
    solve = ("solve", ex51_files["a"], ex51_files["b"],
             ex51_files["k"], ex51_files["u"], ex51_files["x"])
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
