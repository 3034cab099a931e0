import warnings

import numpy as np
import pytest

from altiter import catalog
from altiter.bench import CSV_COLUMNS
from altiter.cli import build_parser, main
from altiter.mmio import save_matrix


@pytest.fixture
def ex51_files(tmp_path):
    fx = catalog.get_fixture("ex5.1")
    paths = {}
    for key in ("a", "b", "k", "u", "x"):
        path = tmp_path / f"ex51_{key}.mtx"
        save_matrix(path, fx.matrices[key])
        paths[key] = str(path)
    return paths


@pytest.fixture
def ex41_files(tmp_path):
    fx = catalog.get_fixture("ex4.1")
    paths = {}
    for key in ("a", "b", "k", "u", "x"):
        path = tmp_path / f"ex41_{key}.mtx"
        save_matrix(path, fx.matrices[key])
        paths[key] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGinv:
    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "eye.mtx"
        save_matrix(path, np.eye(2))
        code, out, _ = run(capsys, "ginv", str(path))
        assert code == 0
        assert "index: 0" in out

    def test_nilpotent_exits_two(self, tmp_path, capsys):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        path = tmp_path / "nil.mtx"
        for m in (nilpotent, np.block([[nilpotent, np.zeros((2, 2))],
                                       [np.zeros((2, 2)), np.diag([1.0, 2.0])]])):
            save_matrix(path, m)
            code, _, err = run(capsys, "ginv", str(path))
            assert code == 2
            assert "not of index 1" in err

    def test_fixture_inverse_matches_reference(self, tmp_path, capsys):
        fx = catalog.get_fixture("ex3.1")
        path = tmp_path / "u.mtx"
        save_matrix(path, fx.matrices["u"])
        code, out, _ = run(capsys, "ginv", str(path))
        assert code == 0
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

    def test_lapack_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        path = tmp_path / "eye.mtx"
        save_matrix(path, np.eye(2))
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        code, _, err = run(capsys, "ginv", str(path))
        assert code == 3
        assert err.startswith("error:") and "SVD did not converge" in err

    @pytest.mark.parametrize("m", [
        np.diag([1e308, 0.0]),
        np.array([[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1e308]]),
    ])
    def test_entries_near_overflow(self, m, tmp_path, capsys):
        path = tmp_path / "big.mtx"
        save_matrix(path, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "ginv", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index: 1"
        residuals = [float(tok) for tok in lines[-1].split()[3::2]]
        assert len(residuals) == 3
        assert all(np.isfinite(r) and r < 1e-12 for r in residuals)


class TestClassify:
    def test_weak_regular_not_regular(self, tmp_path, capsys):
        fx = catalog.get_fixture("ex3.1")
        pa, pu = tmp_path / "a.mtx", tmp_path / "u.mtx"
        save_matrix(pa, fx.matrices["a"])
        save_matrix(pu, fx.matrices["u"])
        code, out, _ = run(capsys, "classify", str(pa), str(pu))
        assert code == 0
        assert "G-weak-regular" in out
        assert "G-regular," not in out and not out.strip().endswith("G-regular")

    @pytest.mark.parametrize("m", [
        # Q^-1 A Q would overflow unless A is scaled first
        1e308 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        # just below 2^512, A is not scaled, and only the norm of Q^-1 A Q would overflow
        np.diag([1.3e154, 1.3e154, 0.0]),
    ])
    def test_entries_near_overflow(self, m, tmp_path, capsys):
        path = tmp_path / "big.mtx"
        save_matrix(path, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "classify", str(path), str(path))
        assert code == 0
        assert out.startswith("classes: ") and "proper" in out.splitlines()[0]
        assert "inf" not in out and "nan" not in out

    def test_decomposes_the_target_once(self, tmp_path, capsys, group_inverse_calls):
        fx = catalog.get_fixture("ex3.1")
        pa, pu = tmp_path / "a.mtx", tmp_path / "u.mtx"
        save_matrix(pa, fx.matrices["a"])
        save_matrix(pu, fx.matrices["u"])
        code, _, _ = run(capsys, "classify", str(pa), str(pu))
        assert code == 0
        assert len(group_inverse_calls) == 1  # the identity residuals reuse it
        np.testing.assert_array_equal(group_inverse_calls[0], fx.matrices["a"])

    def test_regular_with_rounded_product_is_weak_regular(self, tmp_path, capsys):
        # V >= -5e-11 passes nonneg_tol, but U#V = [[0, -5e-9], [0, 0]] does
        # not: the classes and both class hypotheses of compare still agree
        pa, pu = tmp_path / "a.mtx", tmp_path / "u.mtx"
        save_matrix(pa, np.array([[0.01, 5e-11], [0.0, 1.0]]))
        save_matrix(pu, np.diag([0.01, 1.0]))
        code, out, _ = run(capsys, "classify", str(pa), str(pu))
        assert code == 0
        assert out.splitlines()[0] == "classes: G-regular, G-weak-regular, proper"
        code, out, _ = run(
            capsys, "compare", "--matrix", str(pa), "--first", str(pu), "--second", str(pu)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "  [ok ] first splitting G-weak regular (violation 5.000e-11)"
        assert lines[2] == "  [ok ] second splitting G-regular (violation 5.000e-11)"

    def test_zero_matrices(self, tmp_path, capsys):
        path = tmp_path / "zero.mtx"
        save_matrix(path, np.zeros((3, 3)))
        code, out, _ = run(capsys, "classify", str(path), str(path))
        assert code == 0
        assert out.splitlines()[0] == "classes: G-regular, G-weak-regular, proper"

    def test_improper_pair_exits_two(self, tmp_path, capsys):
        pa, pu = tmp_path / "a.mtx", tmp_path / "u.mtx"
        save_matrix(pa, np.diag([1.0, 0.0]))
        save_matrix(pu, np.eye(2))
        code, _, err = run(capsys, "classify", str(pa), str(pu))
        assert code == 2


class TestSolve:
    def test_three_step_run(self, ex51_files, capsys, tmp_path):
        csv = tmp_path / "run.csv"
        code, out, _ = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
            "--csv", str(csv),
        )
        assert code == 0
        assert "3-step" in out and "true" in out
        text = csv.read_text()
        assert text.startswith("scheme,iterations,rho,final_error,elapsed_seconds,converged")
        assert "true" in text.splitlines()[1]

    def test_csv_directory_is_usage_error(self, ex51_files, tmp_path, capsys):
        code, _, err = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"], ex51_files["u"],
            "--csv", str(tmp_path),
        )
        assert code == 1 and err.startswith("error:")

    def test_one_step_from_one_file(self, ex51_files, capsys):
        code, out, _ = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"], ex51_files["u"], "--eps", "1e-8",
        )
        assert code == 0
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
        self, tmp_path, capsys, monkeypatch
    ):
        # four-decimal fixture data needs the relaxed thresholds, supplied
        # through the environment exactly as a user would
        fx = catalog.get_fixture("ex5.3")
        monkeypatch.setenv("ALTITER_RANK_REL", str(fx.tol.rank_rel))
        monkeypatch.setenv("ALTITER_SUBSPACE_TOL", str(fx.tol.subspace_tol))
        monkeypatch.setenv("ALTITER_MAT_EQ_TOL", str(fx.tol.mat_eq_tol))
        paths = {}
        for key in ("a", "b", "q", "k", "u", "x"):
            path = tmp_path / f"{key}.mtx"
            save_matrix(path, fx.matrices[key])
            paths[key] = str(path)
        code, out, _ = run(
            capsys, "solve", paths["a"], paths["b"],
            paths["k"], paths["u"], paths["x"],
            "--precondition", paths["q"],
        )
        assert code == 0
        assert "preconditioned" in out and "true" in out

    def test_decomposes_the_target_once(self, ex51_files, capsys, group_inverse_calls):
        code, _, _ = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
        )
        assert code == 0
        assert len(group_inverse_calls) == 1
        a = catalog.get_fixture("ex5.1").matrices["a"]
        np.testing.assert_array_equal(group_inverse_calls[0], a)

    def test_preconditioned_solve_decomposes_qa_and_a(
        self, tmp_path, capsys, monkeypatch, group_inverse_calls
    ):
        fx = catalog.get_fixture("ex5.4")
        monkeypatch.setenv("ALTITER_RANK_REL", str(fx.tol.rank_rel))
        monkeypatch.setenv("ALTITER_SUBSPACE_TOL", str(fx.tol.subspace_tol))
        monkeypatch.setenv("ALTITER_MAT_EQ_TOL", str(fx.tol.mat_eq_tol))
        paths = {}
        for key in ("a", "b", "q", "k_pre"):
            path = tmp_path / f"{key}.mtx"
            save_matrix(path, fx.matrices[key])
            paths[key] = str(path)
        code, out, _ = run(
            capsys, "solve", paths["a"], paths["b"], paths["k_pre"],
            "--precondition", paths["q"],
        )
        assert code == 0 and "preconditioned" in out
        a, q = fx.matrices["a"], fx.matrices["q"]
        assert len(group_inverse_calls) == 2
        np.testing.assert_array_equal(group_inverse_calls[0], a)
        np.testing.assert_array_equal(group_inverse_calls[1], q @ a)

    def test_singular_preconditioner_exits_three(self, ex51_files, tmp_path, capsys):
        bad_q = tmp_path / "q.mtx"
        for q in (np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])):  # zero and rank 2
            save_matrix(bad_q, q)
            code, _, err = run(
                capsys, "solve", ex51_files["a"], ex51_files["b"],
                ex51_files["u"], "--precondition", str(bad_q),
            )
            assert code == 3
            assert err == "error: the preconditioner is singular\n"

    def test_custom_start_vector_flag(self, ex51_files, tmp_path, capsys):
        x0 = tmp_path / "x0.mtx"
        save_matrix(x0, np.array([[1.0], [2.0], [3.0]]))
        code, out, _ = run(
            capsys, "solve", ex51_files["a"], ex51_files["b"],
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
            "--x0", str(x0),
        )
        assert code == 0 and "true" in out

    def test_vectors_saved_as_1d_arrays(self, ex51_files, tmp_path, capsys):
        b, x0 = tmp_path / "b.mtx", tmp_path / "x0.mtx"
        save_matrix(b, np.ravel(catalog.get_fixture("ex5.1").matrices["b"]))
        save_matrix(x0, np.array([1.0, 2.0, 3.0]))
        code, out, _ = run(
            capsys, "solve", ex51_files["a"], str(b),
            ex51_files["x"], ex51_files["u"], ex51_files["k"],
            "--x0", str(x0),
        )
        assert code == 0 and "true" in out

    def test_divergent_fixture_reports_nonconvergence(self, ex41_files, capsys):
        code, out, _ = run(
            capsys, "solve", ex41_files["a"], ex41_files["b"],
            ex41_files["x"], ex41_files["u"], ex41_files["k"], "--max-iter", "100",
        )
        assert code == 0
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
        code, out, _ = run(capsys, "compare", "ex5.4")
        assert code == 0
        assert "0.3318" in out and "0.6993" in out and "holds" in out

    def test_fixture_decomposes_the_target_once(self, capsys, group_inverse_calls):
        code, _, _ = run(capsys, "compare", "ex5.1")
        assert code == 0
        assert len(group_inverse_calls) == 1
        np.testing.assert_array_equal(
            group_inverse_calls[0], catalog.get_fixture("ex5.1").matrices["a"]
        )

    def test_preconditioned_fixture_decomposes_a_and_qa(self, capsys, group_inverse_calls):
        code, _, _ = run(capsys, "compare", "ex5.4")
        assert code == 0
        fx = catalog.get_fixture("ex5.4")
        a, q = fx.matrices["a"], fx.matrices["q"]
        assert len(group_inverse_calls) == 2
        np.testing.assert_array_equal(group_inverse_calls[0], a)
        np.testing.assert_array_equal(group_inverse_calls[1], q @ a)

    def test_chain_fixture_decomposes_the_target_once(self, capsys, group_inverse_calls):
        code, out, _ = run(capsys, "compare", "ex5.5")
        assert code == 0
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
        code, out, _ = run(capsys, "compare", "ex4.5")
        assert code == 0
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "conclusion: 1.7746 <= 1.2530 -> holds"

    @pytest.mark.parametrize("value", ["abc", "-1", "inf", "nan"])
    def test_bad_environment_override_is_usage_error(self, value, capsys, monkeypatch):
        monkeypatch.setenv("ALTITER_NONNEG_TOL", value)
        code, _, err = run(capsys, "compare", "ex4.5")
        assert code == 1 and err.startswith("error: ")
        assert "ALTITER_NONNEG_TOL" in err

    def test_fixture_with_files_is_usage_error(self, ex51_files, capsys):
        code, _, err = run(capsys, "compare", "ex5.1", "--matrix", ex51_files["a"])
        assert code == 1 and "not both" in err

    def test_fixture_with_failed_hypotheses(self, capsys):
        code, out, _ = run(capsys, "compare", "ex4.5")
        assert code == 0
        assert "FAIL" in out and "fails" in out

    def test_chain_fixture(self, capsys):
        code, out, _ = run(capsys, "compare", "ex5.5")
        assert code == 0
        # quoted chain is 0.1513 <= 0.3038 <= 0.5346; the middle radius
        # computes to 0.30374 and may print as its four-decimal floor
        assert "0.1513 <= 0.303" in out and "<= 0.5346" in out
        assert "holds" in out

    def test_path_mode(self, tmp_path, capsys, group_inverse_calls):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        paths = {}
        for key, m in (("a", a), ("first", np.array([[2.0, 0.0], [-1.0, 2.0]])),
                       ("second", np.diag([2.0, 2.0]))):
            path = tmp_path / f"{key}.mtx"
            save_matrix(path, m)
            paths[key] = str(path)
        code, out, _ = run(
            capsys, "compare", "--matrix", paths["a"],
            "--first", paths["first"], "--second", paths["second"],
        )
        assert code == 0
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


class TestBench:
    def test_zero_trials_writes_header_only(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--n", "4", "--trials", "0",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines == ["n,seed,scheme,rho,iterations,elapsed_seconds,final_error,converged"]

    def test_without_out_writes_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "3", "--trials", "1")
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
def test_empty_matrix_is_usage_error(command, tmp_path, capsys):
    empty, rhs = tmp_path / "empty.mtx", tmp_path / "rhs.mtx"
    save_matrix(empty, np.zeros((0, 0)))
    save_matrix(rhs, np.zeros((0, 1)))
    argv = {
        "ginv": [empty],
        "classify": [empty, empty],
        "solve": [empty, rhs, empty],
        "compare": ["--matrix", empty, "--first", empty, "--second", empty],
    }[command]
    code, _, err = run(capsys, command, *map(str, argv))
    assert code == 1
    assert err == "error: the matrix is empty\n"


@pytest.mark.parametrize(
    "command, a, u",
    # finite, valid inputs whose H = 1e400 (solve) or U#V = -1e310 overflows
    (("solve", 1.0, 1e-200), ("classify", 1e10, 1e-300), ("compare", 1e10, 1e-300)),
)
def test_overflowing_product_exits_three(command, a, u, tmp_path, capsys):
    a_path, u_path = tmp_path / "a.mtx", tmp_path / "u.mtx"
    save_matrix(a_path, [[a]])
    save_matrix(u_path, [[u]])
    a_path, u_path = str(a_path), str(u_path)
    argv = {
        "solve": [a_path, a_path, u_path, u_path],
        "classify": [a_path, u_path],
        "compare": ["--matrix", a_path, "--first", u_path, "--second", u_path],
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 3
    assert err.startswith("error: overflow encountered in ")
    assert err.count("\n") == 1


def test_overflowing_preconditioned_rhs_exits_three(tmp_path, capsys):
    # A = [[1]] and Q = [[4]] are valid, but Q b = 4e308 overflows
    paths = {key: tmp_path / f"{key}.mtx" for key in ("a", "b", "q")}
    for key, m in (("a", [[1.0]]), ("b", [[1e308]]), ("q", [[4.0]])):
        save_matrix(paths[key], m)
    a, b, q = (str(paths[key]) for key in ("a", "b", "q"))
    code, out, err = run(capsys, "solve", a, b, q, "--precondition", q)
    assert (code, out) == (3, "")
    assert err == "error: overflow encountered in matmul: the right-hand side Q b overflowed\n"


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
def test_overflowing_product_is_named(matrices, argv, product, tmp_path, capsys):
    for key, m in matrices.items():
        save_matrix(tmp_path / f"{key}.mtx", m)
    argv = [str(tmp_path / f"{arg}.mtx") if arg in matrices else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: overflow encountered in matmul: {product} overflowed\n"


def test_dominance_read_past_overflow_is_reported(tmp_path, capsys):
    # U1# - U2# = 2 / 5.6e-309 overflows to +inf, which is read only for its sign
    paths = {key: tmp_path / f"{key}.mtx" for key in ("a", "u1", "u2")}
    for key, m in (("a", [[1.0]]), ("u1", [[5.6e-309]]), ("u2", [[-5.6e-309]])):
        save_matrix(paths[key], m)
    a, u1, u2 = (str(paths[key]) for key in ("a", "u1", "u2"))
    code, out, err = run(capsys, "compare", "--matrix", a, "--first", u1, "--second", u2)
    assert (code, err) == (0, "")
    assert "  [ok ] first inverse dominates second (violation 0.000e+00)\n" in out


def test_overflowing_classify_prints_nothing(tmp_path, capsys):
    # the splitting classifies, but its identity residuals overflow
    a_path, u_path = tmp_path / "a.mtx", tmp_path / "u.mtx"
    save_matrix(a_path, [[1e10]])
    save_matrix(u_path, [[1e-300]])
    code, out, _ = run(capsys, "classify", str(a_path), str(u_path))
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


def test_repeated_calls_in_one_process_match_fresh_ones(ex51_files, tmp_path, capsys):
    eye = tmp_path / "eye.mtx"
    save_matrix(eye, np.eye(2))
    solve = ("solve", ex51_files["a"], ex51_files["b"],
             ex51_files["k"], ex51_files["u"], ex51_files["x"])
    calls = [
        ("ginv", str(eye)),
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
