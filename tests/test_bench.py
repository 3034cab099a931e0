import numpy as np
import pytest

import altiter
from altiter import bench, cli
from altiter.alternating import (
    IterationConfig,
    Scheme,
    iterate,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.bench import SCHEME_LABELS, run_bench
from altiter.catalog import ROUNDED_TOL
from conftest import bench_scheme


def test_one_decomposition_per_trial(group_inverse_calls):
    reports = run_bench(n=6, seed=0, trials=2)
    assert len(reports) == 6
    assert len(group_inverse_calls) == 2
    assert not np.array_equal(group_inverse_calls[0], group_inverse_calls[1])


def test_a_trial_forms_no_group_inverse_of_its_target():
    # the calls of one run_bench trial; A# would be cached in the target's __dict__
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    inst = random_group_monotone(20, 19, rng)
    splittings = [random_g_regular_splitting(inst, rng) for _ in range(3)]
    b = rng.uniform(-1.0, 1.0, 20)
    for steps in range(1, len(SCHEME_LABELS) + 1):
        scheme = Scheme(splittings=tuple(splittings[:steps]))
        iterate(scheme, b, IterationConfig())
        assert scheme.rho < 1.0
    assert "ginv" not in vars(inst.target)


def test_splittings_carry_the_bench_tolerances(monkeypatch):
    schemes, real_iterate = [], bench.iterate

    def recording_iterate(scheme, b, cfg):
        schemes.append(scheme)
        return real_iterate(scheme, b, cfg)

    monkeypatch.setattr(bench, "iterate", recording_iterate)
    run_bench(n=6, seed=0, trials=2, tol=ROUNDED_TOL)
    assert len(schemes) == 6
    assert all(s.target.tol == ROUNDED_TOL for scheme in schemes for s in scheme.splittings)


def test_every_exported_generator_is_drawn_by_the_harness():
    # generators that serve only tests live in tests/conftest.py
    generators = [name for name in altiter.__all__ if name.startswith("random_")]
    assert generators
    assert [name for name in generators if not hasattr(bench, name)] == []


# The LAPACK calls per op that the traced bench-n128, rhs-n400 and
# cli-solve-n128 workloads report, so that an extra decomposition fails here.


@pytest.mark.parametrize("n", (20, 128))
def test_a_trial_makes_one_svd_four_eigvals_five_solves(n, lapack_calls):
    # one SVD of the instance; eigvals for its shift and each scheme's rho;
    # solves for the inverses of its core, of Q and of each splitting's P1
    run_bench(n=n, seed=n, trials=1)
    assert lapack_calls == {"svd": 1, "eigvals": 4, "solve": 5}


@pytest.mark.parametrize("n", (20, 128))
def test_iterate_makes_no_lapack_call(n, lapack_calls):
    _, scheme, b = bench_scheme(n, n)
    lapack_calls.clear()
    assert iterate(scheme, b).converged
    assert lapack_calls == {}


def test_cli_solve_makes_one_svd_one_eigvals_five_solves(write_matrices, capsys, lapack_calls):
    # one SVD of A; eigvals for rho(H); solves for the inverses of Q, of
    # each P1 and of the core of A, which the reference A# b forms
    inst, scheme, b = bench_scheme(20, 0)
    parts = {f"u{k}": s.u for k, s in enumerate(scheme.splittings, 1)}
    paths = write_matrices(a=inst.a, b=b.reshape(-1, 1), **parts)
    lapack_calls.clear()
    assert cli.main(["solve", *paths.values()]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "true"  # converged
    assert lapack_calls == {"svd": 1, "eigvals": 1, "solve": 5}
