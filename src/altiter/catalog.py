"""Built-in reference problems with known splitting behavior.

Each fixture bundles a coefficient matrix, the splitting parts exercised
on it, and the quantities the library is expected to reproduce.  All
quoted scalars and reference matrices carry four decimal places.  Some
fixtures quote the splitting parts themselves at four decimals (their
exact counterparts are not recoverable); those validate and classify
under relaxed tolerances, recorded per fixture, and their scalars carry
a wider slack of 5e-3 instead of 1e-3.

``scheme_order`` lists the splitting keys in application order; it is
the order under which the quoted composite radius is reproduced.  For
the preconditioned fixture the splittings target q @ a and the solver
must apply q to the right-hand side, which ``build_scheme`` arranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .alternating import Scheme
from .ginverse import group_inverse
from .kernel import DEFAULT_TOL, Tolerances
from .splittings import Splitting, make_splitting

#: thresholds for fixtures whose splitting parts are quoted at four decimals
ROUNDED_TOL = Tolerances(
    rank_rel=1e-5,
    subspace_tol=1e-4,
    nonneg_tol=1e-8,
    mat_eq_tol=1e-4,
    refval_tol=5e-3,
)


@dataclass(frozen=True)
class Expected:
    """One scalar the fixture is expected to reproduce."""

    value: float
    tol: float
    note: str


@dataclass(frozen=True)
class Fixture:
    fixture_id: str
    description: str
    matrices: Mapping[str, np.ndarray]
    expected: Mapping[str, Expected]
    tol: Tolerances = DEFAULT_TOL
    scheme_order: tuple[str, ...] = ()
    preconditioned: bool = False

    def target(self) -> np.ndarray:
        """The matrix the fixture's splittings split (q @ a when preconditioned)."""
        if self.preconditioned:
            return self.matrices["q"] @ self.matrices["a"]
        return self.matrices["a"]


def _m(rows) -> np.ndarray:
    out = np.array(rows, dtype=float)
    out.setflags(write=False)
    return out


_FIXTURES: dict[str, Fixture] = {}


def _register(fx: Fixture) -> None:
    _FIXTURES[fx.fixture_id] = fx


# -- ex3.1: G-weak regular but not G-regular ---------------------------------

_register(Fixture(
    fixture_id="ex3.1",
    description="3x3 singular symmetric matrix with one splitting that is "
                "proper G-weak regular but not G-regular (V has negative entries).",
    matrices={
        "a": _m([[1, -1, 3], [-1, 10, -3], [3, -3, 9]]),
        "u": _m([[2, -1, 6], [-2, 10, -6], [6, -3, 18]]),
        "u_ginv_ref": _m([[0.0056, 0.0056, 0.0167],
                          [0.0112, 0.1111, 0.0335],
                          [0.0167, 0.0167, 0.05]]),
    },
    expected={},
    scheme_order=("u",),
))

# -- ex4.1: three individually convergent splittings, divergent composite ----

_register(Fixture(
    fixture_id="ex4.1",
    description="Three proper splittings each with radius below one whose "
                "three-step composite diverges.  b is a convention for solver "
                "runs; the quoted radii do not involve it.",
    matrices={
        "a": _m([[4, 4, 10], [7, -29, 31], [-1, 11, -7]]),
        "b": _m([[1], [1], [1]]),
        "k": _m([[17.6, 0.8, 50.3], [-41.2, -41.8, -102.775], [19.6, 14.2, 51.025]]),
        "u": _m([[2.4, 15.2, 1.2], [18.6, -31, 65.1], [-5.4, 15.4, -21.3]]),
        "x": _m([[5.6, 2.4, 15.2], [-91, -111, -220], [32.2, 37.8, 78.4]]),
    },
    expected={
        "rho_k": Expected(0.6835, 1e-3, "radius of the k-splitting factor"),
        "rho_u": Expected(0.5957, 1e-3, "radius of the u-splitting factor"),
        "rho_x": Expected(0.8452, 1e-3, "radius of the x-splitting factor"),
        "rho_h": Expected(1.3579, 1e-3, "radius of the three-step composite"),
    },
    scheme_order=("x", "u", "k"),
))

# -- ex4.2: convergent composite without G-weak regularity -------------------

_register(Fixture(
    fixture_id="ex4.2",
    description="Three proper splittings, none G-weak regular (each U# >= 0 "
                "but U#V has negative entries), yet the composite converges. "
                "Splitting parts quoted at four decimals.",
    matrices={
        "a": _m([[-11, 4, 15], [12, 2, 9], [23, -2, -6]]),
        "k": _m([[-33.5, 20, 76.8429], [62, 10, 45.1714], [95.5, -10, -31.6714]]),
        "u": _m([[-58, 53, 206.271], [41, -26, -100.114], [99, -79, -306.386]]),
        "x": _m([[-53, 39.5, 152.893], [61, -24, -90.4286], [114, -63.5, -243.321]]),
    },
    expected={
        "rho_h": Expected(0.4938, 5e-3, "radius of the three-step composite"),
    },
    tol=ROUNDED_TOL,
    scheme_order=("x", "u", "k"),
))

# -- ex4.3: the composite induces a G-weak regular splitting -----------------

_register(Fixture(
    fixture_id="ex4.3",
    description="Symmetric group-monotone matrix with three scalar-multiple "
                "splittings; the three-step composite induces the quoted "
                "splitting matrix B.",
    matrices={
        "a": _m([[9, -3, 6], [-3, 5, -2], [6, -2, 4]]),
        "k": _m([[9.9, -3.3, 6.6], [-3.3, 5.5, -2.2], [6.6, -2.2, 4.4]]),
        "u": _m([[13.5, -4.5, 9], [-4.5, 7.5, -3], [9, -3, 6]]),
        "x": _m([[12.6, -4.2, 8.4], [-4.2, 7, -2.8], [8.4, -2.8, 5.6]]),
        "a_ginv_ref": _m([[0.0666, 0.0577, 0.0444],
                          [0.0577, 0.2500, 0.0385],
                          [0.0444, 0.0385, 0.0296]]),
        "induced_ref": _m([[9.0786, -3.0262, 6.0524],
                           [-3.0262, 5.0437, -2.0175],
                           [6.0524, -2.0175, 4.0349]]),
    },
    expected={},
    scheme_order=("k", "u", "x"),
))

# -- ex4.4: convergent composite although no splitting is G-regular ----------

_register(Fixture(
    fixture_id="ex4.4",
    description="Three proper splittings that are not G-regular (U# and V "
                "both carry negative entries) with a convergent composite.",
    matrices={
        "a": _m([[-1, 0, -3], [0, 1, 2], [0, 2, 4]]),
        "k": _m([[-2, 0, -6], [0, 1, 2], [0, 2, 4]]),
        "u": _m([[-3, 0, -9], [0, 1, 2], [0, 2, 4]]),
        "x": _m([[-4, 0, -12], [0, 1, 2], [0, 2, 4]]),
    },
    expected={
        "rho_h": Expected(0.25, 1e-3, "radius of the three-step composite"),
    },
    scheme_order=("k", "u", "x"),
))

# -- ex4.5: G-regularity cannot be dropped from the comparison ---------------

_register(Fixture(
    fixture_id="ex4.5",
    description="Group-monotone matrix with three proper splittings that are "
                "not G-regular; the composite radius exceeds every individual "
                "radius.  Splitting parts quoted at four decimals.",
    matrices={
        "a": _m([[25, -6, 1], [-7, 4, 0], [4, 6, 1]]),
        "k": _m([[-8.75, 30.5, 3.0776], [8.25, -15.5, -1.3017], [16, -16, -0.8276]]),
        "u": _m([[-17.75, 43, 3.9655], [14.25, -19, -1.3103], [25, -14, 0.0345]]),
        "x": _m([[-58.5, 64.75, 3.7802], [24.5, -11.75, 0.2716], [15, 29.5, 4.5948]]),
        "a_ginv_ref": _m([[0.0428, 0.0200, 0.0054],
                          [0.0539, 0.2218, 0.0305],
                          [0.2044, 0.6854, 0.0968]]),
    },
    expected={
        "rho_k": Expected(1.2987, 5e-3, "radius of the k-splitting factor"),
        "rho_u": Expected(1.2530, 5e-3, "radius of the u-splitting factor"),
        "rho_x": Expected(1.2975, 5e-3, "radius of the x-splitting factor"),
        "rho_h": Expected(1.7746, 5e-3, "radius of the three-step composite"),
    },
    tol=ROUNDED_TOL,
    scheme_order=("x", "u", "k"),
))

# -- ex5.1: the showcase solve ------------------------------------------------

_EX51_A = _m([[3, 1, 2], [1, -12, 13], [2, 13, -11]])
# The k and x splitting parts reproduce the quoted four-decimal values
# exactly when built from these rational remainders.
_EX51_L = _m([[21, 18, 3], [7, 6, 1], [14, 12, 2]]) / 12.0
_EX51_Y = _m([[53, 47, 6], [30, 28, 2], [23, 19, 4]]) / 24.0

_register(Fixture(
    fixture_id="ex5.1",
    description="Singular symmetric system with three proper G-weak regular "
                "(indeed G-regular) splittings; the three-step composite "
                "converges an order of magnitude faster than any single one.",
    matrices={
        "a": _EX51_A,
        "b": _m([[1], [1], [0]]),
        "k": _EX51_A + _EX51_L,
        "u": _m([[5, 2, 3], [2, -12, 14], [3, 14, -11]]),
        "x": _EX51_A + _EX51_Y,
        "a_ginv_ref": _m([[0.1471, 0.0691, 0.0781],
                          [0.0691, 0.0120, 0.0571],
                          [0.0781, 0.0571, 0.0210]]),
        "u_ginv_ref": _m([[0.0885, 0.0417, 0.0469],
                          [0.0417, 0.0, 0.0417],
                          [0.0469, 0.0417, 0.0052]]),
    },
    expected={
        "rho_k": Expected(0.3684, 1e-3, "radius of the k-splitting factor"),
        "rho_u": Expected(0.3983, 1e-3, "radius of the u-splitting factor"),
        "rho_x": Expected(0.4163, 1e-3, "radius of the x-splitting factor"),
        "rho_h": Expected(0.0614, 1e-3, "radius of the three-step composite"),
    },
    scheme_order=("x", "u", "k"),
))

# -- ex5.2: group inverse nonnegative, pseudoinverse not ----------------------

_register(Fixture(
    fixture_id="ex5.2",
    description="Matrix whose group inverse is entrywise nonnegative while "
                "its Moore-Penrose inverse is not; three G-weak regular "
                "splittings.  Splitting parts quoted at four decimals.",
    matrices={
        "a": _m([[10, -4, 17], [54, -42, 77], [-12, 15, -13]]),
        "b": _m([[-1], [-11], [4]]),
        "k": _m([[14.8681, -0.1590, 29.4750],
                 [73.5383, -42.9540, 115.1930],
                 [-14.4671, 21.2385, -13.3840]]),
        "u": _m([[16.1942, -0.9500, 31.5405],
                 [76.0650, -35.7555, 125.4440],
                 [-13.7411, 16.4528, -15.4113]]),
        "x": _m([[16.9186, -2.1315, 32.1250],
                 [76.7119, -39.0705, 124.3265],
                 [-12.9780, 16.3380, -13.9758]]),
        "a_ginv_ref": _m([[0.0242, 0.0113, 0.0565],
                          [0.0548, 0.0102, 0.1164],
                          [0.0090, 0.0119, 0.0265]]),
        "a_pinv_ref": _m([[-0.0028, 0.0043, -0.0064],
                          [0.0577, 0.0033, 0.0849],
                          [0.0363, 0.0109, 0.0489]]),
    },
    expected={
        "rho_k": Expected(0.5841, 5e-3, "radius of the k-splitting factor"),
        "rho_u": Expected(0.5515, 5e-3, "radius of the u-splitting factor"),
        "rho_x": Expected(0.5541, 5e-3, "radius of the x-splitting factor"),
        "rho_h": Expected(0.1728, 5e-3, "radius of the three-step composite"),
    },
    tol=ROUNDED_TOL,
    scheme_order=("k", "u", "x"),
))

# -- ex5.3: preconditioned solve for a mixed-sign group inverse ---------------

_register(Fixture(
    fixture_id="ex5.3",
    description="Matrix whose group inverse has mixed signs, with a supplied "
                "commuting preconditioner q; k, u, x split q @ a and the "
                "preconditioned scheme converges to the original group-inverse "
                "solution.  Quoted at four decimals.",
    matrices={
        "a": _m([[3, -1, -9], [-5, -5, -12], [-18, -14, -27]]),
        "b": _m([[-18], [-4], [6]]),
        "q": _m([[4.9000, -1.8600, -0.5300],
                 [-2.0371, 7.5984, -2.8996],
                 [-1.8670, -2.7776, 0.9755]]),
        "k": _m([[36.0660, 12.5447, -8.7030],
                 [9.8863, 6.1737, 8.6910],
                 [-6.4071, 5.9764, 34.7760]]),
        "u": _m([[35.6316, 12.4668, -8.3015],
                 [9.4460, 5.8062, 7.9290],
                 [-7.2936, 4.9516, 32.0885]]),
        "x": _m([[34.9083, 12.2843, -7.8472],
                 [8.7488, 5.3427, 7.2025],
                 [-8.6617, 3.7439, 29.4545]]),
        "a_ginv_ref": _m([[0.0972, 0.0294, -0.0413],
                          [0.0099, 0.0007, -0.0137],
                          [-0.0674, -0.0274, 0.0001]]),
    },
    expected={
        "rho_k": Expected(0.3417, 5e-3, "radius of the preconditioned k factor"),
        "rho_u": Expected(0.2823, 5e-3, "radius of the preconditioned u factor"),
        "rho_x": Expected(0.2097, 5e-3, "radius of the preconditioned x factor"),
        "rho_h": Expected(0.0203, 5e-3, "radius of the three-step composite"),
    },
    tol=ROUNDED_TOL,
    scheme_order=("k", "u", "x"),
    preconditioned=True,
))

# -- ex5.4: preconditioning helps even a group-monotone system ---------------

_register(Fixture(
    fixture_id="ex5.4",
    description="Group-monotone matrix with a plain G-weak regular splitting "
                "k and a commuting preconditioner q; k_pre splits q @ a, is "
                "G-regular and strictly faster.  Quoted at four decimals.",
    matrices={
        "a": _m([[47, -9, -5], [5, 0, 4], [-14, 3, 3]]),
        "b": _m([[6], [3], [-1]]),
        "k": _m([[52.2707, -9.3666, -2.5190],
                 [7.1598, 1.8711, 14.5844],
                 [-15.0370, 3.7459, 5.7011]]),
        "q": _m([[12.1426, 2.4576, 7.0308],
                 [7.1770, 22.2770, 26.4823],
                 [4.3098, 0.6414, 24.3790]]),
        "k_pre": _m([[493.1640, -76.7488, 31.2533],
                     [89.3695, 28.7235, 207.4530],
                     [-134.5980, 35.1574, 58.7334]]),
        "a_ginv_ref": _m([[0.0843, 0.0311, 0.2145],
                          [0.2801, 0.1526, 0.9462],
                          [0.0653, 0.0405, 0.2439]]),
        "qa_ginv_ref": _m([[0.0041, 0.0007, 0.0068],
                           [0.0092, 0.0049, 0.0308],
                           [0.0017, 0.0014, 0.0080]]),
    },
    expected={
        "rho_plain": Expected(0.6993, 5e-3, "radius of the plain k factor"),
        "rho_pre": Expected(0.3318, 5e-3, "radius of the preconditioned factor"),
    },
    tol=ROUNDED_TOL,
    scheme_order=("k",),
))

# -- ex5.5: nonsingular 9x9 chain one/two/three steps -------------------------

_register(Fixture(
    fixture_id="ex5.5",
    description="Nonsingular 9x9 M-matrix with three weak regular splittings; "
                "the quoted chain compares the one-step scheme on k, the "
                "two-step scheme on (k, u) and the three-step scheme on "
                "(x, u, k).",
    matrices={
        "a": _m([
            [10.8654, -0.3333, -1.4444, -1.2222, -0.6667, -0.1111, -1.3333, -2, -0.5556],
            [-1.6667, 9.0877, -2, -1.3333, -0.8889, -2, -0.2222, -0.5556, -0.3333],
            [-1.6667, -1.5556, 9.8654, -1.1111, -1.2222, -1.3333, -1.5556, -1.8889, -2.2222],
            [-0.7778, -0.8889, -2.2222, 9.1988, -1.8889, -1, -0.1111, -0.5556, -0.5556],
            [-1.4444, -0.4444, -1.2222, -1.2222, 10.6432, -0.1111, -0.1111, -1.8889, -2.1111],
            [-1.5556, -0.5556, -0.4444, -0.3333, -1.7778, 9.9765, -1.5556, -1.1111, -2],
            [-1.8889, -1.1111, -0.3333, -0.5556, -2.1111, -1.5556, 9.6432, -1.8889, -2.1111],
            [-0.8889, -2, -0.1111, -0.1111, -0.5556, -0.3333, -0.2222, 10.8654, -0.3333],
            [-0.6667, -0.6667, -1.3333, -1.4444, -1.5556, -1.4444, -1.6667, -2.2222, 9.5321],
        ]),
        "k": _m([
            [11.1529, 0.0167, -1.5694, -1.0347, -0.3042, 0.3014, -1.2333, -1.6875, -0.5931],
            [-1.3417, 8.9502, -1.7125, -1.1333, -0.4639, -2.2750, 0.1278, -0.7556, -0.7083],
            [-1.7292, -1.2306, 10.0779, -1.2611, -1.0097, -1.5833, -1.4556, -1.9889, -2.2722],
            [-0.5778, -1.0139, -2.2972, 9.2488, -1.4139, -1, -0.4111, -0.3806, -0.2681],
            [-1.8069, -0.0694, -1.3347, -1.2597, 10.7057, 0.2889, -0.0986, -1.4389, -1.9986],
            [-1.1431, -0.7056, -0.1819, -0.1458, -1.3653, 9.8390, -1.1056, -1.2236, -1.6375],
            [-1.7139, -0.8986, -0.0208, -0.1806, -2.4361, -1.2056, 9.8182, -1.7514, -2.2486],
            [-0.4889, -1.95, -0.2361, -0.0236, -0.2431, 0.1292, -0.0972, 11.1279, 0.0417],
            [-0.2792, -0.3542, -1.0458, -1.7069, -1.7181, -1.0819, -1.8167, -1.9347, 9.7696],
        ]),
        "u": _m([
            [11.0404, -0.0458, -1.3569, -1.4097, -0.5542, 0.0389, -1.5333, -1.7125, -1.0181],
            [-1.1667, 9.1002, -1.9250, -0.8958, -0.7389, -2.2750, -0.3097, -0.3681, -0.1083],
            [-1.1792, -1.5806, 9.5654, -0.8736, -0.9972, -0.9833, -1.3806, -1.7764, -2.0347],
            [-1.0653, -0.6639, -1.8472, 9.1113, -1.6139, -0.8250, 0.0014, -0.5806, -0.1681],
            [-1.6944, -0.1319, -1.0097, -1.1597, 10.6557, 0.1139, 0.1014, -1.6139, -1.8986],
            [-1.2181, -0.8931, -0.0319, -0.2458, -1.5903, 10.2015, -1.6181, -0.8486, -1.5],
            [-1.5014, -0.9986, -0.3458, -0.2056, -2.1111, -1.5806, 10.1432, -1.6264, -1.6236],
            [-0.6514, -1.5375, -0.1611, 0.2139, -0.0556, -0.1458, 0.1778, 11.2529, 0.0917],
            [-0.8292, -0.7042, -0.8833, -1.4694, -1.7056, -1.1319, -1.4167, -2.1722, 9.1446],
        ]),
        "x": _m([
            [11.1779, -0.0833, -1.6069, -1.3972, -1.1167, 0.3764, -0.8333, -1.5875, -0.8556],
            [-2.1292, 9.5502, -2.0250, -1.3833, -0.5389, -1.7375, 0.2778, -0.1806, 0.0667],
            [-1.2417, -1.4681, 9.9029, -1.2236, -1.2347, -0.8958, -1.9431, -2.1639, -2.3222],
            [-0.5278, -1.1139, -2.4097, 9.6363, -1.8264, -1.0750, -0.2611, -0.5806, -0.4931],
            [-1.0319, -0.1319, -0.9597, -0.7347, 11.0307, 0.0264, 0.2514, -1.7139, -2.4361],
            [-1.3556, -0.5181, -0.2694, -0.6708, -1.6278, 9.6890, -1.3931, -0.6611, -1.9250],
            [-2.1389, -1.0111, -0.1833, -0.0931, -1.8361, -1.5181, 9.5807, -1.8014, -1.8236],
            [-0.7014, -2.2125, -0.1236, 0.2764, -0.0681, -0.2458, -0.4472, 10.7029, 0.0292],
            [-0.9417, -0.7667, -1.0708, -1.2569, -1.7056, -1.0319, -1.5792, -1.9347, 10.0071],
        ]),
    },
    expected={
        "rho_one": Expected(0.5346, 1e-3, "radius of the one-step scheme on k"),
        "rho_two": Expected(0.3038, 1e-3, "radius of the two-step scheme on (k, u)"),
        "rho_three": Expected(0.1513, 1e-3, "radius of the three-step scheme on (x, u, k)"),
    },
    scheme_order=("x", "u", "k"),
))


def fixture_ids() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def get_fixture(fixture_id: str) -> Fixture:
    try:
        return _FIXTURES[fixture_id]
    except KeyError:
        raise KeyError(
            f"unknown fixture {fixture_id!r}; available: {', '.join(fixture_ids())}"
        ) from None


def splitting_of(fx: Fixture, key: str, tol: Tolerances | None = None) -> Splitting:
    """Build and validate the splitting of the fixture's target matrix."""
    return make_splitting(fx.target(), fx.matrices[key], tol or fx.tol)


def build_scheme(
    fx: Fixture, keys: tuple[str, ...] | None = None, tol: Tolerances | None = None
) -> Scheme:
    """Assemble a scheme from fixture splittings in application order.

    When the fixture is preconditioned the scheme carries the fixture's q,
    so the solver applies it to right-hand sides automatically.  The
    target is decomposed once and shared by every splitting.
    """
    tol = tol or fx.tol
    keys = keys or fx.scheme_order
    target = group_inverse(fx.target(), tol)
    splittings = tuple(make_splitting(target, fx.matrices[key], tol) for key in keys)
    precond = fx.matrices["q"] if fx.preconditioned else None
    return Scheme(splittings=splittings, preconditioner=precond)
