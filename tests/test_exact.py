"""The exact oracle of tests/exact.py on matrices whose answers are known by hand."""

import math
from fractions import Fraction

import pytest

from altiter.splittings import SplittingClass
import exact


def test_rationalize_reads_short_decimals_and_refuses_others():
    expected = [[Fraction(1, 10), Fraction(-5, 2), Fraction(1, 3)]]
    assert exact.rationalize([[0.1, -2.5, 1 / 3]]) == expected
    with pytest.raises(ValueError, match="more than one ulp"):
        exact.rationalize([[math.pi]])


def test_group_inverse_of_a_scaled_idempotent_and_index_two_is_refused():
    # A = 2P with P^2 = P, so A# = P/2 = A/4
    a = exact.rationalize([[2, 2], [0, 0]])
    assert exact.group_inverse(a) == [[x / 4 for x in row] for row in a]
    zero = exact.rationalize([[0, 0], [0, 0]])
    assert exact.group_inverse(zero) == zero
    with pytest.raises(ValueError, match="not of index 1"):
        exact.group_inverse(exact.rationalize([[0, 1], [0, 0]]))


def test_classes_follow_the_exact_signs():
    # A = diag(1, 0): U = diag(2, 0) keeps R(A) and N(A), with U# = diag(1/2, 0) and V = diag(1, 0)
    a = exact.rationalize([[1, 0], [0, 0]])
    assert exact.classes(a, exact.rationalize([[2, 0], [0, 0]])) == set(SplittingClass)
    # U = diag(1/2, 0) gives V = diag(-1/2, 0) and U#V = diag(-1, 0)
    assert exact.classes(a, exact.rationalize([[0.5, 0], [0, 0]])) == {SplittingClass.PROPER}
    # U = I moves the null space
    assert exact.classes(a, exact.rationalize([[1, 0], [0, 1]])) == frozenset()
