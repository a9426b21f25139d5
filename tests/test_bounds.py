import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ksec import bounds
from ksec.bounds import (
    log_poly_holds,
    log_poly_value,
    size_cut_bound,
    tree_cut_bound,
)


def test_power_of_two_cases_are_exact():
    # q = 4: L = 2, RHS = scale * (4 + 2a + b)
    assert log_poly_holds(10, Fraction(1), Fraction(4), 1, 4)  # RHS = 10 exactly
    assert not log_poly_holds(11, Fraction(1), Fraction(4), 1, 4)
    # q = 1: L = 0
    assert log_poly_holds(6, Fraction(1, 2), Fraction(1), 9, 12)  # RHS = 6
    assert not log_poly_holds(7, Fraction(1, 2), Fraction(1), 9, 12)
    # q = 1/2 is below the domain
    with pytest.raises(ValueError):
        log_poly_holds(1, Fraction(1), Fraction(1, 2), 1, 1)


def test_irrational_cases_decide_on_both_sides():
    # the float value is only approximate; +-1 clears any rounding while
    # still exercising the interval refinement near the true value
    for q in (Fraction(3, 2), Fraction(7, 5), Fraction(1000, 999), Fraction(97)):
        for a, b in ((9, 18), (11, 24), (7, 6)):
            scale = Fraction(3, 2)
            approx = log_poly_value(scale, q, a, b)
            assert log_poly_holds(math.floor(approx) - 1, scale, q, a, b)
            assert not log_poly_holds(math.ceil(approx) + 1, scale, q, a, b)


def test_monotone_in_q():
    # larger n/diam ratio means a weaker (larger) bound
    v1 = log_poly_value(Fraction(1), Fraction(2), 9, 18)
    v2 = log_poly_value(Fraction(1), Fraction(8), 9, 18)
    assert v2 > v1


def test_named_bounds_match_formulas():
    assert tree_cut_bound(Fraction(1, 2), 3) == (2 + 32) * 3
    assert size_cut_bound(Fraction(1, 4), 2) == 64


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.fractions(0, 20),
    st.integers(0, 12), st.integers(-10, 40), st.integers(0, 3),
)
def test_rational_fast_path_agrees_with_interval_arithmetic(den, extra, scale, a, b, at):
    """Widths at floor(rhs), floor(rhs) + 1 and the rational bracket's ends get the interval answer."""
    q = Fraction(den + extra, den)
    assume(bounds._power_of_two_log(q) is None)
    f = math.floor(math.log2(q))
    widths = (
        math.floor(log_poly_value(scale, q, a, b)),
        math.floor(log_poly_value(scale, q, a, b)) + 1,
        math.floor(scale * (f * f + a * f + b)),
        math.ceil(scale * ((f + 1) ** 2 + a * (f + 1) + b)),
    )
    width = widths[at]
    assert log_poly_holds(width, scale, q, a, b) == bounds._interval_holds(width, scale, q, a, b)
