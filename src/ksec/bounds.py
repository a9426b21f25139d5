"""Width-bound formulas and certified comparisons against them.

All guarantees in this package have one of two shapes:

* rational:   width <= scale * (2 + 16/d)           with d an exact Fraction
* log-poly:   width <= scale * (L^2 + a*L + b)      with L = log2(q)

Rational bounds are compared with exact Fraction arithmetic.  For the
log-poly shape L is irrational unless q is a power of two, so a float
comparison could misreport a bound violation.  ``log_poly_holds`` decides
the comparison exactly: powers of two are evaluated in rational
arithmetic.  Otherwise, when a >= 0, the polynomial grows with L, and
L lies between floor(L) and floor(L) + 1, both read off bit lengths; a
width on or beyond the value at either end is decided in rational
arithmetic too.  Only a width between the two goes through interval
arithmetic at escalating precision (the difference is provably nonzero,
so refinement terminates).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def _power_of_two_log(q: Fraction) -> int | None:
    """log2(q) if q is an exact power of two, else None."""
    num, den = q.numerator, q.denominator
    if den == 1 and num & (num - 1) == 0:
        return num.bit_length() - 1
    if num == 1 and den & (den - 1) == 0:
        return -(den.bit_length() - 1)
    return None


def log_poly_value(scale: Fraction, q: Fraction, a: int, b: int) -> float:
    """Float value of scale * (log2(q)^2 + a*log2(q) + b), for reporting."""
    ell = math.log2(float(q))
    return float(scale) * (ell * ell + a * ell + b)


def _floor_log2(q: Fraction) -> int:
    """floor(log2(q)) for q >= 1, exactly, from bit lengths."""
    num, den = q.numerator, q.denominator
    f = num.bit_length() - den.bit_length()
    return f if den << f <= num else f - 1


def log_poly_holds(width: int, scale: Fraction, q: Fraction, a: int, b: int) -> bool:
    """Certified check of ``width <= scale * (L^2 + a*L + b)``, L = log2(q).

    Requires q >= 1 and scale >= 0.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    exact = _power_of_two_log(q)
    if exact is not None:
        return Fraction(width) <= scale * (exact * exact + a * exact + b)
    if a >= 0 and scale >= 0:
        # f <= L < f + 1, and L^2 + aL + b grows with L >= 0
        f = _floor_log2(q)
        if width <= scale * (f * f + a * f + b):
            return True
        if width >= scale * ((f + 1) ** 2 + a * (f + 1) + b):
            return False
    return _interval_holds(width, scale, q, a, b)


def _interval_holds(width: int, scale: Fraction, q: Fraction, a: int, b: int) -> bool:
    """``log_poly_holds`` in interval arithmetic, for q > 1 not a power of two."""
    num, den = q.numerator, q.denominator
    sn, sd = scale.numerator, scale.denominator
    for prec in (80, 200, 1000, 5000):
        with mpmath.workprec(prec):
            iv = mpmath.iv
            iv.prec = prec
            ell = iv.log(iv.mpf(num) / iv.mpf(den)) / iv.log(2)
            rhs = (iv.mpf(sn) / iv.mpf(sd)) * (ell * ell + a * ell + b)
            if rhs.a >= width:
                return True
            if rhs.b < width:
                return False
    raise ArithmeticError(
        f"could not resolve bound comparison at 5000 bits: width={width}, "
        f"scale={scale}, q={q}, a={a}, b={b}"
    )


# --- Named bounds ----------------------------------------------------------

def tree_cut_bound(rel_diam: Fraction, delta: int) -> Fraction:
    """Per-cut guarantee of the diameter-preserving cut: (2 + 16/d) * Δ."""
    return (2 + Fraction(16) / rel_diam) * delta


def tree_cut_bound_improved_holds(width: int, rel_diam: Fraction, delta: int) -> bool:
    """width <= (1/2)(log2(1/d)^2 + 9 log2(1/d) + 18) * Δ, certified."""
    return log_poly_holds(width, Fraction(delta, 2), 1 / rel_diam, 9, 18)


def size_cut_bound(rel_diam: Fraction, delta: int) -> Fraction:
    """Exact-size cut guarantee in forests: (8/d) * Δ."""
    return Fraction(8) / rel_diam * delta


def size_cut_bound_improved_holds(width: int, rel_diam: Fraction, delta: int) -> bool:
    """width <= (1/2)(log2(1/d)^2 + 7 log2(1/d) + 6) * Δ, certified."""
    return log_poly_holds(width, Fraction(delta, 2), 1 / rel_diam, 7, 6)


def ksection_tree_bound(k: int, n: int, diam: int, delta: int) -> Fraction:
    """(k-1)(2 + 16n/diam) * Δ."""
    return (k - 1) * (2 + Fraction(16 * n, diam)) * delta


def ksection_tree_bound_improved_holds(
    width: int, k: int, n: int, diam: int, delta: int
) -> bool:
    """width <= (1/2)(k-1)(log2(n/diam)^2 + 9 log2(n/diam) + 18) * Δ."""
    return log_poly_holds(width, Fraction((k - 1) * delta, 2), Fraction(n, diam), 9, 18)


def ksection_tree_bound_improved(k: int, n: int, diam: int, delta: int) -> float:
    return log_poly_value(Fraction((k - 1) * delta, 2), Fraction(n, diam), 9, 18)


def td_size_cut_bound_holds(width: int, r: Fraction, t: int, delta: int) -> bool:
    """width <= (t/2)(log2(1/r)^2 + 9 log2(1/r) + 8) * Δ, certified."""
    return log_poly_holds(width, Fraction(t * delta, 2), 1 / r, 9, 8)


def td_cut_bound_holds(width: int, r: Fraction, t: int, delta: int) -> bool:
    """width <= (t/2)(log2(1/r)^2 + 11 log2(1/r) + 24) * Δ, certified."""
    return log_poly_holds(width, Fraction(t * delta, 2), 1 / r, 11, 24)


def ksection_td_bound_holds(width: int, k: int, r: Fraction, t: int, delta: int) -> bool:
    """width <= (1/2)(k-1) t Δ (log2(1/r)^2 + 11 log2(1/r) + 24), certified."""
    return log_poly_holds(width, Fraction((k - 1) * t * delta, 2), 1 / r, 11, 24)


def ksection_td_bound(k: int, r: Fraction, t: int, delta: int) -> float:
    return log_poly_value(Fraction((k - 1) * t * delta, 2), 1 / r, 11, 24)
