"""Special-function helpers: the per-row step of the row kernels' Python
arithmetic (row_map, in which a row that overflows fails alone), a Gauss
hypergeometric evaluator for the real parameter ranges the kernels need
(with closed forms for the kernels' two non-terminating families near
z = 1), the tensor Gauss-Legendre grid of the cycle quadratures, and the
explicit constant appearing in the boundary limit of the singular kernel
integrals.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np


class SpecialFunctionError(ArithmeticError):
    pass


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and abs(x - round(x)) < 1e-12


def _series(a: float, b: float, c: float, z: float) -> float:
    """The hypergeometric series summed until a term falls below 1e-15 of
    the partial sum (or of 1), giving up after 200,000 terms."""
    total = 1.0
    term = 1.0
    for k in range(200_000):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if abs(term) < 1e-15 * max(1.0, abs(total)):
            return total
    raise SpecialFunctionError(
        f"hypergeometric series did not converge for z={z}")


# Where the kernels' two non-terminating families (odd n) leave the series
# for a closed form.  Measured against the series and mpmath at n = 1 and 3,
# kappa <= 9: the plus connection formula is faster from about z = 0.65 on,
# but its two terms cancel (more at n = 1 and large kappa), so it matches the
# series' accuracy only from about 0.8 on; the minus recursion is faster and
# more accurate from 1/2 on, and loses accuracy below.
PLUS_SWITCH = 0.8
MINUS_SWITCH = 0.5


def _is_half_odd(x: float) -> bool:
    return abs(x - 0.5 - round(x - 0.5)) < 1e-12


def _plus(a: float, b: float, z: float) -> float:
    """F(a, b; b + 1; z) for a half-odd-integer a <= 1/2, b > 0 and
    0 < z < 1 by the 1 - z connection formula (DLMF 15.8.4), c - a - b =
    1 - a not being an integer: its first series F(a, b; a; 1 - z) is z^-b
    exactly, and the second, F(b + 1 - a, 1; 2 - a; 1 - z), converges
    geometrically."""
    lead = math.gamma(b + 1.0) * math.gamma(1.0 - a) / math.gamma(b + 1.0 - a)
    return (lead * z ** (-b) - b / (1.0 - a) * (1.0 - z) ** (1.0 - a)
            * _series(b + 1.0 - a, 1.0, 2.0 - a, 1.0 - z))


def _minus(a: float, c: float, z: float) -> float:
    """F(a, 1; c; z) for a = +-1/2, c - 1/2 a positive integer and
    0 < z < 1, from Euler's integral with u = s^2:
    F = 2(c - 1) I_p, p = c - 3/2, I_q = int_0^1 s^2q (A + B s^2)^-a ds,
    A = 1 - z, B = z.  I_0 is 1/2 (1 + (A / sqrt B) asinh sqrt(B/A)) at
    a = -1/2 and asinh sqrt(B/A) / sqrt B at a = 1/2; integration by parts
    gives I_q = (1 - (2q - 1) A I_{q-1}) / ((2q + 1 - 2a) B), stable while
    A <= B."""
    big_a = 1.0 - z
    asinh = math.asinh(math.sqrt(z / big_a))
    if a < 0:
        value = 0.5 * (1.0 + big_a / math.sqrt(z) * asinh)
    else:
        value = asinh / math.sqrt(z)
    for q in range(1, int(round(c - 1.5)) + 1):
        value = (1.0 - (2 * q - 1) * big_a * value) / ((2 * q + 1 - 2 * a) * z)
    return 2.0 * (c - 1.0) * value


def _nonterminating(a: float, b: float, c: float, z: float) -> float:
    """F(a, b; c; z) at one z when neither a nor b is a non-positive
    integer: the Gauss value at z = 1, Pfaff for z <= -1/2 (its argument
    z/(z - 1) in [1/3, 1) takes the branches below, and it maps each of the
    kernels' families onto the other), the closed forms of the kernels'
    families from their switch points, and otherwise the series."""
    if z == 1.0:
        if c - a - b <= 0:
            raise SpecialFunctionError("divergent at z = 1")
        return (math.gamma(c) * math.gamma(c - a - b)
                / (math.gamma(c - a) * math.gamma(c - b)))
    if z > 1.0:
        raise SpecialFunctionError("argument above the branch point")
    if z <= -0.5:
        # Pfaff: F(a,b;c;z) = (1-z)^-a F(a, c-b; c; z/(z-1))
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * _nonterminating(a, c - b, c, w)
    if (z >= PLUS_SWITCH and c == b + 1.0 and b > 0 and a <= 0.5
            and _is_half_odd(a)):
        return _plus(a, b, z)
    if (z >= MINUS_SWITCH and b == 1.0 and abs(a) == 0.5 and c >= 1.5
            and _is_half_odd(c)):
        return _minus(a, c, z)
    return _series(a, b, c, z)


def row_map(formula, columns, failed=None) -> tuple[np.ndarray, dict]:
    """formula(*row) at each row of columns, arrays with one entry per row,
    in Python float/complex arithmetic (each row rounds as a one-row
    evaluation does), as (values, failures).  Each row is evaluated once; a
    row whose formula raises ArithmeticError fails with a factory of a
    fresh copy of that exception, unless failed ({row: exception factory})
    already names it, whose failure it keeps.  A failed row's value is 0."""
    rows = [iter(column.tolist()) for column in columns]
    failures = dict(failed or {})
    values = []
    # a raise ends one map; the next resumes at the row after it
    while True:
        try:
            for value in map(formula, *rows):
                values.append(value)
            break
        except ArithmeticError as exc:
            failures.setdefault(len(values), partial(type(exc), *exc.args))
            values.append(0.0)
    out = np.array(values)
    if failures:
        out[list(failures)] = 0.0
    return out, failures


def hyp2f1_rows(a: float, b: float, c: float,
                z: np.ndarray) -> tuple[np.ndarray, dict]:
    """F(a, b; c; z) at each element of a 1-D array z, as (values,
    failures): a terminating series is summed over the whole array, and
    otherwise each element goes through the scalar branches (closed form or
    series loop) on its own, by row_map, so every value is that of the
    scalar call and an element whose evaluation raises ArithmeticError
    fails alone.  The kernels' odd-n families take closed forms from their
    switch points on: F(1 - n/2, beta; beta + 1; z) from PLUS_SWITCH at
    every odd n, and F(1 - n/2, 1; beta + 1; z) from MINUS_SWITCH at n = 1
    and 3.  An invalid parameter c raises at once."""
    if _is_nonpositive_int(c) and not (
            _is_nonpositive_int(a) and round(a) >= round(c)) and not (
            _is_nonpositive_int(b) and round(b) >= round(c)):
        raise SpecialFunctionError("parameter c is a non-positive integer")
    z = np.asarray(z, dtype=float)
    if not (_is_nonpositive_int(a) or _is_nonpositive_int(b)):
        return row_map(partial(_nonterminating, a, b, c), [z])
    if _is_nonpositive_int(b) and not _is_nonpositive_int(a):
        a, b = b, a
    out = np.ones(len(z))
    term = np.ones(len(z))
    for k in range(int(round(-a))):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        out += term
    return out, {}


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function F(a, b; c; z) for real parameters with
    z < 1, or z = 1 when c - a - b > 0 (principal branch).

    Terminating cases are summed exactly; z <= -1/2 is mapped into [0, 1) by
    the Pfaff transformation z -> z/(z-1); the kernels' odd-n families take
    closed forms near z = 1, directly or after Pfaff.  z may be an array:
    each element is evaluated as the scalar call evaluates it
    (hyp2f1_rows), and the first element that fails raises."""
    values, failures = hyp2f1_rows(a, b, c, np.ravel(z))
    if failures:
        raise failures[min(failures)]()
    if np.ndim(z) == 0:
        return float(values[0])
    return values.reshape(np.shape(z))


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=None)
def _legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-node Gauss-Legendre rule of [-1, 1] as read-only (nodes,
    weights), computed once per count."""
    rule = np.polynomial.legendre.leggauss(count)
    for array in rule:
        array.flags.writeable = False
    return rule


def _gl_rule(lo: float, hi: float, count: int):
    """The count-node Gauss-Legendre rule of [-1, 1], moved to [lo, hi]:
    (nodes, unscaled weights, half-width)."""
    t, w = _legendre(count)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * t, w, half


def gauss_legendre_grid(axes, counts) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the box prod [lo, hi] of axes.

    Returns the node rows in itertools.product order (last axis fastest)
    and their product weights, multiplied left to right, so a sum over the
    rows repeats a nested loop over the axes bit for bit."""
    rules = [_gl_rule(lo, hi, count) for (lo, hi), count in zip(axes, counts)]
    weights = np.ones(1)
    for _, w, half in rules:
        weights = np.multiply.outer(weights, half * w).ravel()
    grid = np.meshgrid(*[x for x, _, _ in rules], indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1), weights


# ---------------------------------------------------------------------------
# geometric constants


def sphere_area(m: int) -> float:
    """Surface volume of the unit m-sphere in R^{m+1}."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def radial_integral(n: int) -> float:
    """int_0^1 r^{n-2} (r^2 + 1)^{-n/2} dr for n >= 2 in closed form: r =
    tan(theta) makes it S(n - 2), S(k) = int_0^{pi/4} sin^k theta dtheta,
    and S(k) = ((k - 1)/k) S(k - 2) - 2^{-k/2}/k from S(0) = pi/4 or
    S(1) = 1 - 1/sqrt(2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = n - 2
    value = 1.0 - 1.0 / math.sqrt(2.0) if k % 2 else math.pi / 4.0
    for j in range(2 + k % 2, k + 1, 2):
        value = (j - 1) / j * value - 2.0 ** (-j / 2.0) / j
    return value


def limit_constant(n: int, kappa: float) -> complex:
    """The constant relating the shrinking-tube boundary integral of the
    singular kernel to the value of the integrand on the cycle:

    (-i)^n Gamma(kappa - n/2 + 1) Gamma(n/2) / (4^kappa (kappa - n/2)
    Gamma(kappa)) * (n - 1) vol(S^{n-2}) int_0^1 r^{n-2} (r^2+1)^{-n/2} dr.

    Only defined for n >= 2; the n = 1 cycle has codimension-1 boundary
    geometry that this normalization does not cover.
    """
    if n < 2:
        raise ValueError("the limit constant is defined for n >= 2 only")
    if kappa <= n:
        raise ValueError("need kappa > n")
    prefactor = ((-1j) ** n * math.gamma(kappa - n / 2 + 1)
                 * math.gamma(n / 2)
                 / (4.0 ** kappa * (kappa - n / 2) * math.gamma(kappa)))
    return prefactor * (n - 1) * sphere_area(n - 2) * radial_integral(n)
