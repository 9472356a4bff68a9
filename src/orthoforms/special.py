"""Special-function helpers: a Gauss hypergeometric evaluator for the real
parameter ranges the kernels need, the tensor Gauss-Legendre grid of the
cycle quadratures, and the explicit constant appearing in the boundary
limit of the singular kernel integrals.
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
        if term == 0.0:
            return total
    raise SpecialFunctionError(
        f"hypergeometric series did not converge for z={z}")


def _nonterminating(a: float, b: float, c: float, z: float) -> float:
    """F(a, b; c; z) at one z when neither a nor b is a non-positive
    integer."""
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
        return (1.0 - z) ** (-a) * _series(a, c - b, c, w)
    return _series(a, b, c, z)


def hyp2f1_rows(a: float, b: float, c: float,
                z: np.ndarray) -> tuple[np.ndarray, dict]:
    """F(a, b; c; z) at each element of a 1-D array z, as (values,
    failures): a terminating series is summed over the whole array, and
    otherwise each element goes through the scalar branches and series
    loop on its own, so every value is that of the scalar call.  An element
    whose evaluation raises SpecialFunctionError is returned in failures
    {index: factory of that exception} instead.  An invalid parameter c
    raises at once."""
    if _is_nonpositive_int(c) and not (
            _is_nonpositive_int(a) and round(a) >= round(c)) and not (
            _is_nonpositive_int(b) and round(b) >= round(c)):
        raise SpecialFunctionError("parameter c is a non-positive integer")
    z = np.asarray(z, dtype=float)
    out = np.ones(len(z))
    failures: dict = {}
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        if _is_nonpositive_int(b) and not _is_nonpositive_int(a):
            a, b = b, a
        term = np.ones(len(z))
        for k in range(int(round(-a))):
            term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
            out += term
        return out, failures
    for i, zi in enumerate(z.tolist()):
        try:
            out[i] = _nonterminating(a, b, c, zi)
        except SpecialFunctionError as exc:
            failures[i] = partial(SpecialFunctionError, *exc.args)
    return out, failures


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function F(a, b; c; z) for real parameters with
    z < 1, or z = 1 when c - a - b > 0 (principal branch).

    Terminating cases are summed exactly; z <= -1/2 is mapped into [0, 1) by
    the Pfaff transformation z -> z/(z-1).  z may be an array: each element
    is evaluated as the scalar call evaluates it (hyp2f1_rows), and the
    first element that fails raises."""
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
