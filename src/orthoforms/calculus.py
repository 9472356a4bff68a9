"""Pointwise complex calculus on the tube domain.

Conventions used throughout:

* a (0,1)-form is the coefficient vector f with sum_j f_j dzbar_j;
* an (n, n-1)-form is the coefficient vector g with sum_j g_j hat_j, where
  hat_j is the product of all dz's and all dzbar's except dzbar_j, signed so
  that dzbar_j ^ hat_j = -(4i q(Y))^n dmu;
* a top form is a single coefficient c with c * dmu, for the invariant
  measure dmu = (4i q(Y))^-n dz_1 ^ dzbar_1 ^ ... ^ dz_n ^ dzbar_n.

The antilinear weighted star sends weight-k scalars to tops and (0,1)-forms
to (n, n-1)-forms; xi_k is star after dbar.  The conjugate-linear pairing of
two (0,1)-forms f, g is star_pair(f, g) = (1/2) sum f_i conj(g_j) h^{ij},
so that f ^ star(g) = star_pair(f, g) dmu.
"""
from __future__ import annotations

import numpy as np

from .domain import DomainPoint, metric_lower, metric_upper


# ---------------------------------------------------------------------------
# finite differences (independent fallback for every analytic derivative)


def richardson(coarse, fine):
    """One extrapolation level of a second-order rule under step halving:
    fine is the value at half the step of coarse."""
    return (4.0 * fine - coarse) / 3.0


def central_differences(func, z: np.ndarray, directions, h: float) -> np.ndarray:
    """Richardson-extrapolated central differences of func at z:
    out[..., k] is the derivative of t -> func(z + t directions[k]) at 0."""

    def diff(step):
        return np.stack([
            (np.asarray(func(z + step * d), dtype=complex)
             - np.asarray(func(z - step * d), dtype=complex)) / (2.0 * step)
            for d in directions], axis=-1)

    return richardson(diff(h), diff(h / 2.0))


def dbar_jacobian(vec_func, point: DomainPoint) -> np.ndarray:
    """J[a, j] = dbar_j of component a, for a vector-valued function, with
    dbar_j = (d/dx_j + i d/dy_j)/2; shape (n,) for a scalar function."""
    n = point.frame.n
    h = 1e-4 * max(1.0, float(np.max(np.abs(point.z))))
    units = np.eye(n, dtype=complex)
    d = central_differences(lambda z: vec_func(point.replace(z)), point.z,
                            np.concatenate([units, 1j * units]), h)
    return (d[..., :n] + 1j * d[..., n:]) / 2.0


# ---------------------------------------------------------------------------
# scalar fields with cataloged analytic derivatives


class ScalarField:
    """A complex scalar on the domain with a dbar that is analytic when the
    field is built from cataloged pieces and finite-difference otherwise."""

    def value(self, point: DomainPoint) -> complex:
        raise NotImplementedError

    def dbar(self, point: DomainPoint) -> np.ndarray:
        return dbar_jacobian(self.value, point)

    def __call__(self, point: DomainPoint) -> complex:
        return self.value(point)

    def __add__(self, other):
        return SumField(self, as_field(other))

    def __radd__(self, other):
        return SumField(as_field(other), self)

    def __sub__(self, other):
        return SumField(self, ScaledField(as_field(other), -1.0))

    def __mul__(self, other):
        return ProductField(self, as_field(other))

    def __rmul__(self, other):
        return ProductField(as_field(other), self)

    def __truediv__(self, other):
        return QuotientField(self, as_field(other))

    def __pow__(self, k: int):
        return PowerField(self, k)

    def __neg__(self):
        return ScaledField(self, -1.0)


class ConstantField(ScalarField):
    def __init__(self, c):
        self.c = complex(c)

    def value(self, point):
        return self.c

    def dbar(self, point):
        return np.zeros(point.frame.n, dtype=complex)


def as_field(x) -> ScalarField:
    if isinstance(x, ScalarField):
        return x
    return ConstantField(x)


class PairField(ScalarField):
    """Z -> (lambda, psi(Z)); holomorphic, so dbar = 0."""

    def __init__(self, lam_fc: np.ndarray):
        self.lam = np.asarray(lam_fc, dtype=float)

    def value(self, point):
        return point.pair(self.lam)

    def dbar(self, point):
        return np.zeros(point.frame.n, dtype=complex)


class PairBarField(ScalarField):
    """Z -> (lambda, psi(Zbar)); dbar_j = 2 eps_j (lambda_j - lambda_e' zbar_j)."""

    def __init__(self, lam_fc: np.ndarray):
        self.lam = np.asarray(lam_fc, dtype=float)

    def value(self, point):
        return point.pair_bar(self.lam)

    def dbar(self, point):
        eps = point.frame.eps
        return 2.0 * eps * (self.lam[2:] - self.lam[1] * np.conj(point.z))


class QYField(ScalarField):
    """Z -> q(Y); dbar_j = i eps_j y_j."""

    def value(self, point):
        return complex(point.q_y)

    def dbar(self, point):
        return 1j * point.frame.eps * point.y


class QYPowerField(ScalarField):
    """q(Y)^s for real s (q(Y) > 0 on the domain, so no branch issues)."""

    def __init__(self, s: float):
        self.s = float(s)

    def value(self, point):
        return complex(point.q_y ** self.s)

    def dbar(self, point):
        return (self.s * point.q_y ** (self.s - 1.0)
                * 1j * point.frame.eps * point.y)


class SumField(ScalarField):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, point):
        return self.a.value(point) + self.b.value(point)

    def dbar(self, point):
        return self.a.dbar(point) + self.b.dbar(point)


class ScaledField(ScalarField):
    def __init__(self, a, c):
        self.a, self.c = a, complex(c)

    def value(self, point):
        return self.c * self.a.value(point)

    def dbar(self, point):
        return self.c * self.a.dbar(point)


class ProductField(ScalarField):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, point):
        return self.a.value(point) * self.b.value(point)

    def dbar(self, point):
        return (self.a.value(point) * self.b.dbar(point)
                + self.b.value(point) * self.a.dbar(point))


class QuotientField(ScalarField):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, point):
        return self.a.value(point) / self.b.value(point)

    def dbar(self, point):
        bv = self.b.value(point)
        return (self.a.dbar(point) * bv
                - self.a.value(point) * self.b.dbar(point)) / bv ** 2


class PowerField(ScalarField):
    """Integer powers of an arbitrary field (negative allowed off zeros)."""

    def __init__(self, base, k: int):
        if k != int(k):
            raise ValueError("PowerField needs an integer exponent")
        self.base, self.k = base, int(k)

    def value(self, point):
        return self.base.value(point) ** self.k

    def dbar(self, point):
        v = self.base.value(point)
        return self.k * v ** (self.k - 1) * self.base.dbar(point)


def ratio_field(lam_fc: np.ndarray) -> ScalarField:
    """The weight -1 scalar (lambda, psi(Zbar)) / q(Y)."""
    return QuotientField(PairBarField(lam_fc), QYField())


# ---------------------------------------------------------------------------
# stars, xi, laplacian


def measure_factor(n: int, q_y: float) -> complex:
    """(4 i q(Y))^n, the ratio between the coordinate volume form and dmu."""
    return (4j * q_y) ** n


def star01(f: np.ndarray, eps: np.ndarray, y: np.ndarray,
           q_y: float) -> np.ndarray:
    """Antilinear star of a (0,1)-form, as an (n, n-1)-coefficient vector:
    out_j = -(1 / (2 (4i q_y)^n)) sum_i conj(f_i) h^{ij}."""
    h_up = metric_upper(eps, y, q_y)
    return -(np.conj(f) @ h_up) / (2.0 * measure_factor(len(y), q_y))


def star_nn1(g: np.ndarray, eps: np.ndarray, y: np.ndarray,
             q_y: float) -> np.ndarray:
    """Antilinear star of an (n, n-1)-form back to a (0,1)-form; inverse of
    :func:`star01`."""
    h_low = metric_lower(eps, y, q_y)
    q = measure_factor(len(y), q_y)
    return -2.0 * np.conj(q) * (np.conj(g) @ h_low)


def star_pair(f: np.ndarray, g: np.ndarray, eps: np.ndarray, y: np.ndarray,
              q_y: float) -> complex:
    """(1/2) sum f_i conj(g_j) h^{ij}; satisfies f ^ star(g) = star_pair dmu."""
    h_up = metric_upper(eps, y, q_y)
    return complex(0.5 * f @ h_up @ np.conj(g))


def star_top(c: complex, kappa: float, q_y: float) -> complex:
    """Weighted antilinear star of a top form c * dmu: conj(c) q(Y)^kappa."""
    return np.conj(c) * q_y ** kappa


def xi_scalar(field: ScalarField, kappa: float,
              point: DomainPoint) -> np.ndarray:
    """xi_kappa f as an (n, n-1)-coefficient vector: q(Y)^kappa star(dbar f)."""
    f = field.dbar(point)
    return point.q_y ** kappa * star01(f, point.frame.eps, point.y, point.q_y)


def dbar_top(vec_func, point: DomainPoint) -> complex:
    """dmu-coefficient of dbar H for H = sum_j g_j hat_j:
    c = -(4i q(Y))^n sum_j dbar_j g_j.  (dH = dbar H for (n, n-1)-forms.)"""
    div = np.trace(dbar_jacobian(vec_func, point))
    return -measure_factor(point.frame.n, point.q_y) * div


def xi_top(vec_func, kappa: float, point: DomainPoint) -> complex:
    """xi_{-kappa} of an (n, n-1)-form given by its coefficient function:
    conj(dbar-top coefficient) * q(Y)^{-kappa}."""
    return star_top(dbar_top(vec_func, point), -kappa, point.q_y)


def laplace_scalar(field: ScalarField, kappa: float,
                   point: DomainPoint) -> complex:
    """The weight-kappa laplacian xi_{-kappa} xi_kappa f at a point."""
    return xi_top(lambda pt: xi_scalar(field, kappa, pt), kappa, point)
