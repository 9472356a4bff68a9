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

Every kernel is built on the ratio (lambda, psi(Zbar)) / q(Y); the dbar of
its numerator, of q(Y) and of the ratio are written out once each in closed
form (pair_bar_dbar, q_y_dbar, ratio_dbar).  A scalar field is any object
with value(point) and dbar(point); ratio_field is the one the program uses.
Richardson central differences (dbar_jacobian) check those closed forms and
differentiate everything else.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .domain import DomainPoint, metric_lower, metric_upper


# ---------------------------------------------------------------------------
# finite differences (the independent check of every closed-form derivative)


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
# closed-form dbar of (lambda, psi(Zbar)), of q(Y) and of their ratio


def pair_bar_dbar(lam: np.ndarray, point: DomainPoint) -> np.ndarray:
    """dbar_j (lambda, psi(Zbar)) = 2 eps_j (lambda_j - lambda_e' zbar_j)."""
    return 2.0 * point.frame.eps * (lam[2:] - lam[1] * np.conj(point.z))


def q_y_dbar(point: DomainPoint) -> np.ndarray:
    """dbar_j q(Y) = i eps_j y_j."""
    return 1j * point.frame.eps * point.y


def ratio_dbar(lam: np.ndarray, point: DomainPoint,
               pair_bar: complex) -> np.ndarray:
    """dbar[(lambda, psi(Zbar)) / q(Y)] by the quotient rule, given the
    numerator pair_bar = (lambda, psi(Zbar))."""
    qy = point.q_y
    return (pair_bar_dbar(lam, point) * qy
            - pair_bar * q_y_dbar(point)) / qy ** 2


def ratio_field(lam_fc: np.ndarray) -> SimpleNamespace:
    """The weight -1 scalar (lambda, psi(Zbar)) / q(Y) with its closed-form
    dbar, as a field with value(point) and dbar(point)."""
    lam = np.asarray(lam_fc, dtype=float)
    return SimpleNamespace(
        value=lambda point: point.pair_bar(lam) / complex(point.q_y),
        dbar=lambda point: ratio_dbar(lam, point, point.pair_bar(lam)))


# ---------------------------------------------------------------------------
# stars, xi, laplacian


def measure_factor(n: int, q_y: float) -> complex:
    """(4 i q(Y))^n, the ratio between the coordinate volume form and dmu."""
    return (4j * q_y) ** n


def star01(f: np.ndarray, eps: np.ndarray, y: np.ndarray,
           q_y: float) -> np.ndarray:
    """Antilinear star of a (0,1)-form, as an (n, n-1)-coefficient vector:
    out_j = -(1 / (2 (4i q_y)^n)) sum_i conj(f_i) h^{ij}, written out with
    h^{ij} = 4 y_i y_j - 2 q_y delta_ij eps_i."""
    fb = np.conj(f)
    return (-(4.0 * (fb @ y) * y - 2.0 * q_y * eps * fb)
            / (2.0 * measure_factor(len(y), q_y)))


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


def xi_scalar(field, kappa: float, point: DomainPoint) -> np.ndarray:
    """xi_kappa f as an (n, n-1)-coefficient vector: q(Y)^kappa star(dbar f),
    for a field with a dbar(point) method."""
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


def laplace_scalar(field, kappa: float, point: DomainPoint) -> complex:
    """The weight-kappa laplacian xi_{-kappa} xi_kappa f at a point."""
    return xi_top(lambda pt: xi_scalar(field, kappa, pt), kappa, point)
