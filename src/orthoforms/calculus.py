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
form (pair_bar_dbar, q_y_dbar, ratio_dbar).  These and star01 take one point
or a domain.Block of Z rows, and one lambda or lambda rows, so the row
kernels of the kernels module call the same closed forms.  A scalar field
is any object with value(point) and dbar(point); ratio_field is the one
the program uses, and its dbar is _ratio_dbar_rows bound to lambda
(domain.bind_rows), which carries the row form of the domain module's
contract.  xi_scalar is the point's row of one pass over the block
(domain.row_value): the field's dbar over the block, then one star01 and
one q(Y)^kappa per row.
Richardson central differences (dbar_jacobian) check those closed forms and
differentiate everything else.  dbar_jacobian holds its 8n stencil points
as one Block: a function with a row form runs it once over the block and a
plain callable runs point by point, and the differences and the
extrapolation are one array pass.  laplace_scalar hands it xi_scalar's row
function bound to the field, so one call runs one ratio_dbar and one star01
and reads no memo.
"""
from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np

from .domain import (Block, DomainPoint, bind_rows, metric_lower, metric_upper,
                     row_value)


# ---------------------------------------------------------------------------
# finite differences (the independent check of every closed-form derivative)


def richardson(coarse, fine):
    """One extrapolation level of a second-order rule under step halving:
    fine is the value at half the step of coarse."""
    return (4.0 * fine - coarse) / 3.0


def _shifted(z: np.ndarray, directions, h: float) -> list[np.ndarray]:
    """The points z + step d and z - step d of central_differences, for the
    steps h and h/2 and each direction d, in its evaluation order."""
    return [shifted for step in (h, h / 2.0) for d in directions
            for shifted in (z + step * d, z - step * d)]


def _richardson_differences(values, h: float) -> np.ndarray:
    """Richardson-extrapolated central differences from func evaluated at
    the _shifted points, in that order: values holds one row per point,
    and every difference and extrapolation is one array operation over
    the directions."""
    values = np.asarray(values, dtype=complex)
    plus, minus = values[0::2], values[1::2]
    half = len(plus) // 2
    coarse = (plus[:half] - minus[:half]) / (2.0 * h)
    fine = (plus[half:] - minus[half:]) / (2.0 * (h / 2.0))
    return np.moveaxis(richardson(coarse, fine), 0, -1)


def central_differences(func, z: np.ndarray, directions, h: float) -> np.ndarray:
    """Richardson-extrapolated central differences of func at z:
    out[..., k] is the derivative of t -> func(z + t directions[k]) at 0."""
    return _richardson_differences(
        [func(shifted) for shifted in _shifted(z, directions, h)], h)


def dbar_jacobian(vec_func, point: DomainPoint) -> np.ndarray:
    """J[a, j] = dbar_j of component a, for a vector-valued function, with
    dbar_j = (d/dx_j + i d/dy_j)/2; shape (n,) for a scalar function.

    The 8n shifted points of both Richardson steps are built as one
    domain.Block.  A function with a row form (domain.bind_rows) runs it
    once over the block, and its first failed row raises; any other runs
    point by point, in difference order."""
    n = point.frame.n
    h = 1e-4 * max(1.0, float(np.max(np.abs(point.z))))
    units = np.eye(n, dtype=complex)
    block = Block(point.frame, np.array(
        _shifted(point.z, np.concatenate([units, 1j * units]), h)))
    rows = getattr(vec_func, "rows", None)
    if rows is None:
        values = [vec_func(shifted) for shifted in block]
    else:
        values, failures = rows(block)
        if failures:
            raise failures[min(failures)]()
    d = _richardson_differences(values, h)
    return (d[..., :n] + 1j * d[..., n:]) / 2.0


# ---------------------------------------------------------------------------
# closed-form dbar of (lambda, psi(Zbar)), of q(Y) and of their ratio
#
# point is a DomainPoint, or a domain.Block whose z (N, n) and q_y (N,)
# carry a leading row axis; lam is one vector (n+2,) or rows (M, n+2), with
# M or N equal to 1, and every result has one row per row of either.


def _column(x):
    """A per-point scalar as a factor of coordinate vectors: itself for one
    point, an (N, 1) column for an (N,) array of row values."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _per_row(func, x):
    """func of a per-point scalar, as _column: on an array, func of each
    row's Python value, because numpy's array powers and complex products
    round differently from Python's."""
    if isinstance(x, np.ndarray):
        return np.array([func(v) for v in x.tolist()])[:, None]
    return func(x)


def pair_bar_dbar(lam: np.ndarray, point) -> np.ndarray:
    """dbar_j (lambda, psi(Zbar)) = 2 eps_j (lambda_j - lambda_e' zbar_j)."""
    return 2.0 * point.frame.eps * (lam[..., 2:]
                                    - lam[..., 1:2] * np.conj(point.z))


def q_y_dbar(point) -> np.ndarray:
    """dbar_j q(Y) = i eps_j y_j."""
    return 1j * point.frame.eps * point.y


def ratio_dbar(lam: np.ndarray, point, pair_bar) -> np.ndarray:
    """dbar[(lambda, psi(Zbar)) / q(Y)] by the quotient rule, given the
    numerator pair_bar = (lambda, psi(Zbar)) (one per row)."""
    qy = point.q_y
    return ((pair_bar_dbar(lam, point) * _column(qy)
             - _column(pair_bar) * q_y_dbar(point))
            / _per_row(lambda q: q ** 2, qy))


def _ratio_dbar_rows(block: Block, lam: np.ndarray):
    """ratio_dbar of lam at every row of block, as row_value's (values,
    failures)."""
    return ratio_dbar(lam, block, np.conj(block.pair(lam))), {}


def ratio_field(lam_fc: np.ndarray) -> SimpleNamespace:
    """The weight -1 scalar (lambda, psi(Zbar)) / q(Y) with its closed-form
    dbar, as a field with value(point) and dbar(point).  dbar is
    _ratio_dbar_rows bound to lambda (domain.bind_rows): at a point, its
    row of one ratio_dbar over the point's block; over a block, that one
    ratio_dbar."""
    lam = np.asarray(lam_fc, dtype=float)
    return SimpleNamespace(
        value=lambda point: point.pair_bar(lam) / complex(point.q_y),
        dbar=bind_rows(_ratio_dbar_rows, lam))


# ---------------------------------------------------------------------------
# stars, xi, laplacian


def measure_factor(n: int, q_y: float) -> complex:
    """(4 i q(Y))^n, the ratio between the coordinate volume form and dmu."""
    return (4j * q_y) ** n


def star01(f: np.ndarray, eps: np.ndarray, y: np.ndarray,
           q_y) -> np.ndarray:
    """Antilinear star of a (0,1)-form, as an (n, n-1)-coefficient vector:
    out_j = -(1 / (2 (4i q_y)^n)) sum_i conj(f_i) h^{ij}, written out with
    h^{ij} = 4 y_i y_j - 2 q_y delta_ij eps_i.  f (N, n), y (N, n) and q_y
    (N,) may carry a leading row axis (f or y with one row), and then
    conj(f).y is a stacked matmul, which rounds as the 1-D product does."""
    fb = np.conj(f)
    fy = fb @ y if fb.ndim == 1 else (fb[:, None, :] @ y[..., :, None])[..., 0]
    n = y.shape[-1]
    return (-(4.0 * fy * y - 2.0 * _column(q_y) * eps * fb)
            / _per_row(lambda q: 2.0 * measure_factor(n, q), q_y))


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


def _xi_rows(block: Block, dbar, kappa: float):
    """xi_kappa at every row of block of the field whose dbar is given, as
    row_value's (values, failures): dbar over the block, by its row form
    when it has one (whose failed rows fail here), otherwise at each row's
    point, then one star01 and one q(Y)^kappa per row over all rows.  A
    row whose pointwise dbar raises ArithmeticError fails alone, with that
    exception (its traceback cleared at each request)."""
    rows = getattr(dbar, "rows", None)
    if rows is not None:
        f, failures = rows(block)
    else:
        f = np.zeros(block.z.shape, dtype=complex)
        failures = {}
        for i, point in enumerate(block):
            try:
                f[i] = dbar(point)
            except ArithmeticError as exc:
                # a kept traceback would hold this frame, and so the
                # failures
                failures[i] = partial(exc.with_traceback, None)
                exc.__traceback__ = None
    return (_per_row(lambda q: q ** kappa, block.q_y)
            * star01(f, block.frame.eps, block.y, block.q_y)), failures


def xi_scalar(field, kappa: float, point: DomainPoint) -> np.ndarray:
    """xi_kappa f as an (n, n-1)-coefficient vector: q(Y)^kappa star(dbar f),
    for a field with a dbar(point) method.  The point's row of _xi_rows over
    its block (domain.row_value, keyed by field.dbar and kappa)."""
    return row_value(point, _xi_rows, field.dbar, kappa)


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
    """The weight-kappa laplacian xi_{-kappa} xi_kappa f at a point: xi_top
    of xi_scalar's _xi_rows bound to (field.dbar, kappa), so the 8n
    stencil points share one dbar block, read by its row form when the
    field's dbar has one, and one star01."""
    return xi_top(bind_rows(_xi_rows, field.dbar, kappa), kappa, point)
