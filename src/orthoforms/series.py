"""Truncated norm-class series with tail estimates and modularity defect.

A series spec fixes a lattice coset, a rational norm m, an integer weight
kappa and a truncation bound B.  Evaluation at a point Z enumerates every
coset vector of norm m whose positive-definite majorant at Z stays below
B, and sums either the scalar kernel (lambda, psi(Z))^-kappa or the
form-valued xi-preimage kernel over that set.  m > 0 selects the cusp
family (no poles on the domain); m < 0 selects the meromorphic family
with singularities along the complex-codimension-1 cycles of the
enumerated vectors.

Two deliberate contracts:

* Summation runs in the lexicographic vector order produced by the
  enumerator, with compensated (Kahan) accumulation, so identical inputs
  give bit-identical results.
* The tail estimate is a declared heuristic, not an analytic bound: the
  number of vectors in the outer majorant shell [B/2, B] times the
  largest term modulus on that shell.  Convergence tests are phrased
  against this estimator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .domain import Block, DomainPoint, WittFrame, act, majorant_at
from .kernels import KernelSingularity, omega_rows, p_tilde_rows
from .quadratic import Isometry, MajorantPoints, Vec, as_vec, majorant_points

__all__ = [
    "SeriesError", "SeriesSpec", "SeriesResult", "enumerate_class",
    "sum_omega", "sum_Omega", "bound_sum_Omega", "eval_omega", "eval_Omega",
    "eval_Omega_class", "modularity_defect", "modularity_check",
]


class SeriesError(ValueError):
    """Invalid series parameters; field names the offending SeriesSpec
    field, when there is one."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a truncated norm-class series."""

    frame: WittFrame
    coset: Vec
    m: Fraction
    kappa: int
    bound: float
    group: tuple[Isometry, ...] = ()

    @classmethod
    def create(cls, frame: WittFrame, coset, m, kappa: int, bound: float,
               group: tuple[Isometry, ...] = ()) -> "SeriesSpec":
        m = Fraction(m)
        kappa = int(kappa)
        bound = float(bound)
        if m == 0:
            raise SeriesError("norm m must be nonzero (m > 0 cusp family, "
                              "m < 0 meromorphic family)", "m")
        if kappa <= frame.n:
            raise SeriesError(
                f"weight kappa = {kappa} must exceed n = {frame.n}", "kappa")
        if not 0 < bound < float("inf"):
            raise SeriesError(
                f"truncation bound must be positive and finite, got {bound}",
                "bound")
        coset_v = as_vec(coset)
        lattice = frame.lattice
        if len(coset_v) != lattice.dim:
            raise SeriesError("coset vector has the wrong dimension", "coset")
        # L is even, so the norms of coset + L lie in q(coset) + Z/d, d the
        # least common denominator of the pairings (coset, basis_i)
        d = lcm(*(sum(c * g for c, g in zip(coset_v, row)).denominator
                  for row in lattice.gram))
        q_coset = lattice.q(coset_v)
        if ((m - q_coset) * d).denominator != 1:
            step = "Z" if d == 1 else f"Z/{d}"
            raise SeriesError(f"norm m = {m} is not in q(coset) + {step} = "
                              f"{q_coset} + {step}, so its class is empty",
                              "m")
        return cls(frame, coset_v, m, kappa, bound, group)

    def rescale(self, bound: float) -> "SeriesSpec":
        """Same class at a different truncation bound."""
        return SeriesSpec.create(self.frame, self.coset, self.m, self.kappa,
                                 bound, self.group)


class SeriesResult(NamedTuple):
    value: complex | np.ndarray
    tail: float
    count: int


def _class_points(spec: SeriesSpec, point: DomainPoint) -> MajorantPoints:
    """The class's kept vectors at the point with their float coordinates
    and majorant values, from one enumeration."""
    m_gram = majorant_at(spec.frame, point)
    return majorant_points(spec.frame.lattice, m_gram, spec.m, spec.coset,
                           spec.bound)


def enumerate_class(spec: SeriesSpec, point: DomainPoint) -> list[Vec]:
    """Lexicographically sorted coset vectors of norm m whose majorant at
    the point is at most the bound."""
    return _class_points(spec, point).vectors()


def _kahan(terms: list, zero: complex) -> complex:
    """Ordered compensated (Kahan) sum of terms, from zero."""
    total = comp = zero
    for t in terms:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def _accumulate(values: np.ndarray, zero):
    """Ordered compensated (Kahan) sum of the rows of values starting from
    zero, a complex scalar or a fixed-shape array (summed column by column,
    each column as a scalar sum), in Python complex; returns (total,
    per-term max moduli), the moduli an array from one np.abs over
    values."""
    sizes = np.abs(values)
    if values.ndim == 1:
        return _kahan(values.tolist(), zero), sizes
    total = [_kahan(column, start)
             for column, start in zip(values.T.tolist(), zero.tolist())]
    return np.array(total, dtype=complex), sizes.max(axis=1)


def _walk(rows, frame: WittFrame, vectors, lams: np.ndarray, kappa: int,
          point: DomainPoint, zero):
    """The compensated sum from zero and the per-term sizes of the kernels
    rows(block, lams, kappa) of the vectors, given by the rows of their
    frame coordinates lams, in order, from one row call (the vectors' rows
    against the one point).  The first failing term raises its exception's
    type, naming its vector, vectors()[i], entry by entry as str prints
    it."""
    if not len(lams):
        return zero, np.empty(0)
    values, failures = rows(Block(frame, point.z[None]), lams, kappa)
    if failures:
        i = min(failures)
        exc = failures[i]()
        where = f"lattice vector ({', '.join(map(str, vectors()[i]))})"
        if isinstance(exc, KernelSingularity):
            raise KernelSingularity(
                f"series term singular at {where}: {exc.reason}", exc.lam,
                exc.quantity, exc.value) from exc
        raise type(exc)(f"series term failed at {where}: {exc}") from exc
    return _accumulate(values, zero)


def _frame_rows(frame: WittFrame, coords: np.ndarray) -> np.ndarray:
    """The frame coordinates to_frame @ x of float coordinate rows x (N, d)
    from one stacked product, each row bit for bit frame.frame_coords of
    its vector."""
    return (frame.to_frame @ coords[:, :, None])[:, :, 0]


def _bound_sum(rows, frame: WittFrame, vectors, kappa: int, zero):
    """point -> the compensated sum of the kernels rows(block, lams, kappa)
    of a fixed vector list, in list order, from zero; the vectors' float
    and frame coordinates are converted from their Fractions once, here."""
    vectors = list(vectors)
    coords = np.array([[float(a) for a in as_vec(v)] for v in vectors],
                      dtype=float).reshape(len(vectors), frame.lattice.dim)
    lams = _frame_rows(frame, coords)
    return lambda point: _walk(rows, frame, lambda: vectors, lams, kappa,
                               point, zero)[0]


def sum_omega(frame: WittFrame, vectors, kappa: int,
              point: DomainPoint) -> complex:
    """Compensated sum of (lambda, psi(Z))^-kappa over a fixed vector list,
    in list order."""
    return _bound_sum(omega_rows, frame, vectors, kappa, 0j)(point)


def bound_sum_Omega(frame: WittFrame, vectors, kappa: int):
    """sum_Omega bound to a fixed vector list and weight, as a function of
    one point: the list is converted to frame coordinates once, so a
    stencil or a walk over many points pays for it once."""
    return _bound_sum(p_tilde_rows, frame, vectors, kappa,
                      np.zeros(frame.n, dtype=complex))


def sum_Omega(frame: WittFrame, vectors, kappa: int,
              point: DomainPoint) -> np.ndarray:
    """Componentwise compensated sum of the xi-preimage kernel over a fixed
    vector list, in list order."""
    return bound_sum_Omega(frame, vectors, kappa)(point)


def _evaluate(spec: SeriesSpec, point: DomainPoint, rows, zero,
              found: MajorantPoints) -> SeriesResult:
    """Sum the kernels rows(block, lams, kappa) of the class's vectors at
    the point, found by one enumeration, from zero, and estimate the tail
    on the outer majorant shell from the enumeration's majorant values."""
    total, sizes = _walk(rows, spec.frame, found.vectors,
                         _frame_rows(spec.frame, found.coords), spec.kappa,
                         point, zero)
    # count times max term over the shell [B/2, B]; sizes > 0 leaves out NaN
    shell = found.values >= spec.bound / 2.0
    top = np.max(sizes[shell & (sizes > 0)], initial=0.0)
    return SeriesResult(total, np.count_nonzero(shell) * float(top),
                        len(found.values))


def eval_omega(spec: SeriesSpec, point: DomainPoint) -> SeriesResult:
    """Truncated scalar series: (value, tail estimate, term count)."""
    return _evaluate(spec, point, omega_rows, 0j, _class_points(spec, point))


def eval_Omega(spec: SeriesSpec, point: DomainPoint) -> SeriesResult:
    """Truncated form-valued series: componentwise sum of the xi-preimage
    kernel, with the analogous shell tail estimate."""
    return eval_Omega_class(spec, point)[0]


def eval_Omega_class(spec: SeriesSpec, point: DomainPoint
                     ) -> tuple[SeriesResult, MajorantPoints]:
    """eval_Omega and the enumeration it sums over, whose vectors() are
    the class's vectors in summation order."""
    found = _class_points(spec, point)
    return (_evaluate(spec, point, p_tilde_rows,
                      np.zeros(spec.frame.n, dtype=complex), found), found)


def modularity_defect(spec: SeriesSpec, point: DomainPoint,
                      gamma: Isometry) -> float:
    """|(S|_kappa gamma)(Z) - S(Z)| for the truncated scalar series S.

    The truncated sum is only approximately invariant: the enumeration
    sets at Z and gamma Z can disagree near the majorant cutoff.  The
    contract, exercised by the tests, is that the defect stays below the
    sum of the two tail estimates.
    """
    return modularity_check(spec, eval_omega(spec, point), point, gamma)[0]


def modularity_check(spec: SeriesSpec, base: SeriesResult, point: DomainPoint,
                     gamma: Isometry) -> tuple[float, SeriesResult]:
    """The modularity defect for a series already evaluated at the point,
    base = eval_omega(spec, point), and the series at gamma Z it evaluates
    on the way."""
    if isinstance(gamma, Isometry) and not gamma.preserves(spec.frame.lattice):
        raise SeriesError("gamma does not preserve the lattice")
    moved, j = act(spec.frame, gamma, point)
    far = eval_omega(spec, moved)
    return abs(j ** (-spec.kappa) * far.value - base.value), far
