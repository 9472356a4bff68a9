"""Single-vector kernels on the tube domain.

For a vector lambda (frame coordinates) and integer weight kappa:

* the scalar kernel (lambda, psi(Z))^-kappa;
* the (n, n-1)-form p(lambda) = xi_1 of (lambda, psi(Zbar))/q(Y), with
  closed-form coefficients;
* its weighted completion ptilde(lambda), whose xi_{-kappa} image recovers
  the scalar kernel.  Two hypergeometric representations are provided, one
  adapted to q(lambda) > 0 and one to q(lambda) < 0; they agree wherever
  both converge.

Branch bookkeeping: the only non-integer power of a sign-indefinite quantity
is the |q(lambda_{Z-})|^{n/2} in the q(lambda) > 0 denominator.  Principal
branches of the printed factors give -|q(lambda_{Z-})|^{n/2} for even n; the
implementation uses that real value for every n, the unique choice under
which the xi identity holds in all signatures (locked numerically, then
re-verified by the test suite).
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .calculus import ratio_dbar, star01
from .domain import (Block, DomainPoint, act, isometry_matrix, norm_split,
                     psi_frame, row_value)
from .special import hyp2f1_rows

GUARD = 1e-12


class KernelSingularity(ArithmeticError):
    """Evaluation too close to the singular locus of a kernel."""

    def __init__(self, message: str, lam, quantity: str, value: float):
        super().__init__(f"{message} ({quantity} = {value:.3e}, lambda = {lam})")
        self.lam = lam
        self.quantity = quantity
        self.value = value


# ---------------------------------------------------------------------------
# closed-form building blocks (lambda in frame coordinates)


def omega_kernel(lam_fc: np.ndarray, kappa: int, point: DomainPoint) -> complex:
    """(lambda, psi(Z))^-kappa, with a pole guard reporting the distance
    proxy |(lambda, psi(Z))|."""
    pair = point.pair(lam_fc)
    scale = max(1.0, float(np.sqrt(point.q_y)))
    if abs(pair) < GUARD * scale:
        raise KernelSingularity("scalar kernel pole", np.asarray(lam_fc),
                                "|(lambda, psi(Z))|", abs(pair))
    return pair ** (-kappa)


def _p_hat(block, lam: np.ndarray, pair_bar: np.ndarray) -> np.ndarray:
    """p(lambda) in the hat basis, one row per (lambda, Z) row, given
    pair_bar = (lambda, psi(Zbar)): q(Y) star01(ratio_dbar)."""
    f = ratio_dbar(lam, block, pair_bar)
    return block.q_y[:, None] * star01(f, block.frame.eps, block.y,
                                       block.q_y)


def p_components(lam_fc: np.ndarray, point: DomainPoint) -> np.ndarray:
    """The (n, n-1)-form xi_1[(lambda, psi(Zbar))/q(Y)] in the hat basis,
    through row_value like p_tilde_components."""
    return row_value(point, _p_rows, np.asarray(lam_fc, dtype=float))


def _p_rows(block, lam):
    lam = lam.reshape(1, -1)
    return _p_hat(block, lam, np.conj(block.pair(lam))), {}


def xi_image_reference(lam_fc: np.ndarray, kappa: int,
                       point: DomainPoint) -> complex:
    """The target of the xi identity: (lambda, psi(Z))^-kappa."""
    return point.pair(lam_fc) ** (-kappa)


def dbar_image_reference(lam_fc: np.ndarray, kappa: int,
                         point: DomainPoint) -> complex:
    """dmu-coefficient of dbar ptilde: (lambda, psi(Zbar))^-kappa q(Y)^kappa.

    Evaluated through row_value: once for every row of the point's block
    per (lambda, kappa)."""
    return complex(row_value(point, _dbar_reference_rows,
                             np.asarray(lam_fc, dtype=float), kappa))


def _dbar_reference_rows(block, lam, kappa):
    pair_bar = np.conj(block.pair(lam.reshape(1, -1)))
    out = np.empty(len(pair_bar), dtype=complex)
    failures = {}
    for i, (pb, q) in enumerate(zip(pair_bar.tolist(),
                                    block.q_y.tolist())):
        try:
            out[i] = pb ** (-kappa) * q ** kappa
        except ZeroDivisionError as exc:
            failures[i] = partial(ZeroDivisionError, *exc.args)
    return out, failures


def p_tilde_components(lam_fc: np.ndarray, kappa: int, point: DomainPoint,
                       rep: str = "auto") -> np.ndarray:
    """The xi-preimage kernel as an (n, n-1)-coefficient vector.

    rep selects the hypergeometric representation: "plus" (adapted to
    q(lambda) > 0, argument q/q_plus), "minus" (adapted to q(lambda) < 0,
    argument q/q_minus), or "auto".  The pairing (lambda, psi(Z)) is
    evaluated once; its conjugate (lambda, psi(Zbar)), q_plus / q_minus and
    both prefactors are derived from it.

    Evaluated through row_value by p_tilde_rows: the kernel of every row
    of the point's block (the point alone, when standalone) is computed at
    the first call for (lambda, kappa, rep), and later calls at the
    block's points read it from the memo.  A singular row raises
    KernelSingularity only when that row is requested; the returned array
    is a fresh copy.
    """
    return row_value(point, p_tilde_rows, np.asarray(lam_fc, dtype=float),
                     kappa, rep)


def p_tilde_rows(block, lam: np.ndarray, kappa: int,
                 rep: str = "auto") -> tuple[np.ndarray, dict]:
    """The xi-preimage kernel of lambda rows (M, n+2) or one lambda (n+2,)
    against the Z rows (N, n) of a domain.Block, where M or N is 1: one row
    per (lambda, Z) pair, as (values, failures).  failures maps each
    singular row, or one whose hypergeometric series fails, to a factory of
    the exception p_tilde_components raises there.  Each row is bit for bit
    the value of a single evaluation.  Invalid kappa or rep raise at once.
    """
    frame = block.frame
    n = frame.n
    if 2 * kappa <= n:
        raise ValueError("need kappa > n/2")
    lam = lam.reshape(-1, n + 2)
    q_lam = frame.q_lambda(lam)
    if rep == "auto":
        if not q_lam.all():
            raise ValueError("q(lambda) = 0 is out of scope")
        plus = q_lam > 0
    elif rep in ("plus", "minus"):
        plus = np.full(len(q_lam), rep == "plus")
    else:
        raise ValueError(f"unknown representation {rep!r}")
    pair = block.pair(lam)
    rows = len(pair)
    q_plus, q_minus = norm_split(q_lam, pair, block.q_y)
    plus, q_lam, q_y = (a if len(a) == rows else a.repeat(rows)
                        for a in (plus, q_lam, block.q_y))
    scale = GUARD * np.maximum(1.0, np.abs(q_lam))
    bad = (np.abs(q_minus) < scale) | (plus & (q_plus < scale))
    minus = ~plus
    if minus.any():
        bad |= minus & (np.hypot(pair.real, pair.imag) < GUARD * np.maximum(
            1.0, np.sqrt(q_y * np.abs(q_lam))))
    failures = {}
    if bad.any():
        failures = {
            i: _singular(lam[i % len(lam)].copy(), plus[i], *row)
            for i, *row in zip(bad.nonzero()[0].tolist(),
                               *(a[bad].tolist() for a in (
                                   q_lam, q_y, pair, q_plus, q_minus)))}
    half = kappa - n / 2.0
    coef = np.zeros(rows, dtype=complex)
    good = ~bad
    for rep_plus, mask in ((True, plus), (False, minus)):
        take = (mask & good).nonzero()[0]
        if not len(take):
            continue
        hyp, failed = hyp2f1_rows(
            1.0 - n / 2.0, half if rep_plus else 1.0, half + 1.0,
            q_lam[take] / (q_plus if rep_plus else q_minus)[take])
        for j, factory in failed.items():
            failures[int(take[j])] = factory
        scalars = zip(pair[take].tolist(), q_y[take].tolist(),
                      q_plus[take].tolist(), q_minus[take].tolist(),
                      hyp.tolist())
        # the prefactor in Python complex and float arithmetic (numpy's
        # complex powers and divisions round differently), times the
        # hypergeometric factor
        if rep_plus:
            lead = -4.0 ** kappa * half
            coef[take] = [pr ** (kappa - 1) / (lead * abs(qm) ** (n / 2.0))
                          * qp ** (n / 2.0 - kappa) * h
                          for pr, qy, qp, qm, h in scalars]
        else:
            coef[take] = [pr.conjugate() ** (1 - kappa) * qy ** (kappa - 1)
                          / (4.0 * half * qm) * h
                          for pr, qy, qp, qm, h in scalars]
    return coef[:, None] * _p_hat(block, lam, np.conj(pair)), failures


POSITIVE = "kernel singular on the positive-norm cycle"
NEGATIVE = "kernel singular on the negative-norm cycle"


def _singular(lam, plus, q_lam, q_y, pair, q_plus, q_minus):
    """The KernelSingularity factory of a row that fails a guard of its
    representation, on the row's Python values: for "plus" |q_minus| then
    q_plus, for "minus" |(lambda, psi(Zbar))| then |q_minus|."""
    scale = max(1.0, abs(q_lam))
    if plus:
        if abs(q_minus) < GUARD * scale:
            return partial(KernelSingularity, POSITIVE, lam, "|q_minus|",
                           abs(q_minus))
        return partial(KernelSingularity, NEGATIVE, lam, "q_plus", q_plus)
    pair_bar = pair.conjugate()
    if abs(pair_bar) < GUARD * max(1.0, math.sqrt(q_y * abs(q_lam))):
        return partial(KernelSingularity, NEGATIVE, lam,
                       "|(lambda, psi(Zbar))|", abs(pair_bar))
    return partial(KernelSingularity, POSITIVE, lam, "|q_minus|",
                   abs(q_minus))


# ---------------------------------------------------------------------------
# form-level slash action


def action_jacobian(sigma, points) -> np.ndarray:
    """Holomorphic Jacobian J[i, k] = d(sigma Z)_i / d z_k of the action, in
    closed form: (n, n) at a point, (N, n, n) at the rows of a Block.

    In frame coordinates psi(Z) = (-q(Z), 1, Z) and
    d psi / d z_k = (-2 eps_k z_k, 0, e_k); one stacked matmul gives
    w = sigma psi(Z) and its partials.  j = (e, w) is the e~'-coordinate of
    w and sigma Z = w_W / j, so by the quotient rule
    J = (d w_W - (sigma Z) d j) / j."""
    frame = points.frame
    block = isinstance(points, Block)
    z = points.z if block else points.z[None]
    n = frame.n
    lift = np.zeros((len(z), n + 2, n + 1), dtype=complex)
    lift[:, :, :1] = psi_frame(frame, z)
    lift[:, 0, 1:] = -2.0 * frame.eps * z
    lift[:, 2:, 1:] = np.eye(n)
    w = (frame.to_frame @ isometry_matrix(sigma) @ frame.from_frame) @ lift
    j = w[:, 1:2, :1]
    jac = (w[:, 2:, 1:] - w[:, 2:, :1] / j * w[:, 1:2, 1:]) / j
    return jac if block else jac[0]


def form_slash(sigma, vec_func, weight: int, point: DomainPoint) -> np.ndarray:
    """(H |_w sigma)(Z) = j(sigma, Z)^-w (sigma^* H)(Z) on (n, n-1)-forms,
    with the pullback along Z -> sigma Z in hat coefficients
    (sigma^* H)(Z) = |det J|^2 conj(J)^{-1} H(sigma Z).  One act gives
    sigma Z and j."""
    moved, j = act(point.frame, sigma, point)
    jac = action_jacobian(sigma, point)
    det = np.linalg.det(jac)
    g = np.asarray(vec_func(moved), dtype=complex)
    return j ** (-weight) * (abs(det) ** 2 * np.linalg.solve(np.conj(jac), g))
