"""Single-vector kernels on the tube domain.

For a vector lambda (frame coordinates) and integer weight kappa:

* the scalar kernel (lambda, psi(Z))^-kappa;
* the (n, n-1)-form p(lambda) = xi_1 of (lambda, psi(Zbar))/q(Y), with
  closed-form coefficients;
* its weighted completion ptilde(lambda), whose xi_{-kappa} image recovers
  the scalar kernel.  Two hypergeometric representations are provided, one
  adapted to q(lambda) > 0 and one to q(lambda) < 0; they agree wherever
  both converge.

Singular loci: each row kernel hands its ordered guards to one helper that
names each singular row by its first guard, raised only when requested: the
negative-norm cycle for every kernel but p, the positive-norm one for ptilde.
Its Python arithmetic then runs row by row through special.row_map, so a row
that passes the guards but overflows (a power just outside a cycle at high
weight) fails alone, after its guard and its hypergeometric factor.

Branch bookkeeping: the only non-integer power of a sign-indefinite quantity
is the |q(lambda_{Z-})|^{n/2} in the q(lambda) > 0 denominator.  Principal
branches of the printed factors give -|q(lambda_{Z-})|^{n/2} for even n; the
implementation uses that real value for every n, the unique choice under
which the xi identity holds in all signatures (locked numerically, then
re-verified by the test suite).
"""
from __future__ import annotations

from functools import partial, reduce

import numpy as np

from .calculus import ratio_dbar, star01
from .domain import (Block, DomainPoint, act, isometry_matrix, norm_split,
                     psi_frame, row_value)
from .special import hyp2f1_rows, row_map

GUARD = 1e-12
POSITIVE = "kernel singular on the positive-norm cycle"
NEGATIVE = "kernel singular on the negative-norm cycle"


class KernelSingularity(ArithmeticError):
    """Evaluation too close to the singular locus of a kernel."""

    def __init__(self, message: str, lam, quantity: str, value: float):
        super().__init__(f"{message} ({quantity} = {value:.3e}, lambda = {lam})")
        self.reason = message
        self.lam = lam
        self.quantity = quantity
        self.value = value


def _guarded(lam: np.ndarray, guards) -> tuple[dict, np.ndarray]:
    """Ordered guards (mask, reason, quantity, values) over a row kernel's
    rows, lambda rows lam (M, n+2), as the failures {row: KernelSingularity
    factory}, each row named by its first guard, and the mask of rows left."""
    flagged = reduce(np.logical_or, [guard[0] for guard in guards])
    failures = {}
    if flagged.any():
        for mask, reason, quantity, values in guards:
            for i, value in zip(mask.nonzero()[0].tolist(),
                                values[mask].tolist()):
                if i not in failures:
                    failures[i] = partial(KernelSingularity, reason,
                                          lam[i % len(lam)].copy(),
                                          quantity, value)
    return failures, ~flagged


def _cycle_guard(pair, q_lam, q_y):
    """The negative-norm cycle's guard |(lambda, psi(Zbar))| < GUARD max(1,
    sqrt(q(Y) |q(lambda)|)), which can only trip for q(lambda) < 0."""
    size = np.hypot(pair.real, pair.imag)
    return (size < GUARD * np.maximum(1.0, np.sqrt(q_y * np.abs(q_lam))),
            NEGATIVE, "|(lambda, psi(Zbar))|", size)


# ---------------------------------------------------------------------------
# closed-form building blocks (lambda in frame coordinates)


def omega_kernel(lam_fc: np.ndarray, kappa: int, point: DomainPoint) -> complex:
    """(lambda, psi(Z))^-kappa, through row_value like p_tilde_components:
    once for every row of the point's block per (lambda, kappa)."""
    return complex(row_value(point, omega_rows,
                             np.asarray(lam_fc, dtype=float), kappa))


def omega_rows(block, lam: np.ndarray, kappa: int) -> tuple[np.ndarray, dict]:
    """The scalar kernel (lambda, psi(Z))^-kappa of lambda rows (M, n+2) or
    one lambda (n+2,) against the Z rows (N, n) of a domain.Block, where M or
    N is 1, as (values, failures), where rows at a pole fail; each power is
    taken in Python complex by row_map, bit for bit that of a single
    evaluation."""
    lam = lam.reshape(-1, block.frame.n + 2)
    pair = block.pair(lam)
    size = np.hypot(pair.real, pair.imag)
    failures, _ = _guarded(lam, [(
        size < GUARD * np.maximum(1.0, np.sqrt(block.q_y)),
        "scalar kernel pole", "|(lambda, psi(Z))|", size)])
    return row_map(lambda pr: pr ** (-kappa), [pair], failures)


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
    per (lambda, kappa).  On the negative-norm cycle it raises ptilde's
    KernelSingularity."""
    return complex(row_value(point, _dbar_reference_rows,
                             np.asarray(lam_fc, dtype=float), kappa))


def _dbar_reference_rows(block, lam, kappa):
    lam = lam.reshape(1, -1)
    pair = block.pair(lam)
    failures, _ = _guarded(lam, [
        _cycle_guard(pair, block.frame.q_lambda(lam), block.q_y)])
    return row_map(lambda pr, q: pr.conjugate() ** (-kappa) * q ** kappa,
                   [pair, block.q_y], failures)


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
    size = np.abs(q_minus)
    minus = ~plus
    # minus rows: |(lambda, psi(Zbar))|, |q_minus|; plus: |q_minus|, q_plus
    guards = [(size < scale, POSITIVE, "|q_minus|", size),
              (plus & (q_plus < scale), NEGATIVE, "q_plus", q_plus)]
    if minus.any():
        mask, *named = _cycle_guard(pair, q_lam, q_y)
        guards.insert(0, (minus & mask, *named))
    failures, left = _guarded(lam, guards)
    half = kappa - n / 2.0
    lead = -4.0 ** kappa * half
    coef = np.zeros(rows, dtype=complex)
    # the prefactor in Python complex and float arithmetic (numpy's complex
    # powers and divisions round differently), times the hypergeometric
    # factor; a row keeps its first failure: guard, factor, prefactor
    for mask, b, q_rep, prefactor in (
            (plus, half, q_plus, lambda pr, qy, qp, qm, h:
             pr ** (kappa - 1) / (lead * abs(qm) ** (n / 2.0))
             * qp ** (n / 2.0 - kappa) * h),
            (minus, 1.0, q_minus, lambda pr, qy, qp, qm, h:
             pr.conjugate() ** (1 - kappa) * qy ** (kappa - 1)
             / (4.0 * half * qm) * h)):
        take = (mask & left).nonzero()[0]
        if not len(take):
            continue
        hyp, failed = hyp2f1_rows(1.0 - n / 2.0, b, half + 1.0,
                                  q_lam[take] / q_rep[take])
        coef[take], failed = row_map(
            prefactor, [a[take] for a in (pair, q_y, q_plus, q_minus)]
            + [hyp], failed)
        failures.update({int(take[j]): f for j, f in failed.items()})
    return coef[:, None] * _p_hat(block, lam, np.conj(pair)), failures


# ---------------------------------------------------------------------------
# form-level slash action


def action_jacobian(sigma, points,
                    psi: np.ndarray | None = None) -> np.ndarray:
    """Holomorphic Jacobian J[i, k] = d(sigma Z)_i / d z_k of the action, in
    closed form: (n, n) at a point, (N, n, n) at the rows of a Block.

    In frame coordinates psi(Z) = (-q(Z), 1, Z) and
    d psi / d z_k = (-2 eps_k z_k, 0, e_k); one stacked matmul gives
    w = sigma psi(Z) and its partials.  j = (e, w) is the e~'-coordinate of
    w and sigma Z = w_W / j, so by the quotient rule
    J = (d w_W - (sigma Z) d j) / j.  psi, when given, is psi_frame of the
    points' rows."""
    frame = points.frame
    block = isinstance(points, Block)
    z = points.z if block else points.z[None]
    n = frame.n
    lift = np.zeros((len(z), n + 2, n + 1), dtype=complex)
    lift[:, :, :1] = psi_frame(frame, z) if psi is None else psi
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
    sigma Z and j, and psi(Z) is built once for it and the Jacobian."""
    psi = psi_frame(point.frame, point.z[None])
    moved, j = act(point.frame, sigma, point, psi)
    jac = action_jacobian(sigma, point, psi)
    det = np.linalg.det(jac)
    g = np.asarray(vec_func(moved), dtype=complex)
    return j ** (-weight) * (abs(det) ** 2 * np.linalg.solve(np.conj(jac), g))
