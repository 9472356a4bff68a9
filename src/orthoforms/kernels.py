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

import numpy as np

from .calculus import ratio_dbar, star01
from .domain import DomainPoint, act, isometry_matrix, norm_split
from .special import hyp2f1

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


def _p_hat(lam: np.ndarray, point: DomainPoint,
           pair_bar: complex) -> np.ndarray:
    """p(lambda) in the hat basis, given pair_bar = (lambda, psi(Zbar))."""
    f = ratio_dbar(lam, point, pair_bar)
    return point.q_y * star01(f, point.frame.eps, point.y, point.q_y)


def p_components(lam_fc: np.ndarray, point: DomainPoint) -> np.ndarray:
    """The (n, n-1)-form xi_1[(lambda, psi(Zbar))/q(Y)] in the hat basis."""
    lam = np.asarray(lam_fc, dtype=float)
    return _p_hat(lam, point, point.pair_bar(lam))


def xi_image_reference(lam_fc: np.ndarray, kappa: int,
                       point: DomainPoint) -> complex:
    """The target of the xi identity: (lambda, psi(Z))^-kappa."""
    return point.pair(lam_fc) ** (-kappa)


def dbar_image_reference(lam_fc: np.ndarray, kappa: int,
                         point: DomainPoint) -> complex:
    """dmu-coefficient of dbar ptilde: (lambda, psi(Zbar))^-kappa q(Y)^kappa."""
    return point.pair_bar(lam_fc) ** (-kappa) * point.q_y ** kappa


def p_tilde_components(lam_fc: np.ndarray, kappa: int, point: DomainPoint,
                       rep: str = "auto") -> np.ndarray:
    """The xi-preimage kernel as an (n, n-1)-coefficient vector.

    rep selects the hypergeometric representation: "plus" (adapted to
    q(lambda) > 0, argument q/q_plus), "minus" (adapted to q(lambda) < 0,
    argument q/q_minus), or "auto".  The pairing (lambda, psi(Z)) is
    evaluated once; its conjugate (lambda, psi(Zbar)), q_plus / q_minus and
    both prefactors are derived from it.
    """
    lam = np.asarray(lam_fc, dtype=float)
    frame = point.frame
    n = frame.n
    if 2 * kappa <= n:
        raise ValueError("need kappa > n/2")
    q_lam = frame.q_lambda(lam)
    if rep == "auto":
        if q_lam == 0.0:
            raise ValueError("q(lambda) = 0 is out of scope")
        rep = "plus" if q_lam > 0 else "minus"
    pair = point.pair(lam)
    pair_bar = pair.conjugate()
    q_plus, q_minus = norm_split(q_lam, pair, point.q_y)
    scale = max(1.0, abs(q_lam))
    p = _p_hat(lam, point, pair_bar)
    half = kappa - n / 2.0

    if rep == "plus":
        if abs(q_minus) < GUARD * scale:
            raise KernelSingularity("kernel singular on the positive-norm "
                                    "cycle", lam, "|q_minus|", abs(q_minus))
        if q_plus < GUARD * scale:
            raise KernelSingularity("kernel singular on the negative-norm "
                                    "cycle", lam, "q_plus", q_plus)
        hyp = hyp2f1(1.0 - n / 2.0, half, half + 1.0, q_lam / q_plus)
        pref = (pair ** (kappa - 1)
                / (-4.0 ** kappa * half * abs(q_minus) ** (n / 2.0))
                * q_plus ** (n / 2.0 - kappa))
        return pref * hyp * p

    if rep == "minus":
        pair_scale = max(1.0, float(np.sqrt(point.q_y * abs(q_lam))))
        if abs(pair_bar) < GUARD * pair_scale:
            raise KernelSingularity("kernel singular on the negative-norm "
                                    "cycle", lam, "|(lambda, psi(Zbar))|",
                                    abs(pair_bar))
        if abs(q_minus) < GUARD * scale:
            raise KernelSingularity("kernel singular on the positive-norm "
                                    "cycle", lam, "|q_minus|", abs(q_minus))
        hyp = hyp2f1(1.0 - n / 2.0, 1.0, half + 1.0, q_lam / q_minus)
        pref = (pair_bar ** (1 - kappa) * point.q_y ** (kappa - 1)
                / (4.0 * half * q_minus))
        return pref * hyp * p

    raise ValueError(f"unknown representation {rep!r}")


# ---------------------------------------------------------------------------
# form-level slash action


def action_jacobian(sigma, point: DomainPoint) -> np.ndarray:
    """Holomorphic Jacobian J[i, k] = d(sigma Z)_i / d z_k of the action, in
    closed form.

    In frame coordinates psi(Z) = (-q(Z), 1, Z) and
    d psi / d z_k = (-2 eps_k z_k, 0, e_k); one matrix product gives
    w = sigma psi(Z) and its partials.  j = (e, w) is the e~'-coordinate of
    w and sigma Z = w_W / j, so by the quotient rule
    J = (d w_W - (sigma Z) d j) / j."""
    frame = point.frame
    n = frame.n
    lift = np.zeros((n + 2, n + 1), dtype=complex)
    lift[0, 0] = -point.q_z
    lift[1, 0] = 1.0
    lift[2:, 0] = point.z
    lift[0, 1:] = -2.0 * frame.eps * point.z
    lift[2:, 1:] = np.eye(n)
    w = (frame.to_frame @ isometry_matrix(sigma) @ frame.from_frame) @ lift
    j = w[1, 0]
    return (w[2:, 1:] - np.outer(w[2:, 0] / j, w[1, 1:])) / j


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
