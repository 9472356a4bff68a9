"""Cycle models, tube neighborhoods, and windowed cycle integrals.

Two cycle families are modeled in a fixed Witt frame, each as a transported
copy of a coordinate model:

* positive-norm vectors mu: the real-analytic cycle through the model line
  Z = (i y1', x2', ..., xn'), carried to mu by a real isometry gamma with
  sqrt(q(mu)) gamma b1 = mu;
* negative-norm vectors nu: the complex-codimension-1 cycle modeled on
  {z_n = 0}, with model vector a negative multiple of -b_n so that
  (nu, psi(Z)) = 2 sqrt(|q(nu)|) z_n.

Around the first family, the explicit collar map

    phi:  z1 = y1' x1' + i y1',   z_j = x_j' + i y1' y_j'

identifies (cycle window) x (-eps, eps)^n with the tube of radius eps.
Its faces (the caps x1' = +-eps and the laterals |y_j'| = eps), the shell
strips between two radii and the cycle itself (x1', y2', ..., yn' frozen
at 0, where phi is model_z) are boxes of these collar coordinates, walked
by one node generator that computes each box's collar map and closed-form
Jacobian once per grid, as arrays over its node rows.  On a transported
chart the Jacobian is pushed forward by the action Jacobian, so the
cycle's dZ is the model parameters' dy1' dx2' ... dxn' times det J =
j(gamma, Z')^{-n}, as on the faces.  Every integral above a compact window
is a tensor Gauss-Legendre rule with a node-doubling error estimate.

The restriction to the algebraic family integrates over circle fibers
|z_n| = eps sqrt(q(Y')) above the window nodes; each fiber is one trapezoid
rule whose angles, phases, Z rows, denominators and slot weights are
arrays, and the coarse rule of its error estimate is the even-indexed fine
nodes.

Every quadrature holds the points of its node rows as a domain.Block,
which a transported chart moves by one act and one action_jacobian, and
evaluates its integrands over it by domain.at_rows (a WindowBump, its
value and dbar and a kernel bound to (lambda, kappa) carry row forms).
The face, shell and cycle-C integrals are summed one block of at most
_BLOCK_ROWS nodes at a time: h (and dbar h) at every node of the block,
then H (and the shell's dbar coefficient) at the nodes where h (or dbar
h) is nonzero.  Dot products are one stacked matmul, products and powers
are taken in Python arithmetic (numpy's complex array products and powers
round differently from the node loop's scalar ones), and terms are added
in node order, so every sum equals the node-by-node loop bit for bit.

All quadrature faces are oriented against the parameter order
(x1', y1', x2', y2', ...), which is orientation-positive for the domain;
a face freezing the k-th parameter at its boundary with outward direction
d carries the induced sign d (-1)^k.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import measure_factor, richardson
from .domain import Block, BoundaryError, ComponentError, DomainPoint, \
    WittFrame, act, at_rows, bind_rows, q_plus_minus
from .kernels import action_jacobian
from .quadratic import Vec, as_vec, vec_float
from .special import gauss_legendre_grid

__all__ = [
    "CycleError", "QuadratureError", "CycleChart", "RestrictSample",
    "WindowBump", "transport_to", "tube_boundary_integral",
    "cycle_integral_C", "shell_stokes", "restrict_samples",
    "cycle_integral_T", "hat_sign",
]


class CycleError(ValueError):
    """Invalid cycle data."""


class QuadratureError(ArithmeticError):
    """Node doubling failed to confirm the requested accuracy."""

    def __init__(self, message: str, coarse, fine):
        super().__init__(f"{message}: coarse = {coarse}, fine = {fine}")
        self.coarse = coarse
        self.fine = fine


def hat_sign(n: int, j: int) -> float:
    """Sign s_j relating the j-th hat-basis (n, n-1)-form to the ordered
    product dz_1..dz_n dzbar_1..(skip j)..dzbar_n; j is 1-based."""
    return -1.0 if (n + j + (n * (n - 1)) // 2) % 2 else 1.0


def _top_sign(n: int) -> float:
    """dz_1..dz_n dzbar_1..dzbar_n = this sign times the interleaved
    product of dz_j dzbar_j."""
    return -1.0 if ((n * (n - 1)) // 2) % 2 else 1.0


# ---------------------------------------------------------------------------
# transports


def _reflection(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of x -> x - (x, v) v / q(v) for the bilinear form g."""
    qv = 0.5 * float(v @ g @ v)
    return np.eye(len(v)) - np.outer(v, g @ v) / qv


def _model_and_target(frame: WittFrame, vector: Vec,
                      q: float) -> tuple[np.ndarray, np.ndarray]:
    """The model column (b1 for q > 0, -b_n for q < 0) and the cycle vector
    scaled to unit norm, v / sqrt(|q|), both in lattice coordinates."""
    model = frame.from_frame[:, 2 if q > 0 else frame.n + 1].astype(float)
    if q < 0:
        model = -model
    return model, vec_float(vector) / np.sqrt(abs(q))


def transport_to(frame: WittFrame, vector: Sequence) -> np.ndarray:
    """A real isometry gamma with sqrt(|q|) gamma (model) = vector, where the
    model is b1 for positive norm and -b_n for negative norm.

    Built from one or two hyperplane reflections; the variant that keeps the
    fixed component of the domain is selected by a probe point.
    """
    g = frame.gram_float
    vec = as_vec(vector)
    q = float(frame.lattice.q(vec))
    if q == 0:
        raise CycleError("cycle vector must have nonzero norm")
    n = frame.n
    model, target = _model_and_target(frame, vec, q)
    if np.max(np.abs(model - target)) < 1e-12:
        return np.eye(len(vec))

    candidates = []
    diff = model - target
    qd = 0.5 * float(diff @ g @ diff)
    if abs(qd) > 1e-9:
        candidates.append(_reflection(g, diff))
    summ = -model - target
    qs = 0.5 * float(summ @ g @ summ)
    if abs(qs) > 1e-9:
        candidates.append(_reflection(g, summ) @ _reflection(g, model))

    probe_z = np.full(n, 0.05 + 0.11j, dtype=complex)
    probe_z[0] = 0.1 + 1.2j
    probe = DomainPoint(frame, probe_z)
    for mat in candidates:
        if np.max(np.abs(mat @ model - target)) > 1e-9:
            continue
        try:
            act(frame, mat, probe)
        except (ComponentError, BoundaryError):
            continue
        return mat
    raise CycleError("no component-preserving transport found")


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class CycleChart:
    """A windowed model of one cycle: transport, parameter box, node counts."""

    kind: str
    frame: WittFrame
    vector: Vec
    norm: float
    transport: np.ndarray
    window: tuple[tuple[float, float], ...]
    nodes: tuple[int, ...]
    collar_nodes: int

    @classmethod
    def create(cls, frame: WittFrame, vector, window, nodes,
               collar_nodes: int = 16) -> "CycleChart":
        vec = as_vec(vector)
        if len(vec) != frame.lattice.dim:
            raise CycleError("cycle vector has the wrong dimension")
        q = float(frame.lattice.q(vec))
        if q > 0:
            kind, expected_axes = "real_analytic", frame.n
        elif q < 0:
            kind, expected_axes = "algebraic", 2 * (frame.n - 1)
            if frame.n < 2:
                raise CycleError("negative-norm cycles need n >= 2")
        else:
            raise CycleError("cycle vector must have nonzero norm")
        window = tuple((float(a), float(b)) for a, b in window)
        if len(window) != expected_axes:
            raise CycleError(f"window must have {expected_axes} axes")
        if any(not b > a for a, b in window):
            raise CycleError("window intervals must be nondegenerate")
        # y1' is the first window axis of C and the second of T
        if window[0 if kind == "real_analytic" else 1][0] <= 0:
            raise CycleError("the y1' window must stay positive")
        nodes = tuple(int(k) for k in nodes)
        collar_nodes = int(collar_nodes)
        if len(nodes) != expected_axes or min(nodes + (collar_nodes,)) < 2:
            raise CycleError("need at least 2 quadrature nodes per axis")
        chart = cls(kind, frame, vec, q, transport_to(frame, vec), window,
                    nodes, collar_nodes)
        chart._check()
        return chart

    # -- validation ---------------------------------------------------------

    def _check(self) -> None:
        g = self.frame.gram_float
        defect = np.max(np.abs(self.transport.T @ g @ self.transport - g))
        if defect > 1e-12:
            raise CycleError(f"transport is not an isometry (defect {defect:.2e})")
        model, target = _model_and_target(self.frame, self.vector, self.norm)
        carry = np.max(np.abs(self.transport @ model - target))
        if carry > 1e-9:
            raise CycleError(f"transport misses the cycle vector ({carry:.2e})")
        if self.membership_defect() > 1e-10:
            raise CycleError("transported base cycle fails the membership test")

    def membership_defect(self) -> float:
        """max |q(lambda_{Z-+})| of the cycle vector over a coarse sample of
        transported window nodes (the sign opposite to the vector's norm):
        three interior points per axis."""
        samples = [np.linspace(a, b, 5)[1:-1] for a, b in self.window]
        z = self.model_z(np.array(list(itertools.product(*samples))))
        points, _ = act(self.frame, self.transport, Block(self.frame, z))
        q_plus, q_minus = q_plus_minus(
            self.frame, self.frame.frame_coords(self.vector), points)
        return float(np.max(np.abs(q_minus if self.norm > 0 else q_plus)))

    # -- geometry -----------------------------------------------------------

    @cached_property
    def is_identity_transport(self) -> bool:
        return bool(np.max(np.abs(self.transport -
                                  np.eye(self.frame.lattice.dim))) < 1e-14)

    def model_z(self, params: np.ndarray) -> np.ndarray:
        """Model-chart coordinates Z of window parameters, one row per
        parameter row: (..., axes) -> (..., n)."""
        params = np.asarray(params, dtype=float)
        n = self.frame.n
        z = np.zeros(params.shape[:-1] + (n,), dtype=complex)
        if self.kind == "real_analytic":
            z[..., 0] = 1j * params[..., 0]
            z[..., 1:] = params[..., 1:]
        else:
            pairs = params.reshape(params.shape[:-1] + (n - 1, 2))
            z[..., :n - 1] = pairs[..., 0] + 1j * pairs[..., 1]
        return z


# ---------------------------------------------------------------------------
# the collar map and its exact partials, one row per quadrature node

# grid rows whose geometry is held as arrays at once: enough to make the
# per-row numpy cost negligible, few enough that a fine grid's columns and
# minor blocks stay a few hundred kilobytes
_BLOCK_ROWS = 512


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum of the rows of terms in index order, rounded as the loop
    `acc = 0; acc += row` rounds it (np.sum may add pairwise); the `+ 0.0`
    gives an exact zero the loop's sign."""
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


def _add_in_order(total, terms) -> complex:
    """total + terms[0] + terms[1] + ..., rounded as `total += term` is."""
    return _sum_in_order(np.array([total, *terms]))


def _phi(u: np.ndarray) -> np.ndarray:
    """Collar coordinates u = (x1', y1', x2', y2', ...) -> Z, row by row:
    (N, 2n) -> (N, n)."""
    x = u[:, 0::2]
    y = u[:, 1::2]
    z = x + 1j * y[:, :1] * y
    z[:, 0] = y[:, 0] * x[:, 0] + 1j * y[:, 0]
    return z


def _phi_jacobian(u: np.ndarray) -> np.ndarray:
    """d z_a / d u_k in closed form, row by row: (N, 2n) -> (N, n, 2n)."""
    n = u.shape[1] // 2
    x = u[:, 0::2]
    y = u[:, 1::2]
    dz = np.zeros((len(u), n, 2 * n), dtype=complex)
    dz[:, 0, 0] = y[:, 0]
    dz[:, 0, 1] = x[:, 0] + 1j
    for j in range(1, n):
        dz[:, j, 1] = 1j * y[:, j]
        dz[:, j, 2 * j] = 1.0
        dz[:, j, 2 * j + 1] = 1j * y[:, 0]
    return dz


def _hat_minors(cols: np.ndarray) -> np.ndarray:
    """Signed hat-basis minors of face tangents: for columns
    (N, n, 2n-1) = d z / d(free params), out[:, j] is s_j times the
    determinant of the dz rows over the dzbar rows without dzbar_j,
    taken by one stacked det over (N, n, 2n-1, 2n-1)."""
    n = cols.shape[1]
    blocks = np.empty((len(cols), n) + cols.shape[2:] * 2, dtype=complex)
    blocks[:, :, :n] = cols[:, None]
    for j in range(n):
        np.conj(cols[:, :j], out=blocks[:, j, n:n + j])
        np.conj(cols[:, j + 1:], out=blocks[:, j, n + j:])
    signs = np.array([hat_sign(n, j + 1) for j in range(n)])
    return np.linalg.det(blocks) * signs


def _top_det(cols: np.ndarray) -> np.ndarray:
    """Determinants of the dz over the dzbar rows of columns (N, n, 2n)."""
    return np.linalg.det(np.concatenate([cols, np.conj(cols)], axis=1))


def _transport_rows(chart: CycleChart, z: np.ndarray, cols: np.ndarray
                    ) -> tuple[Block, np.ndarray]:
    """Model-chart rows z (N, n) and tangent columns cols (N, n, k) carried
    by the chart transport: the image points as one block, and the columns
    multiplied by the action Jacobian at each node, by one act and one
    action_jacobian.  The identity returns the points and columns as given."""
    points = Block(chart.frame, z)
    if chart.is_identity_transport:
        return points, cols
    return (act(chart.frame, chart.transport, points)[0],
            action_jacobian(chart.transport, points) @ cols)


class _Box(NamedTuple):
    """A box of collar coordinates: its free axes in u-order with their node
    counts, the (index, value) pairs it freezes (one per face, the n
    transverse ones for the cycle), and its sign."""
    axes: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    frozen: tuple[tuple[int, float], ...]
    sign: float


def _transverse(n: int) -> list[int]:
    """u-indices of the transverse collar coordinates x1', y2', ..., yn'."""
    return [0] + [2 * j + 1 for j in range(1, n)]


def _collar_axes(chart: CycleChart, transverse: Sequence, scale: int) -> list:
    """(interval, node count) of each collar coordinate in u-order: the
    transverse ones over the given intervals at scale * collar_nodes, the
    window ones y1', x2', ..., xn' at scale * nodes."""
    n = chart.frame.n
    across = iter([(t, scale * chart.collar_nodes) for t in transverse])
    window = iter(zip(chart.window, [scale * k for k in chart.nodes]))
    return [next(across if i in _transverse(n) else window)
            for i in range(2 * n)]


def _tube_faces(chart: CycleChart, eps: float, scale: int = 1) -> list[_Box]:
    """The 2n boundary faces of the radius-eps collar box over the window:
    for each transverse u_i in u-order (the caps x1', then the laterals y_j')
    and outward d = +1, -1, the box with u_i = d eps and sign d (-1)^i."""
    n = chart.frame.n
    axes = _collar_axes(chart, [(-eps, eps)] * n, scale)
    return [_Box(*zip(*(axes[:i] + axes[i + 1:])), ((i, d * eps),),
                 d * (-1) ** i)
            for i in _transverse(n) for d in (1.0, -1.0)]


def _box_blocks(chart: CycleChart, box: _Box,
                factor: Callable[[np.ndarray], np.ndarray]):
    """(points, weights, factor(columns)) of each block of at most
    _BLOCK_ROWS quadrature nodes of a box, in grid order: the points as one
    Block, their weights, and one factor row per node of the columns
    d Z / d(free u) carried by the transport, computed as arrays over the
    block."""
    n = chart.frame.n
    fixed = dict(box.frozen)
    free = [i for i in range(2 * n) if i not in fixed]
    params, weights = gauss_legendre_grid(box.axes, box.counts)
    for lo in range(0, len(weights), _BLOCK_ROWS):
        block = params[lo:lo + _BLOCK_ROWS]
        u = np.empty((len(block), 2 * n))
        u[:, free] = block
        u[:, list(fixed)] = list(fixed.values())
        points, cols = _transport_rows(chart, _phi(u),
                                       _phi_jacobian(u)[:, :, free])
        yield points, weights[lo:lo + _BLOCK_ROWS], factor(cols)


def _face_form_integral(chart: CycleChart, face: _Box,
                        h: Callable[[DomainPoint], complex],
                        H: Callable[[DomainPoint], np.ndarray]) -> complex:
    """Integral of the (2n-1)-form h H over one boundary face, one block at
    a time: h at every node, H at the nodes where h != 0."""
    total = 0.0 + 0.0j
    for points, weights, minors in _box_blocks(chart, face, _hat_minors):
        hv, = at_rows(points, None, h)
        keep = hv != 0
        if not keep.any():
            continue
        comps, = at_rows(points, keep, H)
        dots = (comps[:, None, :] @ minors[keep][:, :, None])[:, 0, 0]
        total = _add_in_order(total, [w * v * d for w, v, d in zip(
            weights[keep].tolist(), hv[keep].tolist(), dots.tolist())])
    return face.sign * total


def _doubling(compute: Callable[[int], complex], target: float,
              label: str) -> complex:
    coarse = compute(1)
    fine = compute(2)
    scale = max(abs(fine), 1e-14)
    # written so that a NaN on either side fails the check
    if not abs(fine - coarse) <= target * scale:
        raise QuadratureError(f"{label} did not converge to {target:.1e}",
                              coarse, fine)
    return fine


def tube_boundary_integral(mu, h: Callable[[DomainPoint], complex],
                           H: Callable[[DomainPoint], np.ndarray],
                           eps: float, chart: CycleChart,
                           target: float = 1e-8) -> complex:
    """Integral of h H over the tube boundary above the chart window.

    Both face families are included: the caps x1' = +-eps and the lateral
    faces where a transverse collar coordinate reaches +-eps.  The relative
    quadrature error is estimated by node doubling; failure to meet the
    target raises QuadratureError with both values.
    """
    if chart.kind != "real_analytic":
        raise CycleError("tube boundaries are built around positive-norm cycles")
    if not 0 < eps < 1:
        raise CycleError("eps must lie in (0, 1)")
    if as_vec(mu) != chart.vector:
        raise CycleError("mu does not match the chart vector")

    def compute(scale: int) -> complex:
        return sum(_face_form_integral(chart, face, h, H)
                   for face in _tube_faces(chart, eps, scale))

    return _doubling(compute, target, "tube boundary integral")


# ---------------------------------------------------------------------------
# cycle integral over the real-analytic family


def cycle_integral_C(mu, h: Callable[[DomainPoint], complex], kappa: int,
                     chart: CycleChart, target: float = 1e-10) -> complex:
    """q(mu)^{n/2 - kappa} int_window h (mu, psi(Z))^{kappa - n} dZ over the
    collar box at x1' = y2' = ... = yn' = 0, with dZ the collar faces'
    measure: dy1' dx2' ... dxn' pushed forward by the transport, det J =
    j(gamma, Z')^{-n} (each node's transported columns' det over i)."""
    if chart.kind != "real_analytic":
        raise CycleError("cycle_integral_C expects a positive-norm chart")
    if as_vec(mu) != chart.vector:
        raise CycleError("mu does not match the chart vector")
    frame = chart.frame
    fc = frame.frame_coords(chart.vector)
    n = frame.n
    power = chart.norm ** (0.5 * n - kappa)

    def compute(scale: int) -> complex:
        cycle = _Box(chart.window, tuple(scale * k for k in chart.nodes),
                     tuple((i, 0.0) for i in _transverse(n)), 1.0)
        total = 0.0 + 0.0j
        for points, weights, dz in _box_blocks(
                chart, cycle, lambda cols: np.linalg.det(cols) * -1j):
            hv, = at_rows(points, None, h)
            pairs = points.pair(fc)
            total = _add_in_order(total, [
                w * v * pair ** (kappa - n) * m for w, v, pair, m in zip(
                    weights.tolist(), hv.tolist(), pairs.tolist(),
                    dz.tolist())])
        return power * total

    return _doubling(compute, target, "cycle integral")


# ---------------------------------------------------------------------------
# shell form of the Stokes argument


def shell_stokes(chart: CycleChart, h_field, p_field,
                 dbar_coeff: Callable[[DomainPoint], complex],
                 eps_pair: tuple[float, float],
                 boundary_target: float = 1e-5) -> dict:
    """Check d(h P) = dbar h wedge P + h dbar P on the shell between two
    tube radii.

    h_field must provide .value and .dbar (analytic), p_field maps points to
    hat-basis components of an (n, n-1)-form P, and dbar_coeff gives the
    coefficient of dbar P relative to the invariant measure.  Returns the
    outer/inner boundary integrals, the shell volume integral, and the
    residual outer - inner - volume (window-edge faces vanish when h is
    compactly supported inside the window).  The volume integral is a
    single tensor Gauss-Legendre pass, without node doubling.
    """
    if not chart.is_identity_transport:
        raise CycleError("shell regions use the model chart")
    e1, e2 = eps_pair
    if not 0 < e1 < e2 < 1:
        raise CycleError("need 0 < eps_inner < eps_outer < 1")
    h = h_field.value
    outer = tube_boundary_integral(chart.vector, h, p_field, e2, chart,
                                   target=boundary_target)
    inner = tube_boundary_integral(chart.vector, h, p_field, e1, chart,
                                   target=boundary_target)
    volume = _shell_volume_integral(chart, h_field, p_field, dbar_coeff,
                                    e1, e2)
    residual = outer - inner - volume
    return {"outer": outer, "inner": inner, "volume": volume,
            "residual": residual}


def _shell_strips(chart: CycleChart, e1: float, e2: float) -> list[_Box]:
    """The collar box of radius e2 less the one of radius e1 over the chart
    window, as 2n boxes: strip k has the k-th transverse coordinate beyond
    +-e1, the earlier ones within e1 and the later ones within e2."""
    n = chart.frame.n
    return [_Box(*zip(*_collar_axes(
                chart, [(-e1, e1)] * k + [side] + [(-e2, e2)] * (n - 1 - k),
                1)), (), _top_sign(n))
            for k in range(n) for side in ((e1, e2), (-e2, -e1))]


def _shell_volume_integral(chart: CycleChart, h_field, p_field, dbar_coeff,
                           e1: float, e2: float) -> complex:
    """Integral of dbar h wedge P + h dbar P over the shell strips, one
    block at a time: h and dbar h at every node, dbar_coeff and P at the
    nodes where either is nonzero."""
    n = chart.frame.n
    total = 0.0 + 0.0j
    for strip in _shell_strips(chart, e1, e2):
        for points, weights, dets in _box_blocks(chart, strip, _top_det):
            hv, = at_rows(points, None, h_field.value)
            dbar_h, = at_rows(points, None, h_field.dbar)
            keep = (hv != 0) | dbar_h.any(axis=1)
            if not keep.any():
                continue
            coeffs, comps = at_rows(points, keep, dbar_coeff, p_field)
            q_factors = [measure_factor(n, q)
                         for q in points.q_y[keep].tolist()]
            dots = (dbar_h[keep][:, None, :] @ comps[:, :, None])[:, 0, 0]
            products = [strip.sign * w * (v * c - q * d) * det
                        for w, v, c, q, d, det in zip(
                            weights[keep].tolist(), hv[keep].tolist(),
                            coeffs.tolist(), q_factors, dots.tolist(),
                            dets[keep].tolist())]
            # divided as arrays: numpy's array and scalar complex
            # divisions agree, Python's rounds differently
            total = _add_in_order(total, np.array(products) / q_factors)
    return total


# ---------------------------------------------------------------------------
# restriction to the algebraic family


class RestrictSample(NamedTuple):
    params: tuple[float, ...]
    weight: float
    value: complex          # slot-n fiber integral at eps
    extrapolated: complex   # one Richardson level, eps -> eps/2
    all_slots: np.ndarray   # per-slot fiber integrals at eps


class WindowBump:
    """Smooth compactly supported window weight h(Z) for a cycle chart.

    For the real-analytic family the factors depend on (Im z1, Re z2, ...);
    the complex-analytic dbar gradient is available in closed form, so the
    Stokes checks need no finite differences.

    value and dbar are its row functions bound by domain.bind_rows: at a
    point, its row of the bump over the point's block, computed once per
    block and bump (one row for a standalone point; dbar as a fresh
    array); over a block, one call of the row function.  The bump itself
    is its value, row form included.
    """

    power = 4

    def __init__(self, chart: CycleChart):
        if chart.kind != "real_analytic":
            raise CycleError("window bumps are tied to real-analytic charts")
        self.window = chart.window
        self.value = bind_rows(self._value_rows)
        self.dbar = bind_rows(self._dbar_rows)
        self.rows = self.value.rows

    def __call__(self, point: DomainPoint) -> float:
        return self.value(point)

    def _factors(self, z: np.ndarray, derivative: bool):
        """Per row and window axis, the factor w^p of the coordinate
        (Im z1, Re z2, ...), or with derivative its derivative
        p w^(p-1) w', zero outside the window; the powers are taken in
        Python floats, since numpy's power rounds differently."""
        t = z.real.copy()
        t[:, 0] = z[:, 0].imag
        out = np.zeros(t.shape)
        p = self.power
        for axis, (lo, hi) in enumerate(self.window):
            ta = t[:, axis]
            inside = ((lo < ta) & (ta < hi)).nonzero()[0]
            ti = ta[inside]
            span2 = (hi - lo) ** 2
            w = (4.0 * (ti - lo) * (hi - ti) / span2).tolist()
            if derivative:
                out[inside, axis] = ([p * v ** (p - 1) for v in w]
                                     * (4.0 * (lo + hi - 2.0 * ti) / span2))
            else:
                out[inside, axis] = [v ** p for v in w]
        return out

    def _value_rows(self, block):
        """h at every row of block, as row_value's (values, failures)."""
        out = np.ones(len(block.z))
        for column in self._factors(block.z, False).T:
            out *= column
        return out, {}

    def _dbar_rows(self, block):
        """The closed-form dbar h at every row of block, (N, n)."""
        vals = self._factors(block.z, False)
        grads = self._factors(block.z, True)
        n = vals.shape[1]
        out = np.zeros(vals.shape, dtype=complex)
        for j in range(n):
            rest = np.ones(len(block.z))
            for k in range(n):
                if k != j:
                    rest *= vals[:, k]
            # d y1 / d zbar_1 = i/2; d x_j / d zbar_j = 1/2
            out[:, j] = grads[:, j] * rest * (0.5j if j == 0 else 0.5)
        return out, {}


# the coarse trapezoid's angles per circle fiber; the fine rule has twice
# as many
_ANGLE_NODES = 256


def _fiber_integral(chart: CycleChart, H, kappa: int, params: np.ndarray,
                    eps: float, sector: str, target: float) -> np.ndarray:
    """Per-slot circle integrals of H / (nu, psi)^kappa at one base node.

    One trapezoid rule of 2 _ANGLE_NODES angles, its geometry held as arrays
    and its points as one Block, over which domain.at_rows evaluates H; the
    coarse rule of _ANGLE_NODES angles is the even-indexed terms at twice
    the step.  Its angles are bit-identical to those of a separate coarse
    rule, since (2 pi / 2N) 2k = (2 pi / N) k exactly, so the error
    estimate compares the same two sums."""
    frame = chart.frame
    n = frame.n
    s = np.sqrt(abs(chart.norm))
    pairs = np.asarray(params, dtype=float).reshape(n - 1, 2)
    q_y_prime = float(frame.eps[:n - 1] @ (pairs[:, 1] ** 2))
    if q_y_prime <= 0:
        raise CycleError("window node leaves the domain (q(Y') <= 0)")
    radius = eps * np.sqrt(q_y_prime)

    step = 2.0 * np.pi / (2 * _ANGLE_NODES)
    theta = step * np.arange(2 * _ANGLE_NODES)
    turn = np.exp(1j * theta)
    z_n = radius * turn
    z = np.empty((len(theta), n), dtype=complex)
    z[:] = chart.model_z(params)
    z[:, -1] = z_n
    comps, = at_rows(Block(frame, z), None, H)
    weights = np.full((len(theta), n), 2j * radius, dtype=complex)
    if sector == "holomorphic":
        weights[:, -1] = 1j * radius * turn
    else:
        weights[:, -1] = -1j * radius * np.exp(-1j * theta)
    terms = comps * weights / ((2.0 * s * z_n) ** kappa)[:, None]

    coarse = _sum_in_order(terms[::2]) * (2.0 * step)
    fine = _sum_in_order(terms) * step
    mass = _sum_in_order(np.abs(terms)) * step
    # tolerate pure-cancellation slots: the achievable accuracy is bounded
    # below by roundoff on the accumulated L1 mass; written so that a NaN
    # on either side fails the check
    floor = np.maximum(target * np.abs(fine), 1e-13 * mass + 1e-16)
    if not np.all(np.abs(fine - coarse) <= floor):
        raise QuadratureError("circle integral did not converge",
                              coarse, fine)
    return fine


def restrict_samples(nu, H: Callable[[DomainPoint], np.ndarray], kappa: int,
                     eps: float, chart: CycleChart, sector: str = "holomorphic",
                     target: float = 1e-9) -> list[RestrictSample]:
    """Circle integrals of H / (nu, psi(Z))^kappa at the chart's window
    nodes, for radius eps sqrt(q(Y')) and the halved radius, with one
    Richardson level on the slot-n value.

    Each circle fiber is a trapezoid rule of 2 _ANGLE_NODES angles, two
    fibers per window node, whose points are one Block over which
    domain.at_rows evaluates H: a row form once per fiber, a plain H once
    per angle.  The coarse rule of the error estimate is the even-indexed
    fine nodes.  A fiber whose coarse and fine sums disagree, or either is not
    finite, raises QuadratureError.  Needs 0 < eps < 1.

    sector selects the fiber 1-form factor: "holomorphic" pairs the last
    slot with dz_n (residue-type integrals survive), "conjugate" pairs it
    with dzbar_n (all real-analytic integrands vanish as eps -> 0).  The
    remaining slots carry the phase-free dz_n wedge dzbar_n fiber factor in
    either sector; they vanish linearly in eps and are reported for
    diagnostics.
    """
    if chart.kind != "algebraic":
        raise CycleError("restriction expects a negative-norm chart")
    if not chart.is_identity_transport:
        raise CycleError("restriction is implemented in the model chart")
    if as_vec(nu) != chart.vector:
        raise CycleError("nu does not match the chart vector")
    if sector not in ("holomorphic", "conjugate"):
        raise CycleError("sector must be 'holomorphic' or 'conjugate'")
    if not 0 < eps < 1:
        raise CycleError("eps must lie in (0, 1)")
    out: list[RestrictSample] = []
    for params, weight in zip(*gauss_legendre_grid(chart.window, chart.nodes)):
        slots = _fiber_integral(chart, H, kappa, params, eps, sector, target)
        half = _fiber_integral(chart, H, kappa, params, eps / 2.0, sector,
                               target)
        value = complex(slots[-1])
        extr = complex(richardson(value, half[-1]))
        out.append(RestrictSample(tuple(params), weight, value, extr, slots))
    return out


def cycle_integral_T(nu, H: Callable[[DomainPoint], np.ndarray], kappa: int,
                     eps: float, chart: CycleChart,
                     target: float = 1e-8) -> complex:
    """Window integral of the extrapolated restriction of H.

    Only the slot-n fiber integral survives the eps -> 0 limit; the base
    form it multiplies is dz_1..dz_{n-1} dzbar_1..dzbar_{n-1} up to the
    hat-basis sign, converted to the real window measure."""
    n = chart.frame.n
    samples = restrict_samples(nu, H, kappa, eps, chart, target=target)
    base = sum(s.weight * s.extrapolated for s in samples)
    m = n - 1
    reorder = hat_sign(n, n) * (-1.0) ** m * _top_sign(m)
    return complex(reorder * (-2.0j) ** m * base)
