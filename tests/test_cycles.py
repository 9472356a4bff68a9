"""Tests for cycle charts, tube boundaries, restrictions, and their oracles."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from orthoforms import cycles, domain, kernels
from orthoforms.calculus import measure_factor, richardson, star_nn1, star_pair
from orthoforms.cycles import (
    CycleChart, CycleError, QuadratureError, WindowBump, _box_blocks,
    _face_form_integral, _hat_minors, _phi, _phi_jacobian, _shell_strips,
    _shell_volume_integral, _top_det, _transport_rows, _tube_faces,
    cycle_integral_C, cycle_integral_T, hat_sign, restrict_samples,
    shell_stokes, transport_to, tube_boundary_integral,
)
from orthoforms.domain import (Block, BoundaryError, ComponentError,
                               DomainPoint, WittFrame, act, at_rows,
                               bind_rows, isometry_matrix, q_plus_minus,
                               sample_point)
from orthoforms.kernels import action_jacobian
from orthoforms.quadratic import (lattice_from_config, standard_lattice,
                                  vec_float)
from orthoforms.special import gauss_legendre_grid, limit_constant

MU = {1: (0, 0, 1), 2: (0, 0, 1, 1), 3: (0, 0, 1, 1, 0)}
NU2 = (0, 0, -1, 1)


@pytest.fixture(scope="module")
def geo():
    out = {}
    for n in (1, 2, 3):
        lattice, fd, group = lattice_from_config(standard_lattice(n))
        frame = WittFrame.build(lattice, fd["e"], fd["e_prime"])
        out[n] = (lattice, frame, group)
    return out


def _chart_C(frame, n, nodes=10, collar=10):
    window = [(0.9, 1.9)] + [(-0.5, 0.5)] * (n - 1)
    return CycleChart.create(frame, MU[n], window=window,
                             nodes=[nodes] * n, collar_nodes=collar)


def _chart_T2(frame, nodes=6):
    return CycleChart.create(frame, NU2, window=[(-0.4, 0.4), (0.8, 1.6)],
                             nodes=[nodes, nodes])


# ---------------------------------------------------------------------------
# chart construction and validation


def test_chart_rejects_isotropic_vector(geo):
    _, frame, _ = geo[2]
    with pytest.raises(CycleError, match="nonzero norm"):
        CycleChart.create(frame, (1, 0, 0, 0), [(0.9, 1.9), (0, 1)], [4, 4])


def test_chart_rejects_bad_windows(geo):
    _, frame, _ = geo[2]
    with pytest.raises(CycleError, match="axes"):
        CycleChart.create(frame, MU[2], [(0.9, 1.9)], [4])
    with pytest.raises(CycleError, match="positive"):
        CycleChart.create(frame, MU[2], [(-0.5, 1.9), (0, 1)], [4, 4])
    with pytest.raises(CycleError, match="positive"):
        CycleChart.create(frame, NU2, [(-0.4, 0.4), (-1.6, -0.8)], [4, 4])
    with pytest.raises(CycleError, match="nondegenerate"):
        CycleChart.create(frame, MU[2], [(0.9, 0.9), (0, 1)], [4, 4])
    with pytest.raises(CycleError, match="nodes"):
        CycleChart.create(frame, MU[2], [(0.9, 1.9), (0, 1)], [4, 1])
    for collar in (1, 0, -3):
        with pytest.raises(CycleError, match="nodes"):
            CycleChart.create(frame, MU[2], [(0.9, 1.9), (0, 1)], [4, 4],
                              collar_nodes=collar)


def test_chart_kinds_and_membership(geo):
    _, frame, _ = geo[2]
    pos = _chart_C(frame, 2, nodes=4)
    assert pos.kind == "real_analytic"
    assert pos.is_identity_transport
    assert pos.membership_defect() <= 1e-12
    neg = _chart_T2(frame, nodes=4)
    assert neg.kind == "algebraic"
    assert neg.membership_defect() <= 1e-12


def test_negative_cycles_need_rank_two(geo):
    _, frame, _ = geo[1]
    with pytest.raises(CycleError, match="n >= 2"):
        CycleChart.create(frame, (1, -1, 0), [(0.9, 1.9)], [4])


def test_transport_identity_for_model_multiples(geo):
    _, frame, _ = geo[2]
    for vec in [MU[2], (0, 0, 2, 2), (0, 0, 3, 3)]:
        mat = transport_to(frame, vec)
        assert np.max(np.abs(mat - np.eye(4))) == 0.0


def test_transport_reflection_reaches_vector(geo):
    lattice, frame, _ = geo[2]
    mu = (1, 1, 0, 0)          # positive-norm, not parallel to the model
    assert lattice.q(mu) == 1
    g = frame.gram_float
    mat = transport_to(frame, mu)
    assert np.max(np.abs(mat.T @ g @ mat - g)) <= 1e-12
    chart = CycleChart.create(frame, mu, [(0.9, 1.9), (-0.5, 0.5)], [4, 4])
    assert not chart.is_identity_transport
    assert chart.membership_defect() <= 1e-10


# ---------------------------------------------------------------------------
# the positive-norm cycle integral


def test_cycle_integral_line_oracle(geo):
    """Over the model line with unit weight the integrand has an elementary
    antiderivative: int_1^2 (2iy)^(kappa-1) dy = (2i)^(kappa-1)(2^kappa-1)/kappa."""
    _, frame, _ = geo[1]
    chart = CycleChart.create(frame, MU[1], [(1.0, 2.0)], [20])
    for kappa in (3, 4, 5):
        val = cycle_integral_C(MU[1], lambda pt: 1.0, kappa, chart)
        oracle = (2j) ** (kappa - 1) * (2 ** kappa - 1) / kappa
        assert abs(val - oracle) <= 1e-12 * abs(oracle)


def test_cycle_integral_vector_scaling(geo):
    """Replacing mu by r mu multiplies the integral by r^-kappa."""
    for n in (1, 2):
        _, frame, _ = geo[n]
        kappa = n + 2
        base = _chart_C(frame, n, nodes=8)
        doubled = CycleChart.create(frame, tuple(2 * c for c in MU[n]),
                                    base.window, base.nodes)
        h = WindowBump(base)
        v1 = cycle_integral_C(MU[n], h, kappa, base)
        v2 = cycle_integral_C(doubled.vector, h, kappa, doubled)
        assert abs(v2 - 2.0 ** (-kappa) * v1) <= 1e-12 * max(1.0, abs(v1))


def test_cycle_integral_transport_invariance(geo):
    """Transporting the chart and weighting h by the automorphy factor
    j^-kappa reproduces the model-window integral: the transported measure
    carries the j^-n of dZ, the pairing the rest."""
    _, frame, _ = geo[2]
    kappa = 4
    model = _chart_C(frame, 2, nodes=8)
    mu2 = (1, 1, 0, 0)
    moved = CycleChart.create(frame, mu2, model.window, model.nodes)
    h = WindowBump(model)
    inv = np.linalg.inv(moved.transport)

    def h_weighted(pt):
        back, j_inv = act(frame, inv, pt)
        return h(back) * j_inv ** (-kappa)

    v_model = cycle_integral_C(MU[2], h, kappa, model)
    v_moved = cycle_integral_C(mu2, h_weighted, kappa, moved)
    assert abs(v_moved - v_model) <= 1e-10 * max(1.0, abs(v_model))


@pytest.mark.parametrize("n,vec", [(1, (1, 1, 0)), (2, (1, 1, 0, 0)),
                                   (2, (1, 1, 1, 1))])
def test_transported_cycle_measure_is_j_to_the_minus_n(geo, n, vec):
    """On a transported chart each node carries dZ = j(gamma, Z')^-n dZ':
    cycle_integral_C equals the loop over the model nodes Z' that weights
    each image gamma Z' by the automorphy factor act returns."""
    _, frame, _ = geo[n]
    kappa = n + 2
    window = [(0.9, 1.9)] + [(-0.5, 0.5)] * (n - 1)
    chart = CycleChart.create(frame, vec, window, [5] * n)
    assert not chart.is_identity_transport
    fc = frame.frame_coords(vec)
    h = lambda pt: 1.0 + 0.25j * complex(pt.z.sum())
    params, weights = gauss_legendre_grid(window, [10] * n)
    total = 0.0 + 0.0j
    for row, weight in zip(params, weights):
        model = DomainPoint(frame, np.r_[1j * row[0], row[1:]])
        point, j = act(frame, chart.transport, model)
        total += weight * h(point) * point.pair(fc) ** (kappa - n) * j ** -n
    ref = chart.norm ** (0.5 * n - kappa) * total
    val = cycle_integral_C(vec, h, kappa, chart, target=1.0)
    assert abs(val - ref) <= 1e-13 * abs(ref)


def test_cycle_integral_rejects_mismatches(geo):
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=4)
    with pytest.raises(CycleError, match="match"):
        cycle_integral_C((0, 0, 2, 2), lambda pt: 1.0, 4, chart)
    neg = _chart_T2(frame, nodes=4)
    with pytest.raises(CycleError, match="positive-norm"):
        cycle_integral_C(NU2, lambda pt: 1.0, 4, neg)


# ---------------------------------------------------------------------------
# window bumps


def test_window_bump_support_and_gradient(geo):
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=4)
    h = WindowBump(chart)
    center = DomainPoint(frame, np.array([0.3 + 1.4j, 0.0 + 0.2j]))
    assert h(center) == pytest.approx(1.0)
    edge = DomainPoint(frame, np.array([0.3 + 1.9j, 0.0 + 0.2j]))
    outside = DomainPoint(frame, np.array([0.3 + 2.5j, 0.0 + 0.2j]))
    assert h(edge) == 0.0
    assert h(outside) == 0.0

    probe = DomainPoint(frame, np.array([0.1 + 1.2j, 0.17 + 0.05j]))
    analytic = h.dbar(probe)
    step = 1e-6
    for j in range(2):
        dx = np.zeros(2, complex)
        dx[j] = step
        d_re = (h(DomainPoint(frame, probe.z + dx)) -
                h(DomainPoint(frame, probe.z - dx))) / (2 * step)
        d_im = (h(DomainPoint(frame, probe.z + 1j * dx)) -
                h(DomainPoint(frame, probe.z - 1j * dx))) / (2 * step)
        fd = 0.5 * (d_re + 1j * d_im)
        assert abs(fd - analytic[j]) <= 5e-9 * max(1.0, abs(analytic[j]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_bump_rows_match_standalone_bit_for_bit(geo, n):
    """value and dbar of Block points equal those of standalone
    points bit for bit, inside the window and at the zeros outside it."""
    _, frame, _ = geo[n]
    h = WindowBump(_chart_C(frame, n, nodes=4))
    rng = np.random.default_rng(11)
    z = (rng.uniform(-0.8, 0.8, (40, n))
         + 1j * rng.uniform(0.7, 2.1, (40, 1)) * np.r_[1.0, [0.2] * (n - 1)])
    z[:5, 0] = 0.3 + 1.9j                   # on the window's edge
    outside = 0
    for point in Block(frame, z):
        single = DomainPoint(frame, point.z.copy())
        value, grad = h.value(point), h.dbar(point)
        assert np.asarray(value).tobytes() == np.asarray(
            h.value(single)).tobytes()
        assert grad.tobytes() == h.dbar(single).tobytes()
        outside += value == 0.0
    assert 5 <= outside < len(z)


def test_window_bumps_keep_their_own_memo_entries(geo):
    _, frame, _ = geo[2]
    narrow = WindowBump(_chart_C(frame, 2, nodes=4))
    wide = WindowBump(CycleChart.create(frame, MU[2], [(0.5, 2.5), (-1, 1)],
                                        [4, 4]))
    points = list(Block(frame, np.array(
        [[0.1 + 1.4j, 0.2 + 0.1j], [0.2 + 2.2j, 0.9 + 0.1j]])))
    memo = points[0]._row[0].memo
    for point in points:
        for h in (narrow, wide):
            single = DomainPoint(frame, point.z.copy())
            assert h(point) == h(single)
            grad = h.dbar(point)
            assert np.array_equal(grad, h.dbar(single))
            grad[:] = 7.0
            assert np.array_equal(h.dbar(point), h.dbar(single))
    assert narrow(points[1]) == 0.0 and wide(points[1]) > 0.0
    assert len(memo) == 4


# ---------------------------------------------------------------------------
# tube boundary integrals


def test_tube_boundary_zero_cases(geo):
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=4, collar=4)
    zero = tube_boundary_integral(MU[2], lambda pt: 1.0,
                                  lambda pt: np.zeros(2, complex), 0.1, chart,
                                  target=1e-6)
    assert zero == 0.0
    far = CycleChart.create(frame, MU[2], [(3.0, 3.5), (2.0, 2.5)], [4, 4])
    h_far = WindowBump(far)
    fc = frame.frame_coords(MU[2])
    H = lambda pt: kernels.p_tilde_components(fc, 4, pt)
    val = tube_boundary_integral(MU[2], h_far, H, 0.1, chart, target=1e-6)
    assert val == 0.0


def test_tube_boundary_validation(geo):
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=4, collar=4)
    H = lambda pt: np.zeros(2, complex)
    with pytest.raises(CycleError, match="eps"):
        tube_boundary_integral(MU[2], lambda pt: 1.0, H, 1.5, chart)
    with pytest.raises(CycleError, match="match"):
        tube_boundary_integral((0, 0, 2, 2), lambda pt: 1.0, H, 0.1, chart)
    neg = _chart_T2(frame, nodes=4)
    with pytest.raises(CycleError, match="positive-norm"):
        tube_boundary_integral(NU2, lambda pt: 1.0, H, 0.1, neg)


def test_shell_stokes_rank3_closes(geo):
    """At n = 3 the generated faces and strips close the finite-radius
    Stokes identity outer - inner = volume for h P, with h a window bump and
    P_j = c_j conj(z_j), whose dbar coefficient against dmu is
    -(4i q(Y))^3 sum c_j.  The bump is a polynomial on its window, so the
    identity closes to roundoff at one quadrature scale, without the node
    doubling of shell_stokes."""
    _, frame, _ = geo[3]
    chart = _chart_C(frame, 3, nodes=6, collar=2)
    assert chart.membership_defect() <= 1e-12
    h = WindowBump(chart)
    c = np.array([1.0, 0.5 - 0.25j, -0.75j])
    p_field = lambda pt: c * np.conj(pt.z)
    dbar_coeff = lambda pt: -measure_factor(3, pt.q_y) * c.sum()
    e1, e2 = 0.05, 0.1
    outer, inner = (sum(_face_form_integral(chart, face, h, p_field)
                        for face in _tube_faces(chart, eps))
                    for eps in (e2, e1))
    volume = _shell_volume_integral(chart, h, p_field, dbar_coeff, e1, e2)
    assert volume != 0
    residual = outer - inner - volume
    assert abs(residual) <= 1e-12 * max(abs(outer), abs(volume))


def test_tube_boundary_tracks_doubled_window_density(geo):
    """As the tube shrinks, the boundary integral of h ptilde approaches
    -2 C(2, kappa) times the windowed cycle density, with quadratic rate.

    The factor 2 relative to the printed limit constant is deliberate: both
    face families of the collar carry equal flux in the limit, and the
    lateral family is not negligible.  The full-suite check records the
    printed constant comparison as stated, where this factor makes it fail;
    here the machinery itself is pinned against the observed limit.
    """
    _, frame, _ = geo[2]
    kappa = 3
    chart = _chart_C(frame, 2, nodes=8, collar=8)
    h = WindowBump(chart)
    fc = frame.frame_coords(MU[2])
    H = lambda pt: kernels.p_tilde_components(fc, kappa, pt)
    delta = cycle_integral_C(MU[2], h, kappa, chart, target=1e-9)
    c_lim = limit_constant(2, kappa)
    v1 = tube_boundary_integral(MU[2], h, H, 0.1, chart, target=1e-4)
    v2 = tube_boundary_integral(MU[2], h, H, 0.05, chart, target=1e-4)
    r1 = v1 / (c_lim * delta)
    r2 = v2 / (c_lim * delta)
    # quadratic approach to -2
    assert abs(r1 + 2.0) <= 0.1
    assert abs(r2 + 2.0) <= 0.03
    assert abs(r2 + 2.0) <= 0.35 * abs(r1 + 2.0)
    extrapolated = richardson(v1, v2)
    assert abs(extrapolated - (-2.0) * c_lim * delta) <= 5e-3 * abs(c_lim * delta)


def _tube_limit_ratio(frame, vec, kappa):
    """The eps-extrapolated boundary integral of h ptilde over eps
    0.0125 / 0.00625, divided by -C(2, kappa) times the windowed density."""
    chart = CycleChart.create(frame, vec, [(0.9, 1.9), (-0.5, 0.5)], [8, 8],
                              collar_nodes=8)
    h = WindowBump(chart)
    fc = frame.frame_coords(vec)
    H = lambda pt: kernels.p_tilde_components(fc, kappa, pt)
    delta = cycle_integral_C(vec, h, kappa, chart, target=1e-5)
    v1, v2 = (tube_boundary_integral(vec, h, H, eps, chart, target=1e-4)
              for eps in (0.0125, 0.00625))
    return richardson(v1, v2) / (-limit_constant(2, kappa) * delta)


@pytest.mark.parametrize("vec", [(1, 1, 1, 1), (1, 1, 0, 0)])
def test_transported_tube_limit_ratio_matches_identity_chart(geo, vec):
    """The cycle density and the collar faces share one measure on a
    transported chart, so the tube-limit ratio is the identity chart's."""
    _, frame, _ = geo[2]
    identity = _tube_limit_ratio(frame, MU[2], 3)
    assert abs(identity - 2.0) <= 1e-4
    assert abs(_tube_limit_ratio(frame, vec, 3) - identity) <= 1e-4


# ---------------------------------------------------------------------------
# the collar drivers against a per-node reference


def test_collar_boxes_tile_the_shell_and_orient_the_faces(geo):
    """The shell strips' weights add up to the volume of the radius-e2
    collar box less the radius-e1 one, ((2 e2)^n - (2 e1)^n) times the
    window volume; a face freezing coordinate k at +-eps, with outward
    direction d, carries the sign d (-1)^k."""
    for n in (1, 2, 3):
        _, frame, _ = geo[n]
        chart = _chart_C(frame, n, nodes=3, collar=3)
        window = np.prod([b - a for a, b in chart.window])
        e1, e2 = 0.05, 0.1
        total = math.fsum(weight for strip in _shell_strips(chart, e1, e2)
                          for _, weights, _ in _box_blocks(chart, strip,
                                                           lambda cols: cols)
                          for weight in weights)
        expected = ((2 * e2) ** n - (2 * e1) ** n) * window
        assert abs(total - expected) <= 1e-14 * expected
        faces = _tube_faces(chart, e2)
        assert len(faces) == 2 * n
        for face in faces:
            (index, value), = face.frozen
            assert abs(value) == e2
            assert face.sign == np.sign(value) * (-1) ** index
            assert len(face.axes) == 2 * n - 1


def _phi_node(u, eps):
    """The collar map phi_eps of the unit cross-section at one node
    u = (x1', y1', x2', y2', ...): the radius-eps tube is |x1'|, |y'| <= 1
    (independent of the library's eps-free map)."""
    n = len(u) // 2
    x, y = u[0::2], u[1::2]
    z = np.empty(n, dtype=complex)
    z[0] = eps * y[0] * x[0] + 1j * y[0]
    for j in range(1, n):
        z[j] = x[j] + 1j * eps * y[0] * y[j]
    return z


def _phi_jacobian_node(u, eps):
    """d z_a / d u_k at one node, an (n x 2n) matrix."""
    n = len(u) // 2
    x, y = u[0::2], u[1::2]
    dz = np.zeros((n, 2 * n), dtype=complex)
    dz[0, 0] = eps * y[0]
    dz[0, 1] = eps * x[0] + 1j
    for j in range(1, n):
        dz[j, 1] = 1j * eps * y[j]
        dz[j, 2 * j] = 1.0
        dz[j, 2 * j + 1] = 1j * eps * y[0]
    return dz


def _unit_faces(chart, scale):
    """The tube faces of the unit cross-section under phi_eps, in the order
    of _tube_faces: (fixed index, fixed value, sign, axes, counts)."""
    w = chart.window
    k = [scale * c for c in chart.nodes]
    c = scale * chart.collar_nodes
    if chart.frame.n == 1:
        return [(0, d, d, (w[0],), (k[0],)) for d in (1.0, -1.0)]
    unit = (-1.0, 1.0)
    return ([(0, d, d, (w[0], w[1], unit), (k[0], k[1], c))
             for d in (1.0, -1.0)]
            + [(3, d, -d, (unit, w[0], w[1]), (c, k[0], k[1]))
               for d in (1.0, -1.0)])


def _collar_node(chart, u, eps, free):
    """The point phi_eps(u) and the columns d Z / d u_free, carried by the
    chart transport and its action Jacobian at this one node."""
    point = DomainPoint(chart.frame, _phi_node(u, eps))
    cols = _phi_jacobian_node(u, eps)[:, free]
    if not chart.is_identity_transport:
        jac = kernels.action_jacobian(chart.transport, point)
        point, _ = act(chart.frame, chart.transport, point)
        cols = jac @ cols
    return point, cols


def _face_integral_per_node(chart, face, eps, h, H):
    """The face integral rebuilt node by node: geometry, transport and
    every hat minor recomputed at each node (test-only reference)."""
    fixed_index, fixed_value, sign, axes, counts = face
    n = chart.frame.n
    free = [i for i in range(2 * n) if i != fixed_index]
    signs = np.array([hat_sign(n, j + 1) for j in range(n)])
    total = 0.0 + 0.0j
    u = np.zeros(2 * n)
    u[fixed_index] = fixed_value
    for params, weight in zip(*gauss_legendre_grid(axes, counts)):
        u[free] = params
        point, cols = _collar_node(chart, u, eps, free)
        hv = h(point)
        if hv == 0:
            continue
        comps = H(point)
        stacked = np.vstack([cols, np.conj(cols)])
        val = 0.0 + 0.0j
        for j in range(n):
            rows = [r for r in range(2 * n) if r != n + j]
            val += comps[j] * signs[j] * np.linalg.det(stacked[rows])
        total += weight * hv * val
    return sign * total


def _annulus_strips(n, e1, e2):
    """The cross-section annulus between the collar boxes at radii e1 < e2,
    as boxes in the (x1', y') collar coordinates."""
    if n == 1:
        return [((e1, e2),), ((-e2, -e1),)]
    return [
        ((e1, e2), (-e2, e2)),
        ((-e2, -e1), (-e2, e2)),
        ((-e1, e1), (e1, e2)),
        ((-e1, e1), (-e2, -e1)),
    ]


def _shell_volume_per_node(chart, h_field, p_field, dbar_coeff, e1, e2):
    """The shell volume integral rebuilt node by node, over the shell
    carried by the chart transport (test-only reference)."""
    n = chart.frame.n
    top = -1.0 if ((n * (n - 1)) // 2) % 2 else 1.0
    total = 0.0 + 0.0j
    for strip in _annulus_strips(n, e1, e2):
        axes = [strip[0], chart.window[0]]
        counts = [chart.collar_nodes, chart.nodes[0]]
        for j in range(1, n):
            axes += [chart.window[j], strip[j]]
            counts += [chart.nodes[j], chart.collar_nodes]
        for u, weight in zip(*gauss_legendre_grid(axes, counts)):
            point, dz = _collar_node(chart, u, 1.0, slice(None))
            hv = h_field.value(point)
            dbar_h = h_field.dbar(point)
            if hv == 0 and not np.any(dbar_h):
                continue
            q_factor = measure_factor(n, point.q_y)
            coeff = hv * dbar_coeff(point) - q_factor * complex(
                dbar_h @ p_field(point))
            det_full = np.linalg.det(np.vstack([dz, np.conj(dz)]))
            total += weight * coeff * top * det_full / q_factor
    return total


# a model chart and a transported one per rank
_REFERENCE_VECTORS = {1: (MU[1], (1, 1, 0)), 2: (MU[2], (1, 1, 0, 0))}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("which", [0, 1], ids=["identity", "transported"])
def test_collar_drivers_match_per_node_reference(geo, n, which):
    """The per-grid face and shell-volume drivers on the eps-free collar
    boxes reproduce the per-node loop over the unit cross-section under
    phi_eps to 1e-13 relative, on every face, at both node scales."""
    _, frame, _ = geo[n]
    vec = _REFERENCE_VECTORS[n][which]
    window = [(0.9, 1.9)] + [(-0.5, 0.5)] * (n - 1)
    chart = CycleChart.create(frame, vec, window, [4] * n, collar_nodes=4)
    assert chart.is_identity_transport == (which == 0)
    fc = frame.frame_coords(vec)
    kappa = n + 2
    H = lambda pt: kernels.p_tilde_components(fc, kappa, pt)
    h = lambda pt: 1.0 + 0.25j * complex(pt.z.sum())
    for scale in (1, 2):
        faces = _tube_faces(chart, 0.1, scale)
        units = _unit_faces(chart, scale)
        assert len(faces) == len(units)
        for face, unit in zip(faces, units):
            ref = _face_integral_per_node(chart, unit, 0.1, h, H)
            val = _face_form_integral(chart, face, h, H)
            assert ref != 0
            assert abs(val - ref) <= 1e-13 * abs(ref)
    bump = WindowBump(chart)
    dbar_coeff = lambda pt: kernels.dbar_image_reference(fc, kappa, pt)
    ref = _shell_volume_per_node(chart, bump, H, dbar_coeff, 0.05, 0.1)
    val = _shell_volume_integral(chart, bump, H, dbar_coeff, 0.05, 0.1)
    assert ref != 0
    assert abs(val - ref) <= 1e-13 * abs(ref)


# ---------------------------------------------------------------------------
# the row-wise group action against pointwise reference bodies


def _act_node(frame, sigma, point):
    """The pointwise act: (sigma Z, j) at one point, through lattice
    coordinates (test-only reference)."""
    psi = frame.from_frame.astype(complex) @ np.concatenate(
        ([-point.q_z, 1.0], point.z))
    w = isometry_matrix(sigma).astype(complex) @ psi
    j = complex(vec_float(frame.e) @ frame.gram_float @ w)
    if abs(j) < 1e-12:
        raise BoundaryError("isometry maps the point to the boundary")
    fc = frame.to_frame.astype(complex) @ (w / j)
    try:
        return DomainPoint(frame, fc[2:]), j
    except ComponentError as exc:
        raise ComponentError(
            f"isometry leaves the fixed component: {exc}") from exc


def _action_jacobian_node(sigma, point):
    """The pointwise action Jacobian at one point, through the frame matrix
    of sigma (test-only reference)."""
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


def test_block_action_equals_the_pointwise_bodies(setup_n, rng):
    """act and action_jacobian over a Block give, row by row and bit for
    bit, the sigma Z, q(Y), j and J of the pointwise bodies, for every
    group generator and two chart transports; at a point they give the
    same values as a DomainPoint and a complex."""
    _, frame, group, n = setup_n
    transports = [transport_to(frame, (1, 1) + (0,) * n),
                  transport_to(frame, (1, 2) + (0,) * n)]
    assert all(np.max(np.abs(t - np.eye(n + 2))) > 0 for t in transports)
    block = Block(frame, np.array([sample_point(frame, rng).z
                                   for _ in range(48)]))
    for sigma in list(group) + transports:
        moved, j = act(frame, sigma, block)
        jac = action_jacobian(sigma, block)
        assert isinstance(moved, Block) and jac.shape == (48, n, n)
        for i, point in enumerate(block):
            ref, ref_j = _act_node(frame, sigma, point)
            assert np.array_equal(moved.z[i], ref.z)
            assert moved.q_y[i] == ref.q_y and j[i] == ref_j
            ref_jac = _action_jacobian_node(sigma, point)
            assert np.array_equal(jac[i], ref_jac)
            one, one_j = act(frame, sigma, point)
            assert type(one) is DomainPoint and type(one_j) is complex
            assert np.array_equal(one.z, ref.z) and one.q_y == ref.q_y
            assert one_j == ref_j
            assert np.array_equal(action_jacobian(sigma, point), ref_jac)


@pytest.mark.parametrize("n,vec", [(1, (1, 1, 0)), (2, (1, 1, 0, 0)),
                                   (2, (1, 1, 1, 1)), (3, (1, 1, 0, 0, 0))])
def test_transport_rows_equal_the_node_loop(geo, monkeypatch, n, vec):
    """_transport_rows carries a transported chart's rows by one act and
    one action_jacobian over the block, and its points and pushed columns
    equal the node-by-node loop of the pointwise bodies bit for bit."""
    _, frame, _ = geo[n]
    window = [(0.9, 1.9)] + [(-0.5, 0.5)] * (n - 1)
    chart = CycleChart.create(frame, vec, window, [4] * n)
    assert not chart.is_identity_transport
    rng = np.random.default_rng(5)
    u = rng.uniform(-0.1, 0.1, (300, 2 * n))
    u[:, 2::2] = rng.uniform(-0.5, 0.5, (300, n - 1))
    u[:, 1] = rng.uniform(0.9, 1.9, 300)
    z, cols = _phi(u), _phi_jacobian(u)
    calls = []
    for name in ("act", "action_jacobian"):
        monkeypatch.setattr(cycles, name,
                            lambda *args, f=getattr(cycles, name), name=name:
                            calls.append(name) or f(*args))
    points, pushed = _transport_rows(chart, z, cols)
    assert calls == ["act", "action_jacobian"]
    assert pushed.shape == cols.shape
    for i, model in enumerate(Block(frame, z)):
        ref, _ = _act_node(frame, chart.transport, model)
        assert np.array_equal(points.z[i], ref.z)
        assert points.q_y[i] == ref.q_y
        assert np.array_equal(
            pushed[i],
            _action_jacobian_node(chart.transport, model) @ cols[i])


def _bent_action(frame):
    """A float matrix sigma with j(sigma, Z) = 1 + q(Z) and sigma Z = Z / j:
    the point (i y, 0, ..., 0) stays in the component for y < 1, reaches
    the boundary at y = 1 and leaves the component for y > 1."""
    bent = np.eye(frame.n + 2)
    bent[1, 0] = -1.0
    return frame.from_frame @ bent @ frame.to_frame


@pytest.mark.parametrize("bad", ["B", "C", "BC", "CB"],
                         ids=["boundary", "component", "boundary-first",
                              "component-first"])
def test_block_action_raises_for_the_first_bad_row(setup_n, bad):
    """A block whose first bad row is a later one raises what the node loop
    raises there: BoundaryError for a row sent to the boundary, and
    ComponentError naming the isometry for a row carried out of the
    component, whichever comes first."""
    _, frame, _, n = setup_n
    sigma = _bent_action(frame)
    good = [np.r_[1j * y, [0.05] * (n - 1)] for y in (0.3, 0.5, 0.6, 0.7)]
    rows = {"B": np.r_[1j, [0.0] * (n - 1)], "C": np.r_[1.5j, [0.0] * (n - 1)]}
    block = Block(frame, np.array(good[:2] + [rows[k] for k in bad]
                                  + good[2:]))
    expected = []
    for point in block:
        try:
            _act_node(frame, sigma, point)
        except (BoundaryError, ComponentError) as exc:
            expected.append(exc)
    assert len(expected) == len(bad)
    assert type(expected[0]) is (BoundaryError if bad[0] == "B"
                                 else ComponentError)
    with pytest.raises((BoundaryError, ComponentError)) as raised:
        act(frame, sigma, block)
    assert type(raised.value) is type(expected[0])
    assert str(raised.value) == str(expected[0])
    if bad[0] == "C":
        assert str(raised.value).startswith(
            "isometry leaves the fixed component: ")
    moved, _ = act(frame, sigma, Block(frame, np.array(good)))
    assert len(moved.z) == len(good)


# ---------------------------------------------------------------------------
# the block sums against the node loops they replace


def _face_node_loop(chart, face, h, H):
    """The face integral summed node by node over the same collar geometry
    (test-only reference): h at each node, H where h != 0."""
    total = 0.0 + 0.0j
    for points, weights, minors in _box_blocks(chart, face, _hat_minors):
        for point, weight, minor in zip(points, weights, minors):
            hv = h(point)
            if hv == 0:
                continue
            total += weight * hv * (H(point) @ minor)
    return face.sign * total


def _shell_node_loop(chart, h_field, p_field, dbar_coeff, e1, e2):
    """The shell volume integral summed node by node over the same strips
    (test-only reference)."""
    n = chart.frame.n
    total = 0.0 + 0.0j
    for strip in _shell_strips(chart, e1, e2):
        for points, weights, dets in _box_blocks(chart, strip, _top_det):
            for point, weight, det in zip(points, weights, dets):
                hv = h_field.value(point)
                dbar_h = h_field.dbar(point)
                if hv == 0 and not np.any(dbar_h):
                    continue
                q_factor = measure_factor(n, point.q_y)
                coeff = hv * dbar_coeff(point) - q_factor * complex(
                    dbar_h @ p_field(point))
                total += strip.sign * weight * coeff * det / q_factor
    return total


def _cycle_C_node_loop(chart, h, kappa, scale):
    """cycle_integral_C's sum at one node scale, node by node over the
    collar nodes at zero transverse offset, each weighted by its transported
    columns' determinant times -i (test-only reference)."""
    frame = chart.frame
    fc = frame.frame_coords(chart.vector)
    n = frame.n
    params, weights = gauss_legendre_grid(
        chart.window, [scale * c for c in chart.nodes])
    window_axes = [1] + [2 * j for j in range(1, n)]
    total = 0.0 + 0.0j
    for row, weight in zip(params, weights):
        u = np.zeros(2 * n)
        u[window_axes] = row
        point, cols = _collar_node(chart, u, 1.0, window_axes)
        total += (weight * h(point) * point.pair(fc) ** (kappa - n)
                  * (np.linalg.det(cols) * -1j))
    return chart.norm ** (0.5 * n - kappa) * total


# (window nodes, collar nodes) per rank: every face and strip of n = 2, 3
# spans more than one _BLOCK_ROWS block, and so does an n = 1 strip
_BLOCK_NODES = {1: ([24], 24), 2: ([16, 17], 2), 3: ([4, 5, 7], 2)}


def _block_case(geo, n, transported):
    _, frame, _ = geo[n]
    vec = _REFERENCE_VECTORS[n][1] if transported else MU[n]
    nodes, collar = _BLOCK_NODES[n]
    window = [(0.9, 1.9)] + [(-0.5, 0.5)] * (n - 1)
    chart = CycleChart.create(frame, vec, window, nodes, collar_nodes=collar)
    fc = frame.frame_coords(vec)
    kappa = n + 2
    # at odd n p_tilde sums a non-terminating hypergeometric series per
    # row; the closed-form row kernel p keeps those cases fast
    if n == 2:
        H = lambda pt: kernels.p_tilde_components(fc, kappa, pt)
    else:
        H = lambda pt: kernels.p_components(fc, pt)
    dbar_coeff = lambda pt: kernels.dbar_image_reference(fc, kappa, pt)
    # opaque fields that vanish on part of the grid: h where Re z_n > 0,
    # dbar h where Re z_1 >= 0
    opaque_h = lambda pt: (0.0 if pt.z[-1].real > 0
                           else 1.0 + 0.25j * complex(pt.z.sum()))
    opaque_field = SimpleNamespace(
        value=opaque_h,
        dbar=lambda pt: (0.5j * np.conj(pt.z) if pt.z[0].real < 0
                         else np.zeros(n, dtype=complex)))
    return chart, kappa, H, dbar_coeff, opaque_h, opaque_field


@pytest.mark.parametrize("n,transported", [(1, False), (2, False),
                                           (2, True), (3, False)],
                         ids=["n=1", "n=2", "n=2-transported", "n=3"])
def test_block_sums_equal_the_node_loops(geo, n, transported):
    """The face, shell and cycle-C integrals, summed one block at a time,
    equal (==) the node loops over the same geometry, for a WindowBump h
    and for opaque callables that vanish on part of the grid."""
    chart, kappa, H, dbar_coeff, opaque_h, opaque_field = _block_case(
        geo, n, transported)
    bump = WindowBump(chart)
    faces = _tube_faces(chart, 0.1)
    if n > 1:
        assert all(len(list(_box_blocks(chart, face, _hat_minors))) > 1
                   for face in faces)
    for h in (bump, opaque_h):
        for face in faces:
            assert _face_form_integral(chart, face, h, H) == \
                _face_node_loop(chart, face, h, H)
        assert cycle_integral_C(chart.vector, h, kappa, chart,
                                target=1.0) == \
            _cycle_C_node_loop(chart, h, kappa, 2)
    strip = _shell_strips(chart, 0.05, 0.1)[0]
    assert len(list(_box_blocks(chart, strip, _top_det))) > 1
    for field in (bump, opaque_field):
        value = _shell_volume_integral(chart, field, H, dbar_coeff, 0.05, 0.1)
        assert value != 0
        assert value == _shell_node_loop(chart, field, H, dbar_coeff,
                                         0.05, 0.1)


def test_opaque_h_runs_once_per_node_before_H(geo):
    """An opaque h runs once per node, in node order, over each whole block
    before H runs at any node of it; H runs once per node where h != 0."""
    chart, _, H, _, opaque_h, _ = _block_case(geo, 2, False)
    face = _tube_faces(chart, 0.1)[0]
    calls = []

    def h(pt):
        calls.append(("h", pt))
        return opaque_h(pt)

    def form(pt):
        calls.append(("H", pt))
        return H(pt)

    _face_form_integral(chart, face, h, form)
    expected = []
    for points, _, _ in _box_blocks(chart, face, _hat_minors):
        points = list(points)
        expected += [("h", pt.z.tolist()) for pt in points]
        expected += [("H", pt.z.tolist()) for pt in points
                     if opaque_h(pt) != 0]
    assert [(kind, pt.z.tolist()) for kind, pt in calls] == expected
    assert 0 < sum(kind == "H" for kind, _ in calls) < len(expected) // 2


def test_window_bump_evaluates_each_block_once(geo, monkeypatch):
    """A WindowBump h is evaluated once per block by its row functions."""
    chart, _, H, dbar_coeff, _, _ = _block_case(geo, 2, False)
    runs = []
    for name in ("_value_rows", "_dbar_rows"):
        rows = getattr(WindowBump, name)
        monkeypatch.setattr(WindowBump, name,
                            lambda self, block, rows=rows, name=name: (
                                runs.append(name), rows(self, block))[1])
    bump = WindowBump(chart)
    face = _tube_faces(chart, 0.1)[0]
    blocks = list(_box_blocks(chart, face, _hat_minors))
    seen = []
    _face_form_integral(chart, face, bump,
                        lambda pt: (seen.append(pt), H(pt))[1])
    assert runs == ["_value_rows"] * len(blocks)
    runs.clear()
    strips = _shell_strips(chart, 0.05, 0.1)
    _shell_volume_integral(chart, bump, H, dbar_coeff, 0.05, 0.1)
    count = sum(len(list(_box_blocks(chart, strip, _top_det)))
                for strip in strips)
    assert runs == ["_value_rows", "_dbar_rows"] * count


def test_window_bump_block_raises_its_first_failed_row(geo, monkeypatch):
    """When a bump's row function fails rows, at_rows raises the
    exception of the block's first failed row, not of the first one
    recorded."""
    chart = _block_case(geo, 2, False)[0]
    monkeypatch.setattr(WindowBump, "_value_rows", lambda self, block: (
        np.zeros(len(block.z)), {3: lambda: ValueError("row 3"),
                                 1: lambda: ValueError("row 1")}))
    bump = WindowBump(chart)
    points, _, _ = next(_box_blocks(chart, _tube_faces(chart, 0.1)[0],
                                    _hat_minors))
    with pytest.raises(ValueError, match="row 1"):
        at_rows(points, None, bump)


def test_block_where_h_vanishes_contributes_exact_zero(geo):
    """A block in which h vanishes at every node adds exactly nothing and
    runs no form callback: a face whose h is zero on its first block sums
    its other blocks alone, and a face or shell whose h and dbar h vanish
    everywhere integrates to exactly 0."""
    chart, _, H, dbar_coeff, _, _ = _block_case(geo, 2, False)
    face = _tube_faces(chart, 0.1)[0]
    first, *rest = _box_blocks(chart, face, _hat_minors)
    first_block = {tuple(pt.z.tolist()) for pt in first[0]}
    assert rest
    seen = []

    def h(pt):
        return 0.0 if tuple(pt.z.tolist()) in first_block else 1.0

    def form(pt):
        seen.append(tuple(pt.z.tolist()))
        return H(pt)

    value = _face_form_integral(chart, face, h, form)
    assert not first_block.intersection(seen)
    assert value == _face_node_loop(chart, face, h, H)
    never = lambda pt: pytest.fail("form callback ran where h = 0")
    assert _face_form_integral(chart, face, lambda pt: 0.0, never) == 0
    zero = SimpleNamespace(value=lambda pt: 0.0,
                           dbar=lambda pt: np.zeros(2, dtype=complex))
    assert _shell_volume_integral(chart, zero, never, never, 0.05, 0.1) == 0


def test_singular_H_node_raises_the_node_loop_error(geo, monkeypatch):
    """With the kernel guard raised so that part of the first face is
    singular, tube_boundary_integral raises the KernelSingularity of the
    first singular node the node loop meets, and runs H no further."""
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=4, collar=4)
    fc = frame.frame_coords(MU[2])
    bump = WindowBump(chart)
    face = _tube_faces(chart, 0.1)[0]
    points = [pt for pts, _, _ in _box_blocks(chart, face, _hat_minors)
              for pt in pts]
    q_minus = [abs(q_plus_minus(frame, fc, pt)[1]) for pt in points]
    monkeypatch.setattr(kernels, "GUARD",
                        float(np.median(q_minus)) / max(1.0, abs(chart.norm)))
    calls = []

    def H(pt):
        calls.append(pt)
        return kernels.p_tilde_components(fc, 4, pt)

    with pytest.raises(kernels.KernelSingularity) as loop:
        _face_node_loop(chart, face, bump, H)
    loop_calls = len(calls)
    assert 1 < loop_calls < len(points)
    calls.clear()
    with pytest.raises(kernels.KernelSingularity) as blocked:
        tube_boundary_integral(MU[2], bump, H, 0.1, chart)
    assert len(calls) == loop_calls
    assert str(blocked.value) == str(loop.value)
    assert (blocked.value.quantity, blocked.value.value) == \
        (loop.value.quantity, loop.value.value)


# ---------------------------------------------------------------------------
# the shell form of the Stokes identity


def _stokes_setup(frame, n, kappa, nodes, collar):
    chart = _chart_C(frame, n, nodes=nodes, collar=collar)
    fc = frame.frame_coords(MU[n])
    h = WindowBump(chart)
    p_field = lambda pt: kernels.p_tilde_components(fc, kappa, pt)
    dbar_coeff = lambda pt: kernels.dbar_image_reference(fc, kappa, pt)
    return chart, h, p_field, dbar_coeff


def test_shell_stokes_line(geo):
    _, frame, _ = geo[1]
    chart, h, p_field, dbar_coeff = _stokes_setup(frame, 1, 3, 12, 12)
    out = shell_stokes(chart, h, p_field, dbar_coeff, (0.05, 0.1),
                       boundary_target=1e-6)
    scale = max(abs(out["outer"]), abs(out["volume"]), 1e-3)
    assert abs(out["residual"]) <= 1e-10 * scale


def test_shell_stokes_surface(geo):
    """d(h ptilde) integrated over the shell between two tube radii equals
    the difference of the boundary integrals; this exercises every sign in
    the face and volume pullbacks at once."""
    _, frame, _ = geo[2]
    chart, h, p_field, dbar_coeff = _stokes_setup(frame, 2, 4, 8, 8)
    out = shell_stokes(chart, h, p_field, dbar_coeff, (0.05, 0.1),
                       boundary_target=1e-3)
    scale = max(abs(out["outer"]), abs(out["volume"]), 1e-3)
    assert abs(out["residual"]) <= 5e-6 * scale


def test_shell_stokes_validation(geo):
    _, frame, _ = geo[2]
    chart, h, p_field, dbar_coeff = _stokes_setup(frame, 2, 4, 4, 4)
    with pytest.raises(CycleError, match="inner"):
        shell_stokes(chart, h, p_field, dbar_coeff, (0.1, 0.05))
    moved = CycleChart.create(frame, (1, 1, 0, 0), chart.window, chart.nodes)
    with pytest.raises(CycleError, match="model"):
        shell_stokes(moved, h, p_field, dbar_coeff, (0.05, 0.1))


def test_wedge_pairing_matches_star_route():
    """For a (0,1)-form f and an (n, n-1)-form G the wedge coefficient
    -(4i q)^n f.G agrees with the star-algebra pairing of f with the
    (0,1)-form whose star is G."""
    rng = np.random.default_rng(7)
    n = 2
    eps = np.array([1.0, -1.0])
    y = np.array([1.3, 0.4])
    q_y = float(eps @ (y * y))
    for _ in range(5):
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        G = rng.normal(size=n) + 1j * rng.normal(size=n)
        direct = -measure_factor(n, q_y) * complex(f @ G)
        via_star = star_pair(f, star_nn1(G, eps, y, q_y), eps, y, q_y)
        assert abs(direct - via_star) <= 1e-12 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# restriction to the negative-norm cycle


def test_restrict_residue_oracle(geo):
    """A last-slot coefficient z_n^{kappa-1} G picks out the residue
    G 2 pi i / 2^kappa, independent of the circle radius."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=4)
    kappa = 4
    for G in (lambda z1: 1.0 + 0j, lambda z1: z1 * z1):
        def H(pt, G=G):
            z = pt.z
            return np.array([0.0j, z[1] ** (kappa - 1) * G(z[0])])
        for s in restrict_samples(NU2, H, kappa, 0.05, chart):
            z1 = complex(s.params[0], s.params[1])
            oracle = G(z1) * 2j * np.pi / 2 ** kappa
            assert abs(s.value - oracle) <= 1e-12 * max(1.0, abs(oracle))
            assert abs(s.extrapolated - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_restrict_conjugate_sector_decays(geo):
    """Against the conjugate fiber factor every polynomial integrand dies:
    the last slot quadratically, the transverse slots linearly."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=3)
    kappa = 4

    def H(pt):
        z = pt.z
        f1 = z[1] ** kappa + z[0] * z[1] ** kappa
        f2 = z[1] ** (kappa + 1) + z[1] ** (kappa + 2) * np.conj(z[1])
        return np.array([f1, f2])

    eps_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    mags = {0: [], 1: []}
    for eps in eps_list:
        ss = restrict_samples(NU2, H, kappa, eps, chart, sector="conjugate")
        for slot in (0, 1):
            mags[slot].append(max(abs(s.all_slots[slot]) for s in ss))
    slopes = {slot: np.polyfit(np.log(eps_list), np.log(m), 1)[0]
              for slot, m in mags.items()}
    assert 0.9 <= slopes[0] <= 1.1
    assert 1.9 <= slopes[1] <= 2.1
    tail = restrict_samples(NU2, H, kappa, 1e-3, chart, sector="conjugate")
    assert max(abs(s.extrapolated) for s in tail) <= 1e-8


def test_restrict_survives_cancelling_terms(geo):
    """Terms like zbar_1 / (2 z_n)^kappa integrate to zero only through
    cancellation of large oscillatory values; the convergence check must
    not mistake the resulting roundoff for quadrature failure."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=3)
    kappa = 4

    def H(pt):
        z = pt.z
        return np.array([z[1] ** kappa + z[0] * np.conj(z[1]),
                         z[1] ** (kappa + 1) + np.conj(z[0])])

    mags = []
    eps_list = [1e-1, 1e-2, 1e-3]
    for eps in eps_list:
        ss = restrict_samples(NU2, H, kappa, eps, chart, sector="conjugate")
        mags.append(max(abs(s.all_slots[1]) for s in ss))
    slope = np.polyfit(np.log(eps_list), np.log(mags), 1)[0]
    assert slope >= 0.9


def test_restrict_validation(geo):
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=3)
    H = lambda pt: np.zeros(2, complex)
    with pytest.raises(CycleError, match="sector"):
        restrict_samples(NU2, H, 4, 0.1, chart, sector="sideways")
    with pytest.raises(CycleError, match="match"):
        restrict_samples((0, 0, -2, 2), H, 4, 0.1, chart)
    pos = _chart_C(frame, 2, nodes=4)
    with pytest.raises(CycleError, match="negative-norm"):
        restrict_samples(MU[2], H, 4, 0.1, pos)


# ids: eps, the fiber's coarse angle count, the rejected argument
@pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 1.5],
                         ids=lambda eps: f"{eps}-256-eps")
def test_restrict_rejects_bad_arguments(geo, eps):
    """eps must lie in (0, 1): eps = 0 gives a zero radius and NaN samples,
    and q(Y) >= q(Y')(1 - eps^2) leaves the domain for eps >= 1."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=2)
    H = lambda pt: np.ones(2, complex)
    with pytest.raises(CycleError, match="eps"):
        restrict_samples(NU2, H, 4, eps, chart)


def _circle_point_per_angle(chart, params, radius, theta):
    z = chart.model_z(params)
    z[-1] = radius * np.exp(1j * theta)
    return DomainPoint(chart.frame, z)


def _fiber_integral_per_angle(chart, H, kappa, params, eps, sector,
                              angle_nodes, target):
    """The circle integral with a separate coarse and fine trapezoid, every
    sample rebuilt angle by angle (test-only reference)."""
    frame = chart.frame
    n = frame.n
    s = np.sqrt(abs(chart.norm))
    pairs = np.asarray(params, dtype=float).reshape(n - 1, 2)
    radius = eps * np.sqrt(float(frame.eps[:n - 1] @ (pairs[:, 1] ** 2)))

    def trapezoid(count):
        acc = np.zeros(n, dtype=complex)
        mass = np.zeros(n)
        step = 2.0 * np.pi / count
        for k in range(count):
            theta = step * k
            point = _circle_point_per_angle(chart, params, radius, theta)
            z_n = radius * np.exp(1j * theta)
            comps = np.asarray(H(point), dtype=complex)
            denom = (2.0 * s * z_n) ** kappa
            if sector == "holomorphic":
                slot_weight = 1j * radius * np.exp(1j * theta)
            else:
                slot_weight = -1j * radius * np.exp(-1j * theta)
            weights = np.full(n, 2j * radius, dtype=complex)
            weights[-1] = slot_weight
            term = comps * weights / denom
            acc += term
            mass += np.abs(term)
        return acc * step, mass * step

    coarse, _ = trapezoid(angle_nodes)
    fine, mass = trapezoid(2 * angle_nodes)
    floor = np.maximum(target * np.abs(fine), 1e-13 * mass + 1e-16)
    assert np.all(np.abs(fine - coarse) <= floor)
    return fine


def _restrict_per_angle(chart, H, kappa, eps, sector, angle_nodes=256,
                        target=1e-9):
    out = []
    for params, weight in zip(*gauss_legendre_grid(chart.window,
                                                   chart.nodes)):
        slots = _fiber_integral_per_angle(chart, H, kappa, params, eps,
                                          sector, angle_nodes, target)
        half = _fiber_integral_per_angle(chart, H, kappa, params, eps / 2.0,
                                         sector, angle_nodes, target)
        value = complex(slots[-1])
        out.append((tuple(params), weight, value,
                    complex(richardson(value, half[-1])), slots))
    return out


def _h_residue(pt):
    z = pt.z
    return np.array([0.0j, z[1] ** 3 * (1.0 + z[0] ** 2)])


def _h_decaying(pt):
    z = pt.z
    return np.array([z[1] ** 4 + z[0] * z[1] ** 4,
                     z[1] ** 5 + z[1] ** 6 * np.conj(z[1])])


def _h_cancelling(pt):
    z = pt.z
    return np.array([z[1] ** 4 + z[0] * np.conj(z[1]),
                     z[1] ** 5 + np.conj(z[0])])


@pytest.mark.parametrize("sector,H,eps", [
    ("holomorphic", _h_residue, 0.05),
    ("holomorphic", _h_decaying, 0.1),
    ("conjugate", _h_decaying, 0.01),
    ("conjugate", _h_cancelling, 0.001),
], ids=["holomorphic-residue", "holomorphic-decaying", "conjugate-decaying",
        "conjugate-cancelling"])
def test_restrict_matches_per_angle_reference(geo, sector, H, eps):
    """The array fiber rule reproduces the per-angle trapezoid pair bit for
    bit: the coarse sum read off the even fine nodes is the same sum."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=2)
    samples = restrict_samples(NU2, H, 4, eps, chart, sector=sector)
    reference = _restrict_per_angle(chart, H, 4, eps, sector)
    assert len(samples) == len(reference)
    for got, (params, weight, value, extr, slots) in zip(samples, reference):
        assert got.params == params and got.weight == weight
        assert got.value == value and got.extrapolated == extr
        assert np.array_equal(got.all_slots, slots)
        assert got.all_slots.tobytes() == slots.tobytes()


@pytest.mark.parametrize("angle_nodes", [256])
def test_restrict_runs_H_once_per_fine_angle(geo, angle_nodes):
    """Each window node runs two fibers of 2 angle_nodes angles, for the
    coarse rule's angle_nodes: 4 angle_nodes calls of H (a separate coarse
    rule would make 6)."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=2)
    calls = []

    def H(pt):
        calls.append(pt)
        return _h_residue(pt)

    samples = restrict_samples(NU2, H, 4, 0.05, chart)
    assert len(samples) == 4
    assert len(calls) == 4 * angle_nodes * len(samples)


def test_cycle_integral_T_residue_oracles(geo):
    """The window integral of the restriction, assembled by hand from the
    residue and the base wedge dz_1 dzbar_1 -> -2i dx dy."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=10)
    kappa = 4
    area = 0.8 * 0.8

    def make_H(G):
        def H(pt):
            z = pt.z
            return np.array([0.0j, z[1] ** (kappa - 1) * G(z[0])])
        return H

    v0 = cycle_integral_T(NU2, lambda pt: np.zeros(2, complex), kappa, 0.05,
                          chart)
    assert v0 == 0.0
    v1 = cycle_integral_T(NU2, make_H(lambda z1: 1.0), kappa, 0.05, chart)
    expected1 = 4.0 * np.pi * area / 2 ** kappa
    assert abs(v1 - expected1) <= 1e-12 * expected1
    # int of z1^2 over the window box, by elementary antiderivatives
    box_moment = (2 * 0.4 ** 3 / 3) * 0.8 - ((1.6 ** 3 - 0.8 ** 3) / 3) * 0.8
    v2 = cycle_integral_T(NU2, make_H(lambda z1: z1 * z1), kappa, 0.05, chart)
    expected2 = 4.0 * np.pi / 2 ** kappa * box_moment
    assert abs(v2 - expected2) <= 1e-12 * abs(expected2)
    # the residue structure makes the value radius-independent
    v3 = cycle_integral_T(NU2, make_H(lambda z1: z1 * z1), kappa, 0.025, chart)
    assert abs(v3 - v2) <= 1e-12 * abs(v2)


# ---------------------------------------------------------------------------
# quadrature failure reporting


def test_quadrature_error_reports_both_values(geo):
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=3, collar=3)
    fc = frame.frame_coords(MU[2])
    H = lambda pt: kernels.p_tilde_components(fc, 4, pt)
    h = WindowBump(chart)
    with pytest.raises(QuadratureError) as info:
        tube_boundary_integral(MU[2], h, H, 0.1, chart, target=1e-16)
    assert info.value.coarse != info.value.fine

    neg = _chart_T2(frame, nodes=3)

    def aliased(pt):
        # phase 256 after the kappa = 3 weight, at unit size: integrated
        # exactly by the 512 fine angles, aliased by the 256 coarse ones
        z = pt.z
        return np.array([0.0j, z[1] ** 2 * (z[1] / abs(z[1])) ** 256])

    with pytest.raises(QuadratureError):
        restrict_samples(NU2, aliased, 3, 0.1, neg)


def _nan_at_call(field, index):
    """field, except that call number index returns NaN components."""
    calls = []

    def wrapped(pt):
        calls.append(pt)
        value = np.asarray(field(pt), dtype=complex)
        return value * np.nan if len(calls) == index + 1 else value
    return wrapped


def test_tube_boundary_raises_on_a_nan_node(geo):
    """A NaN at one node must fail the doubling check, not pass it."""
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=3, collar=3)
    fc = frame.frame_coords(MU[2])
    H = _nan_at_call(lambda pt: kernels.p_tilde_components(fc, 4, pt), 0)
    with pytest.raises(QuadratureError):
        tube_boundary_integral(MU[2], lambda pt: 1.0, H, 0.1, chart,
                               target=1e-2)


@pytest.mark.parametrize("index", [0, 1])
def test_restrict_raises_on_a_nan_node(geo, index):
    """A NaN sample on a fiber must fail its convergence check, whether it
    lies on a coarse (even) node or on a fine-only one."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=2)
    with pytest.raises(QuadratureError):
        restrict_samples(NU2, _nan_at_call(_h_residue, index), 4, 0.05,
                         chart)


# ---------------------------------------------------------------------------
# row-form integrands (domain.bind_rows) against the per-node path


def _plain(func):
    """func without its row form: the drivers' per-node fallback."""
    return lambda pt: func(pt)


def _bits(value):
    return np.complex128(value).tobytes()


@pytest.mark.parametrize("transported", [False, True],
                         ids=["model", "transported"])
def test_row_form_integrands_match_the_per_node_path_bits(geo, transported):
    """The face, shell and cycle-C drivers give the same bits whether
    their integrands run their row forms once per block (a WindowBump, its
    value and dbar, bound p_tilde, dbar reference and omega) or are called
    node by node, on the model chart and on a transported one."""
    chart, kappa, _, _, opaque_h, opaque_field = _block_case(geo, 2,
                                                              transported)
    frame = chart.frame
    fc = frame.frame_coords(chart.vector)
    H = kernels.bound_p_tilde(fc, kappa)
    dbar_coeff = kernels.bound_dbar_reference(fc, kappa)
    bump = WindowBump(chart)
    plain_bump = SimpleNamespace(value=_plain(bump.value),
                                 dbar=_plain(bump.dbar))
    for face in _tube_faces(chart, 0.1):
        for h in (bump, opaque_h):
            value = _face_form_integral(chart, face, h, H)
            assert value != 0
            assert _bits(value) == _bits(
                _face_form_integral(chart, face, _plain(h), _plain(H)))
    for field in (bump, opaque_field):
        value = _shell_volume_integral(chart, field, H, dbar_coeff, 0.05, 0.1)
        plain_field = plain_bump if field is bump else field
        assert _bits(value) == _bits(_shell_volume_integral(
            chart, plain_field, _plain(H), _plain(dbar_coeff), 0.05, 0.1))
    omega = kernels.bound_omega(frame.frame_coords((1, 2, 1, 0)), kappa)
    for h in (bump, omega):
        value = cycle_integral_C(chart.vector, h, kappa, chart, target=1.0)
        assert value != 0
        assert _bits(value) == _bits(cycle_integral_C(
            chart.vector, _plain(h), kappa, chart, target=1.0))


def _failing_rows(rows, bad):
    """rows with the rows where bad(block) is true failing as well, each
    with a KernelSingularity naming its row's z."""
    def failing(block, *args):
        values, failures = rows(block, *args)
        failures = dict(failures)
        for i in np.flatnonzero(bad(block)).tolist():
            failures.setdefault(i, lambda z=complex(block.z[i, -1]): (
                kernels.KernelSingularity("forced", None, "z_n", abs(z))))
        return values, failures
    return failing


def test_row_form_failure_where_h_vanishes_raises_nothing(geo):
    """An integrand whose row form fails exactly at the nodes where h (and
    dbar h) vanish raises nothing, on either path, and both give the same
    bits."""
    chart, kappa, _, _, opaque_h, opaque_field = _block_case(geo, 2, False)
    fc = chart.frame.frame_coords(chart.vector)
    # opaque_h vanishes where Re z_n > 0, its dbar where Re z_1 >= 0
    H = bind_rows(_failing_rows(kernels.p_tilde_rows,
                                lambda block: block.z[:, -1].real > 0),
                  fc, kappa, "auto")
    face = _tube_faces(chart, 0.1)[0]
    points = next(_box_blocks(chart, face, _hat_minors))[0]
    assert H.rows(points)[1]
    assert _bits(_face_form_integral(chart, face, opaque_h, H)) == _bits(
        _face_form_integral(chart, face, opaque_h, _plain(H)))
    both = lambda block: ((block.z[:, -1].real > 0)
                          & (block.z[:, 0].real >= 0))
    P = bind_rows(_failing_rows(kernels.p_tilde_rows, both), fc, kappa,
                  "auto")
    dbar_coeff = bind_rows(_failing_rows(kernels._dbar_reference_rows, both),
                           fc, kappa)
    strip = _shell_strips(chart, 0.05, 0.1)[0]
    assert P.rows(next(_box_blocks(chart, strip, _top_det))[0])[1]
    assert _bits(_shell_volume_integral(
        chart, opaque_field, P, dbar_coeff, 0.05, 0.1)) == _bits(
        _shell_volume_integral(chart, opaque_field, _plain(P),
                               _plain(dbar_coeff), 0.05, 0.1))


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_first_kept_failing_row_raises_as_the_node_loop(geo):
    """A row form failing at kept nodes raises the exception of the first
    one the node loop meets, type and message, on faces and shells, with
    row forms, plain callables or one of each; on a shell node the dbar
    coefficient comes before P, as in the loop."""
    chart, kappa, _, _, _, _ = _block_case(geo, 2, False)
    fc = chart.frame.frame_coords(chart.vector)
    bump = WindowBump(chart)
    face = _tube_faces(chart, 0.1)[0]
    for bad in (lambda block: block.z[:, -1].real < -0.2,
                lambda block: np.arange(len(block.z)) >= 5):
        H = bind_rows(_failing_rows(kernels.p_tilde_rows, bad), fc, kappa,
                      "auto")
        row = _raised(lambda: _face_form_integral(chart, face, bump, H))
        assert row[0] is kernels.KernelSingularity
        assert row == _raised(lambda: _face_node_loop(chart, face, bump, H))
        assert row == _raised(
            lambda: _face_form_integral(chart, face, bump, _plain(H)))
    # P fails from node 3 on, the dbar coefficient from node 5, then both
    # at node 4 of each block: the loop meets P's failure, then the
    # coefficient's
    for p_from, c_from, want in ((3, 5, "P"), (4, 4, "coefficient")):
        def failing(rows, start, name):
            def out(block, *args):
                values, _ = rows(block, *args)
                return values, {i: (lambda i=i: ZeroDivisionError(
                    f"{name} at row {i}")) for i in range(start,
                                                          len(block.z))}
            return out
        H = bind_rows(failing(kernels.p_tilde_rows, p_from, "P"), fc, kappa,
                      "auto")
        coeff = bind_rows(failing(kernels._dbar_reference_rows, c_from,
                                  "coefficient"), fc, kappa)
        row = _raised(lambda: _shell_volume_integral(
            chart, bump, H, coeff, 0.05, 0.1))
        assert row[1].startswith(want)
        assert row == _raised(lambda: _shell_node_loop(
            chart, bump, H, coeff, 0.05, 0.1))
        for pair in ((_plain(H), _plain(coeff)), (H, _plain(coeff)),
                     (_plain(H), coeff)):
            assert row == _raised(lambda: _shell_volume_integral(
                chart, bump, pair[0], pair[1], 0.05, 0.1))


def test_singular_bound_kernel_raises_the_node_loop_error(geo, monkeypatch):
    """With the kernel guard raised so that part of the first face is
    singular, a bound p_tilde raises the KernelSingularity the node loop
    over p_tilde_components raises."""
    _, frame, _ = geo[2]
    chart = _chart_C(frame, 2, nodes=4, collar=4)
    fc = frame.frame_coords(MU[2])
    bump = WindowBump(chart)
    face = _tube_faces(chart, 0.1)[0]
    points = [pt for pts, _, _ in _box_blocks(chart, face, _hat_minors)
              for pt in pts]
    q_minus = [abs(q_plus_minus(frame, fc, pt)[1]) for pt in points]
    monkeypatch.setattr(kernels, "GUARD",
                        float(np.median(q_minus)) / max(1.0, abs(chart.norm)))
    with pytest.raises(kernels.KernelSingularity) as loop:
        _face_node_loop(chart, face, bump,
                        lambda pt: kernels.p_tilde_components(fc, 4, pt))
    with pytest.raises(kernels.KernelSingularity) as blocked:
        tube_boundary_integral(MU[2], bump, kernels.bound_p_tilde(fc, 4),
                               0.1, chart)
    assert str(blocked.value) == str(loop.value)
    assert (blocked.value.quantity, blocked.value.value) == \
        (loop.value.quantity, loop.value.value)


def test_invalid_kappa_raises_at_once_on_both_paths(geo):
    """A bound p_tilde of invalid weight raises its ValueError at the
    first block, as the per-node path does at the first node."""
    chart, _, _, _, _, _ = _block_case(geo, 2, False)
    fc = chart.frame.frame_coords(chart.vector)
    bump = WindowBump(chart)
    face = _tube_faces(chart, 0.1)[0]
    for H in (kernels.bound_p_tilde(fc, 1),
              lambda pt: kernels.p_tilde_components(fc, 1, pt)):
        with pytest.raises(ValueError, match="need kappa > n/2"):
            _face_form_integral(chart, face, bump, H)
        with pytest.raises(ValueError, match="need kappa > n/2"):
            _shell_volume_integral(chart, bump, H,
                                   kernels.bound_dbar_reference(fc, 1),
                                   0.05, 0.1)


@pytest.mark.parametrize("sector", ["holomorphic", "conjugate"])
def test_fiber_row_form_matches_the_per_angle_path_bits(geo, monkeypatch,
                                                        sector):
    """restrict_samples and cycle_integral_T give the same bits for a bound
    p_tilde, whose row form runs once per circle fiber, as for the same
    kernel called angle by angle; the row form runs one p_tilde_rows per
    fiber and reads no row memo."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=2)
    calls = {"p_tilde_rows": 0, "row_value": 0}
    for module, name in ((kernels, "p_tilde_rows"), (domain, "row_value")):
        def counted(*args, inner=getattr(module, name), name=name):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, counted)
    H = kernels.bound_p_tilde(frame.frame_coords(MU[2]), 4)
    samples = restrict_samples(NU2, H, 4, 0.05, chart, sector=sector)
    assert calls == {"p_tilde_rows": 2 * len(samples), "row_value": 0}
    per_angle = restrict_samples(NU2, _plain(H), 4, 0.05, chart,
                                 sector=sector)
    assert calls["row_value"] == 4 * 256 * len(samples)
    assert len(samples) == len(per_angle) == 4
    for got, want in zip(samples, per_angle):
        assert got.params == want.params and got.weight == want.weight
        assert _bits(got.value) == _bits(want.value)
        assert _bits(got.extrapolated) == _bits(want.extrapolated)
        assert got.all_slots.tobytes() == want.all_slots.tobytes()
    if sector == "holomorphic":
        value = cycle_integral_T(NU2, H, 4, 0.05, chart)
        assert value != 0
        assert _bits(value) == _bits(cycle_integral_T(NU2, _plain(H), 4, 0.05,
                                                      chart))


def test_fiber_row_form_failure_raises_as_the_per_angle_path(geo):
    """A row form that fails at some angles of a fiber raises the failure
    of the first of them, type and message, as the same function called
    angle by angle does, from restrict_samples and cycle_integral_T."""
    _, frame, _ = geo[2]
    chart = _chart_T2(frame, nodes=2)

    def rows(block, *args):
        values, failures = kernels.p_tilde_rows(block, *args)
        assert not failures
        return values, {i: (lambda i=i: ZeroDivisionError(f"angle {i}"))
                        for i in (300, 37)}

    H = bind_rows(rows, frame.frame_coords(MU[2]), 4, "auto")
    for run in (restrict_samples, cycle_integral_T):
        row = _raised(lambda: run(NU2, H, 4, 0.05, chart))
        assert row == (ZeroDivisionError, "angle 37")
        assert row == _raised(lambda: run(NU2, _plain(H), 4, 0.05, chart))
