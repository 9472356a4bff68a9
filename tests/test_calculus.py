from __future__ import annotations

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from orthoforms import calculus, domain, kernels
from orthoforms.calculus import (central_differences, dbar_jacobian,
                                 laplace_scalar, measure_factor,
                                 pair_bar_dbar, q_y_dbar, ratio_dbar,
                                 ratio_field, star01, star_nn1, star_pair,
                                 star_top, xi_scalar, xi_top)
from orthoforms.domain import (Block, DomainPoint, WittFrame, bind_rows,
                               metric_upper, q_plus_minus, sample_point,
                               sample_vector)
from orthoforms.quadratic import (lattice_from_config, standard_lattice,
                                  vec_float)


class _HolomorphicPair:
    """Z -> (lambda, psi(Z)); holomorphic, so dbar = 0."""

    def __init__(self, lam_fc):
        self.lam = lam_fc

    def value(self, point):
        return point.pair(self.lam)

    def dbar(self, point):
        return np.zeros(point.frame.n, dtype=complex)


def _setup(setup_n, rng):
    lattice, frame, _, n = setup_n
    p = sample_point(frame, rng)
    lam = sample_vector(frame, rng)
    return lattice, frame, n, p, lam, frame.frame_coords(lam)


def _pair_bar(fc):
    return lambda pt: pt.pair_bar(fc)


def _q_y(pt):
    return complex(pt.q_y)


def test_dbar_catalog_matches_finite_differences(setup_n, rng):
    """Every closed-form dbar agrees with the Richardson FD oracle applied to
    its value function."""
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    holomorphic = _HolomorphicPair(fc)
    ratio = ratio_field(fc)
    cases = {
        "holomorphic": (holomorphic.value, holomorphic.dbar(p)),
        "pair_bar": (_pair_bar(fc), pair_bar_dbar(fc, p)),
        "q_y": (_q_y, q_y_dbar(p)),
        "ratio": (ratio.value, ratio.dbar(p)),
    }
    for name, (value, analytic) in cases.items():
        numeric = dbar_jacobian(value, p)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) < 1e-7 * scale, name


def test_dbar_jacobian_consistent_with_componentwise(setup_n, rng):
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    pair_bar = _pair_bar(fc)

    def vec(pt):
        return np.array([pair_bar(pt), pt.q_y ** 2 + 0j])

    jac = dbar_jacobian(vec, p)
    row0 = dbar_jacobian(pair_bar, p)
    row1 = dbar_jacobian(lambda pt: pt.q_y ** 2 + 0j, p)
    assert np.allclose(jac[0], row0, atol=1e-8)
    assert np.allclose(jac[1], row1, atol=1e-8)


def test_central_differences_exact_on_cubics():
    """One Richardson level cancels the h^2 term of the central difference,
    and a cubic has no other, so only roundoff remains along real and
    imaginary directions alike."""
    a = np.array([1.5 - 0.5j, 0.7 + 2.0j])
    z0 = np.array([0.3 + 1.1j, -0.2 + 0.4j])

    def f(z):
        s = a @ z
        return s ** 3 + np.conj(s) ** 2 * s

    directions = [np.array([1.0, 0.0], dtype=complex),
                  np.array([1j, 0.0]), np.array([0.0, 1j]),
                  np.array([0.5 - 1j, 2.0 + 0.25j])]
    d = central_differences(f, z0, directions, 0.1)
    s = a @ z0
    for k, v in enumerate(directions):
        w = a @ v
        exact = 3 * s ** 2 * w + 2 * np.conj(s) * np.conj(w) * s \
            + np.conj(s) ** 2 * w
        assert abs(d[k] - exact) < 1e-12 * abs(exact)


def _shifted_list(z, directions, h):
    """The stencil as a list of small array operations: z + step d and
    z - step d for the steps h and h/2 and each direction d."""
    return [shifted for step in (h, h / 2.0) for d in directions
            for shifted in (z + step * d, z - step * d)]


@pytest.mark.parametrize("scale", [0.3, 7.5])
def test_shifted_is_the_list_stencil_bit_for_bit(scale, rng):
    """_shifted's one broadcast gives the bytes of the list-built stencil,
    along dbar_jacobian's directions at n = 1..4, at its steps for
    |z|_inf below and above 1."""
    for n in range(1, 5):
        z = scale * (rng.uniform(-1.0, 1.0, n)
                     + 1j * rng.uniform(0.1, 1.0, n))
        h = 1e-4 * max(1.0, float(np.max(np.abs(z))))
        units = np.eye(n, dtype=complex)
        directions = np.concatenate([units, 1j * units])
        want = np.array(_shifted_list(z, directions, h))
        got = calculus._shifted(z, directions, h)
        assert got.shape == want.shape == (8 * n, n)
        assert got.tobytes() == want.tobytes()
    directions = [np.array([1.0, 0.0], dtype=complex),
                  np.array([0.5 - 1j, 2.0 + 0.25j])]
    z = np.array([0.3 + 1.1j, -0.2 + 0.4j]) * scale
    assert (calculus._shifted(z, directions, 0.1).tobytes()
            == np.array(_shifted_list(z, directions, 0.1)).tobytes())


def test_dbar_jacobian_evaluates_one_block_in_difference_order(setup_n,
                                                               rng):
    """The 8n shifted points come from one domain.Block, in the
    order of central_differences, and give its result bit for bit."""
    _, frame, n, p, _, fc = _setup(setup_n, rng)
    seen = []

    def record(pt):
        seen.append((pt._row[0], pt.z.copy()))
        return pt.pair_bar(fc) * pt.q_y

    jac = dbar_jacobian(record, p)
    assert len(seen) == 8 * n and len({id(b) for b, _ in seen}) == 1
    h = 1e-4 * max(1.0, float(np.max(np.abs(p.z))))
    units = np.eye(n, dtype=complex)
    order = []
    ref = central_differences(
        lambda z: order.append(z) or DomainPoint(frame, z).pair_bar(fc)
        * DomainPoint(frame, z).q_y, p.z,
        np.concatenate([units, 1j * units]), h)
    assert all(np.array_equal(z, want) for (_, z), want in zip(seen, order))
    assert np.array_equal(jac, (ref[..., :n] + 1j * ref[..., n:]) / 2.0)


def test_dbar_jacobian_shapes(setup_n, rng):
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    assert dbar_jacobian(_q_y, p).shape == (n,)
    assert dbar_jacobian(lambda pt: np.array([pt.q_y, 1.0, 2.0]),
                         p).shape == (3, n)


def test_star_roundtrips(setup_n, rng):
    """The antilinear stars on (0,1)- and (n,n-1)-forms invert each other."""
    _, frame, n, p, _, _ = _setup(setup_n, rng)
    eps, y, qy = frame.eps, p.y, p.q_y
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.allclose(star_nn1(star01(f, eps, y, qy), eps, y, qy), f, atol=1e-10)
    assert np.allclose(star01(star_nn1(g, eps, y, qy), eps, y, qy), g, atol=1e-10)
    # weighted round trip: q(Y)^kappa then q(Y)^-kappa
    kappa = 3
    weighted = qy ** kappa * star01(f, eps, y, qy)
    back = qy ** (-kappa) * star_nn1(weighted * qy ** kappa, eps, y, qy) / qy ** kappa
    assert np.allclose(back, f, atol=1e-10)


def test_star01_closed_form_matches_metric_contraction(setup_n, rng):
    """star01 written out equals conj(f) h^{ij} contracted with the full
    inverse metric."""
    lattice, frame, n, p, lam, fc = _setup(setup_n, rng)
    eps, y, qy = frame.eps, p.y, p.q_y
    for _ in range(50):
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = -(np.conj(f) @ metric_upper(eps, y, qy)) / (
            2.0 * measure_factor(n, qy))
        dev = np.max(np.abs(star01(f, eps, y, qy) - ref))
        assert dev <= 1e-15 * np.max(np.abs(ref))


def test_wedge_against_star_is_pairing(setup_n, rng):
    """f ^ star(g) = star_pair(f, g) dmu, written in coefficients."""
    _, frame, n, p, _, _ = _setup(setup_n, rng)
    eps, y, qy = frame.eps, p.y, p.q_y
    for _ in range(4):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # dzbar_j ^ hat_j = -(4i q(Y))^n dmu
        wedge = complex(np.sum(f * star01(g, eps, y, qy)) * (-measure_factor(n, qy)))
        assert abs(wedge - star_pair(f, g, eps, y, qy)) < 1e-9


def test_star_pair_hermitian_positive(setup_n, rng):
    _, frame, n, p, _, _ = _setup(setup_n, rng)
    eps, y, qy = frame.eps, p.y, p.q_y
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert abs(star_pair(f, g, eps, y, qy)
               - np.conj(star_pair(g, f, eps, y, qy))) < 1e-10
    val = star_pair(f, f, eps, y, qy)
    assert abs(val.imag) < 1e-10
    assert val.real >= -1e-10  # the metric is positive on the fixed component


def test_star_top_weight():
    assert star_top(2.0 + 1.0j, 3, 1.5) == (2.0 - 1.0j) * 1.5 ** 3


def _battery_pieces(lattice, frame, p, lam, fc):
    lamf = vec_float(lam)
    g = lattice.gram_float()
    pair = p.pair(fc)
    lam_psi_x = float(lamf @ g @ p.psi_x)
    lam_psi_y = float(lamf @ g @ p.psi_y)
    lam_ep = float(fc[1])
    q_lam = float(lattice.q(lam))
    return pair, lam_psi_x, lam_psi_y, lam_ep, q_lam


def test_gradient_pairing_battery(setup_n, rng):
    """The four closed-form values of the metric pairing of the basic
    gradients, plus their scalar recombination."""
    lattice, frame, n, p, lam, fc = _setup(setup_n, rng)
    eps, y, qy = frame.eps, p.y, p.q_y
    pair, lpx, lpy, lam_ep, q_lam = _battery_pieces(lattice, frame, p, lam, fc)
    f_pb = pair_bar_dbar(fc, p)
    f_qy = q_y_dbar(p)
    f_u = ratio_field(fc).dbar(p)

    val_i = star_pair(f_pb, f_pb, eps, y, qy)
    ref_i = 2.0 * lpy ** 2 - 4.0 * qy * q_lam + 4.0 * lpx * qy * lam_ep
    assert abs(val_i - ref_i) < 1e-8 * max(1.0, abs(ref_i))

    val_ii = star_pair(f_qy, f_qy, eps, y, qy)
    assert abs(val_ii - qy ** 2) < 1e-9 * max(1.0, qy ** 2)

    val_iii = -2.0 * (pair * star_pair(f_pb, f_qy, eps, y, qy) / qy).real
    ref_iii = -2.0 * lpy ** 2 - 4.0 * lpx * qy * lam_ep
    assert abs(val_iii - ref_iii) < 1e-8 * max(1.0, abs(ref_iii))

    q_plus, q_minus = q_plus_minus(frame, fc, p)
    val_iv = star_pair(f_u, f_u, eps, y, qy)
    ref_iv = -4.0 * q_minus / qy
    assert abs(val_iv - ref_iv) < 1e-8 * max(1.0, abs(ref_iv))

    # the recombination used to derive (iv) from (i)-(iii)
    recombined = (ref_i + abs(pair) ** 2 + ref_iii) / qy ** 2
    assert abs(recombined - ref_iv) < 1e-8 * max(1.0, abs(ref_iv))


def test_quotient_gradient_identity(setup_n, rng):
    """dbar of pairbar/q(Y) by the quotient rule matches its catalog value."""
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    qy = _q_y(p)
    manual = (qy * pair_bar_dbar(fc, p)
              - p.pair_bar(fc) * q_y_dbar(p)) / qy ** 2
    assert np.allclose(ratio_field(fc).dbar(p), manual, atol=1e-12)


def test_laplace_eigenfunction(setup_n, rng):
    """pairbar / q(Y) has weight-1 laplacian eigenvalue n/2."""
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    u = ratio_field(fc)
    lap = laplace_scalar(u, 1, p)
    ref = 0.5 * n * u.value(p)
    assert abs(lap - ref) < 5e-6 * max(1.0, abs(ref))


def test_xi_scalar_of_holomorphic_vanishes(setup_n, rng):
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    assert np.allclose(xi_scalar(_HolomorphicPair(fc), 3, p), 0.0, atol=1e-12)


def test_xi_top_of_constant_coefficients(setup_n, rng):
    """Constant hat-coefficients: xi picks up only the measure factor, whose
    dbar is computed by the FD path; compare against the catalog route."""
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    g0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def const_vec(pt):
        return g0

    # dbar of constants vanishes, so xi_top must vanish identically
    val = xi_top(const_vec, 2, p)
    assert abs(val) < 1e-8


def test_xi_top_linear_coefficients(setup_n, rng):
    """H with hat-coefficients g_j = conj(z_j): dbar-divergence is n, so
    xi_{-kappa} H = conj(-(4 i q(Y))^n) n q(Y)^-kappa."""
    _, frame, n, p, lam, fc = _setup(setup_n, rng)
    kappa = 2

    def vec(pt):
        return np.conj(pt.z)

    val = xi_top(vec, kappa, p)
    ref = np.conj(-measure_factor(n, p.q_y) * n) * p.q_y ** (-kappa)
    assert abs(val - ref) < 1e-7 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# xi_scalar and ratio_field.dbar once per block, against the per-point code


def _xi_scalar_per_point(field, kappa, point):
    """The per-point xi_scalar: the field's dbar, star01 and q(Y)^kappa at
    this point alone."""
    f = field.dbar(point)
    return point.q_y ** kappa * star01(f, point.frame.eps, point.y, point.q_y)


def _ratio_field_per_point(fc):
    """ratio_field with its per-point dbar, ratio_dbar at this point alone."""
    return SimpleNamespace(
        value=ratio_field(fc).value,
        dbar=lambda point: ratio_dbar(fc, point, point.pair_bar(fc)))


def _laplace_per_point(field, kappa, point):
    return xi_top(lambda pt: _xi_scalar_per_point(field, kappa, pt), kappa,
                  point)


def _sample_block(frame, rng, rows):
    return Block(frame, np.array([sample_point(frame, rng).z
                                  for _ in range(rows)]))


@pytest.mark.parametrize("kappa", [1, 3, "n+2"])
def test_block_xi_and_laplace_match_per_point_bits(setup_n, rng, kappa):
    """xi_scalar, ratio_field.dbar and laplace_scalar give the per-point
    code's bits, at standalone points and at the rows of a multi-row
    Block."""
    _, frame, n, _, _, _ = _setup(setup_n, rng)
    kappa = n + 2 if kappa == "n+2" else kappa
    for _ in range(3):
        fc = frame.frame_coords(sample_vector(frame, rng))
        field, reference = ratio_field(fc), _ratio_field_per_point(fc)
        points = [sample_point(frame, rng), *_sample_block(frame, rng, 4)]
        for p in points:
            assert (field.dbar(p).tobytes()
                    == reference.dbar(p).tobytes())
            assert (xi_scalar(field, kappa, p).tobytes()
                    == _xi_scalar_per_point(reference, kappa, p).tobytes())
            assert (np.complex128(laplace_scalar(field, kappa, p)).tobytes()
                    == np.complex128(_laplace_per_point(reference, kappa,
                                                        p)).tobytes())


def test_laplace_runs_one_dbar_and_one_star(setup_n, rng, monkeypatch):
    """One laplace_scalar call evaluates ratio_dbar and star01 once each,
    over its stencil block."""
    _, frame, n, p, _, fc = _setup(setup_n, rng)
    calls = {"ratio_dbar": 0, "star01": 0}
    for name in calls:
        def counted(*args, _inner=getattr(calculus, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(calculus, name, counted)
    laplace_scalar(ratio_field(fc), 1, p)
    assert calls == {"ratio_dbar": 1, "star01": 1}


def test_xi_scalar_fields_need_not_be_hashable(setup_n, rng):
    """A field is any object with value and dbar: an instance with a dbar
    method, or an unhashable SimpleNamespace."""
    _, frame, n, p, _, fc = _setup(setup_n, rng)
    holomorphic = _HolomorphicPair(fc)
    assert np.array_equal(xi_scalar(holomorphic, 3, p), np.zeros(n))
    assert abs(laplace_scalar(holomorphic, 3, p)) < 1e-8
    namespace = _ratio_field_per_point(fc)
    with pytest.raises(TypeError):
        hash(namespace)
    assert (xi_scalar(namespace, 1, p).tobytes()
            == _xi_scalar_per_point(namespace, 1, p).tobytes())
    ref = 0.5 * n * namespace.value(p)
    assert abs(laplace_scalar(namespace, 1, p) - ref) < 5e-6 * max(1.0,
                                                                   abs(ref))


def test_xi_scalar_failed_dbar_row_raises_alone(setup_n, rng):
    """A field whose dbar raises ArithmeticError at one row of a block makes
    xi_scalar raise at that row only, at every request."""
    _, frame, n, _, _, fc = _setup(setup_n, rng)
    block = _sample_block(frame, rng, 3)
    bad = block.z[1].tobytes()
    reference = _ratio_field_per_point(fc)

    def dbar(point):
        if point.z.tobytes() == bad:
            raise ZeroDivisionError("dbar undefined at this row")
        return reference.dbar(point)

    field = SimpleNamespace(value=reference.value, dbar=dbar)
    first, second, third = block
    for p in (first, third):
        assert (xi_scalar(field, 3, p).tobytes()
                == _xi_scalar_per_point(reference, 3, p).tobytes())
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="undefined at this row"):
            xi_scalar(field, 3, second)


def test_laplace_block_memos_die_with_their_stencils():
    """500 laplace_scalar calls at fresh standalone points keep nothing:
    each block memo goes with its stencil block."""
    lattice, frame_data, _ = lattice_from_config(standard_lattice(2))
    frame = WittFrame.build(lattice, frame_data["e"], frame_data["e_prime"])
    rng = np.random.default_rng(20240811)
    field = ratio_field(frame.frame_coords(sample_vector(frame, rng)))
    laplace_scalar(field, 1, sample_point(frame, rng))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(500):
            laplace_scalar(field, 1, sample_point(frame, rng))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


# ---------------------------------------------------------------------------
# row forms (domain.bind_rows) against the per-point path


def _kernel_sample(frame, rng):
    """A point and the frame coordinates of a vector whose p_tilde of
    weight n + 2 is regular on the point's Laplace stencil."""
    kappa = frame.n + 2
    while True:
        p = sample_point(frame, rng)
        fc = frame.frame_coords(sample_vector(frame, rng))
        if frame.q_lambda(fc) == 0:
            continue
        try:
            dbar_jacobian(kernels.bound_p_tilde(fc, kappa), p)
        except kernels.KernelSingularity:
            continue
        return p, fc


def test_dbar_jacobian_row_form_matches_per_point_bits(setup_n, rng):
    """dbar_jacobian of a function with a row form, run once over the
    stencil block, gives the bits of the same function called point by
    point: a bound p_tilde (vector), its scalar first component and
    ratio_field's dbar."""
    _, frame, n, _, _, _ = _setup(setup_n, rng)
    kappa = n + 2
    for _ in range(3):
        p, fc = _kernel_sample(frame, rng)
        bound = kernels.bound_p_tilde(fc, kappa)
        first = bind_rows(lambda block: (
            kernels.p_tilde_rows(block, fc, kappa)[0][:, 0], {}))
        dbar = ratio_field(fc).dbar
        for func in (bound, first, dbar):
            assert hasattr(func, "rows")
            row = dbar_jacobian(func, p)
            per_point = dbar_jacobian(lambda pt, func=func: func(pt), p)
            assert row.shape == per_point.shape
            assert row.tobytes() == per_point.tobytes()
        assert (dbar_jacobian(bound, p).tobytes() == dbar_jacobian(
            lambda pt: kernels.p_tilde_components(fc, kappa, pt),
            p).tobytes())


@pytest.mark.parametrize("kappa", [1, "n+2"])
def test_laplace_row_form_matches_per_point_bits(setup_n, rng, kappa):
    """laplace_scalar, which hands dbar_jacobian a row form, gives the bits
    of xi_top over xi_scalar called point by point, and of a field whose
    dbar has no row form."""
    _, frame, n, _, _, _ = _setup(setup_n, rng)
    kappa = n + 2 if kappa == "n+2" else kappa
    for _ in range(3):
        p = sample_point(frame, rng)
        field = ratio_field(frame.frame_coords(sample_vector(frame, rng)))
        plain = SimpleNamespace(value=field.value,
                                dbar=lambda pt, field=field: field.dbar(pt))
        value = np.complex128(laplace_scalar(field, kappa, p)).tobytes()
        assert value == np.complex128(xi_top(
            lambda pt: xi_scalar(field, kappa, pt), kappa, p)).tobytes()
        assert value == np.complex128(laplace_scalar(plain, kappa,
                                                     p)).tobytes()


def test_laplace_reads_no_per_point_dbar(setup_n, rng, monkeypatch):
    """One laplace_scalar call runs _ratio_dbar_rows once over its stencil
    block and reads no row memo: no per-point dbar or xi_scalar read."""
    _, frame, n, p, _, fc = _setup(setup_n, rng)
    calls = {"_ratio_dbar_rows": 0, "row_value": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, counted)

    counting(calculus, "_ratio_dbar_rows")
    for module in (calculus, domain):
        counting(module, "row_value")
    laplace_scalar(ratio_field(fc), 1, p)
    assert calls == {"_ratio_dbar_rows": 1, "row_value": 0}


def test_row_form_failures_raise_as_the_per_point_path(setup_n, rng):
    """dbar_jacobian raises the first failed stencil row of a row form, as
    the per-point path raises at the first failing point; an invalid kappa
    raises at once on both paths; and xi_scalar over a dbar row form fails
    only the failed rows."""
    _, frame, n, p, _, fc = _setup(setup_n, rng)
    marked = []

    def rows(block):
        values, _ = calculus._ratio_dbar_rows(block, fc)
        bad = [i for i in range(len(block.z)) if i % 3 == 2]
        marked.append(bad)
        return values, {i: (lambda i=i: ZeroDivisionError(f"row {i}"))
                        for i in bad}

    func = bind_rows(rows)
    with pytest.raises(ZeroDivisionError) as row_path:
        dbar_jacobian(func, p)
    with pytest.raises(ZeroDivisionError) as point_path:
        dbar_jacobian(lambda pt: func(pt), p)
    assert str(row_path.value) == str(point_path.value) == "row 2"

    field = SimpleNamespace(value=None, dbar=func)
    block = _sample_block(frame, rng, 4)
    points = list(block)
    for i, pt in enumerate(points):
        if i in marked[-1]:
            with pytest.raises(ZeroDivisionError, match=f"row {i}"):
                xi_scalar(field, 3, pt)
        else:
            ref = SimpleNamespace(dbar=lambda q: calculus.ratio_dbar(
                fc, q, q.pair_bar(fc)))
            assert (xi_scalar(field, 3, pt).tobytes()
                    == _xi_scalar_per_point(ref, 3, pt).tobytes())

    lam = frame.frame_coords(sample_vector(frame, rng))
    for path in (kernels.bound_p_tilde(lam, 0),
                 lambda pt: kernels.p_tilde_components(lam, 0, pt)):
        with pytest.raises(ValueError, match="need kappa > n/2"):
            xi_top(path, 0, p)
