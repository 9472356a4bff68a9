from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from orthoforms import kernels
from orthoforms.calculus import (central_differences, dbar_jacobian, dbar_top,
                                 measure_factor, ratio_dbar, ratio_field,
                                 star01, xi_scalar, xi_top)
from orthoforms.cycles import transport_to
from orthoforms.domain import (Block, BoundaryError, ComponentError,
                               DomainPoint, act, q_plus_minus, sample_point)
from orthoforms.kernels import (KernelSingularity,
                                action_jacobian, dbar_image_reference,
                                form_slash, omega_kernel, p_components,
                                p_tilde_components,
                                xi_image_reference)
from orthoforms.quadratic import as_vec


def _vector_with_sign(frame, rng, sign, span=2):
    """A small integral vector whose norm has the requested sign."""
    lat = frame.lattice
    for _ in range(500):
        v = rng.integers(-span, span + 1, lat.dim)
        if not np.any(v):
            continue
        q = lat.q(as_vec([int(a) for a in v]))
        if (q > 0 and sign > 0) or (q < 0 and sign < 0):
            return as_vec([int(a) for a in v])
    raise AssertionError("no vector of requested norm sign found")


def _regular_point(frame, lam_fc, rng, kappa):
    """A sample point comfortably away from the kernel's singular loci."""
    for _ in range(200):
        p = sample_point(frame, rng)
        q_plus, q_minus = q_plus_minus(frame, lam_fc, p)
        pair_bar = abs(p.pair_bar(lam_fc))
        if abs(q_minus) > 0.05 and q_plus > 0.05 and pair_bar > 0.3:
            return p
    raise AssertionError("no regular sample point found")


def test_omega_trivial_vector(setup_n, rng):
    _, frame, _, n = setup_n
    p = sample_point(frame, rng)
    fc = frame.frame_coords(frame.e)
    # (e, psi(Z)) = 1, so the kernel is identically 1
    assert abs(omega_kernel(fc, n + 2, p) - 1.0) < 1e-12


def test_omega_on_imaginary_axis():
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import QuadraticLattice, standard_lattice
    cfg = standard_lattice(1)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    y = 1.3
    p = DomainPoint(frame, np.array([1j * y]))
    fc = frame.frame_coords((0, 0, 1))  # the positive basis vector
    kappa = 3
    # (b_1, psi(i y b_1)) = 2 i y
    assert abs(p.pair(fc) - 2j * y) < 1e-12
    assert abs(omega_kernel(fc, kappa, p) - (2j * y) ** (-kappa)) < 1e-12


def test_omega_homogeneity(setup_n, rng):
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    p = _regular_point(frame, fc, rng, n + 1)
    kappa = n + 1
    for r in (2.0, 0.5, 1.5):
        lhs = omega_kernel(r * fc, kappa, p)
        rhs = r ** (-kappa) * omega_kernel(fc, kappa, p)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_omega_pole_guard(setup_n, rng):
    _, frame, _, n = setup_n
    if n < 2:
        pytest.skip("needs a negative-norm direction with a zero locus")
    # lambda = b_n has (lambda, psi(Z)) = -2 z_n, vanishing where z_n = 0
    fc = np.zeros(n + 2)
    fc[-1] = 1.0
    z = np.zeros(n, dtype=complex)
    z[0] = 1.2j
    p = DomainPoint(frame, z)
    with pytest.raises(KernelSingularity):
        omega_kernel(fc, n + 1, p)


def test_p_form_dual_routes(setup_n, rng):
    """Closed-form p agrees with xi_1 evaluated through the catalog dbar and
    through the finite-difference dbar."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    p = _regular_point(frame, fc, rng, n + 1)
    closed = p_components(fc, p)
    catalog = xi_scalar(ratio_field(fc), 1, p)
    assert np.max(np.abs(closed - catalog)) < 1e-10 * max(1.0, np.max(np.abs(closed)))
    fd = p.q_y * star01(dbar_jacobian(ratio_field(fc).value, p),
                        frame.eps, p.y, p.q_y)
    assert np.max(np.abs(closed - fd)) < 1e-7 * max(1.0, np.max(np.abs(closed)))


def test_p_form_display_for_first_basis_vector(setup_n, rng):
    """For mu = b_1 the coefficients reduce to
    -2(-q(Y) + i zbar_1 y_1) / (4i q(Y))^n  and  -2 i zbar_1 y_j / (4i q(Y))^n."""
    _, frame, _, n = setup_n
    fc = np.zeros(n + 2)
    fc[2] = 1.0
    p = sample_point(frame, rng)
    qy = p.q_y
    fac = measure_factor(n, qy)
    z1b = np.conj(p.z[0])
    expected = np.empty(n, dtype=complex)
    expected[0] = -2.0 * (-qy + 1j * z1b * p.y[0]) / fac
    for j in range(1, n):
        expected[j] = -2.0 * 1j * z1b * p.y[j] / fac
    assert np.allclose(p_components(fc, p), expected, atol=1e-12 * max(1.0, 1.0 / qy ** n))


def test_p_form_vanishes_on_axis_n1():
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import QuadraticLattice, standard_lattice
    cfg = standard_lattice(1)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    p = DomainPoint(frame, np.array([1.0j]))
    fc = frame.frame_coords((0, 0, 1))
    assert np.max(np.abs(p_components(fc, p))) < 1e-14


def test_p_form_linear_in_lambda(setup_n, rng):
    _, frame, _, n = setup_n
    p = sample_point(frame, rng)
    a = rng.standard_normal(n + 2)
    b = rng.standard_normal(n + 2)
    lhs = p_components(a + b, p)
    rhs = p_components(a, p) + p_components(b, p)
    assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, np.max(np.abs(rhs))))


def test_xi_of_p_is_eigenvalue_times_ratio(setup_n, rng):
    """xi_{-1} p = (n/2) (lambda, psi(Zbar)) / q(Y)."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    p = _regular_point(frame, fc, rng, n + 1)
    val = xi_top(lambda pt: p_components(fc, pt), 1, p)
    ref = 0.5 * n * p.pair_bar(fc) / p.q_y
    assert abs(val - ref) < 5e-6 * max(1.0, abs(ref))


def test_xi_annihilates_normalized_p(setup_n, rng):
    """xi_{-1} [p / |q_minus|^{n/2}] = 0 (constant branch phases drop out)."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    p = _regular_point(frame, fc, rng, n + 1)

    def vec(pt):
        _, q_minus = q_plus_minus(frame, fc, pt)
        return p_components(fc, pt) / abs(q_minus) ** (n / 2.0)

    ref_scale = max(1.0, abs(p.pair_bar(fc) / p.q_y))
    assert abs(xi_top(vec, 1, p)) < 5e-6 * ref_scale


def test_gradient_wedge_p(setup_n, rng):
    """The weighted star of (dbar u) ^ p equals -4 q_minus / q(Y)."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    p = _regular_point(frame, fc, rng, n + 1)
    f = ratio_field(fc).dbar(p)
    g = p_components(fc, p)
    # f ^ (g in hat basis) = -(4i q(Y))^n sum f_j g_j  times dmu
    wedge = -measure_factor(n, p.q_y) * np.sum(f * g)
    val = np.conj(wedge) / p.q_y  # weighted star at weight -1
    _, q_minus = q_plus_minus(frame, fc, p)
    ref = -4.0 * q_minus / p.q_y
    assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("sign", [+1, -1], ids=["q>0", "q<0"])
def test_xi_identity_for_p_tilde(setup_n, rng, sign):
    """xi_{-kappa} ptilde = (lambda, psi(Z))^-kappa in both norm classes."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, sign)
    fc = frame.frame_coords(lam)
    kappa = n + 1
    p = _regular_point(frame, fc, rng, kappa)
    val = xi_top(lambda pt: p_tilde_components(fc, kappa, pt), kappa, p)
    ref = xi_image_reference(fc, kappa, p)
    assert abs(val - ref) < 5e-6 * max(1e-6, abs(ref))


@pytest.mark.parametrize("sign", [+1, -1], ids=["q>0", "q<0"])
def test_p_tilde_representations_agree(setup_n, rng, sign):
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, sign)
    fc = frame.frame_coords(lam)
    kappa = n + 1
    for _ in range(4):
        p = _regular_point(frame, fc, rng, kappa)
        a = p_tilde_components(fc, kappa, p, rep="plus")
        b = p_tilde_components(fc, kappa, p, rep="minus")
        scale = max(np.max(np.abs(a)), 1e-30)
        assert np.max(np.abs(a - b)) < 1e-9 * scale


def test_p_tilde_dbar_closed_form(setup_n, rng):
    """dbar ptilde = (lambda, psi(Zbar))^-kappa q(Y)^kappa dmu."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    kappa = n + 1
    p = _regular_point(frame, fc, rng, kappa)
    val = dbar_top(lambda pt: p_tilde_components(fc, kappa, pt), p)
    ref = dbar_image_reference(fc, kappa, p)
    assert abs(val - ref) < 5e-6 * max(1e-6, abs(ref))


@pytest.mark.parametrize("rep", ["plus", "minus"])
def test_p_tilde_evaluates_the_pairing_once(setup_n, rng, monkeypatch, rep):
    """One evaluation of (lambda, psi(Z)) or its conjugate per call, by the
    row implementation; the conjugate, q_plus / q_minus and the prefactor
    are derived from it."""
    _, frame, _, n = setup_n
    fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    kappa = n + 1
    p = _regular_point(frame, fc, rng, kappa)
    calls = []
    for name in ("pair", "pair_bar"):
        method = getattr(DomainPoint, name)
        monkeypatch.setattr(DomainPoint, name,
                            lambda self, lam, method=method:
                            calls.append(lam) or method(self, lam))
    rows = Block.pair
    monkeypatch.setattr(Block, "pair",
                        lambda block, lam: calls.append(lam)
                        or rows(block, lam))
    p_tilde_components(fc, kappa, p, rep=rep)
    assert len(calls) == 1


def test_p_tilde_homogeneity(setup_n, rng):
    """ptilde(r lambda) = r^-kappa ptilde(lambda) for r > 0."""
    _, frame, _, n = setup_n
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    kappa = n + 1
    p = _regular_point(frame, fc, rng, kappa)
    base = p_tilde_components(fc, kappa, p)
    for r in (2.0, 0.25):
        scaled = p_tilde_components(r * fc, kappa, p)
        assert np.allclose(scaled, r ** (-kappa) * base,
                           atol=1e-10 * max(1.0, np.max(np.abs(base))))


def test_form_slash_equivariance_p(setup_n, rng):
    """p(gamma^-1 lambda) = p(lambda)|_{-1} gamma for group generators."""
    _, frame, group, n = setup_n
    gens = list(group)
    lam = _vector_with_sign(frame, rng, +1)
    fc = frame.frame_coords(lam)
    p = _regular_point(frame, fc, rng, n + 1)
    for g in (gens[0], gens[-1]):
        pulled_fc = frame.frame_coords(g.inverse().apply(lam))
        lhs = p_components(pulled_fc, p)
        rhs = form_slash(g, lambda pt: p_components(fc, pt), -1, p)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-7 * scale


@pytest.mark.parametrize("sign", [+1, -1], ids=["q>0", "q<0"])
def test_form_slash_equivariance_p_tilde(setup_n, rng, sign):
    """ptilde(gamma^-1 lambda) = ptilde(lambda)|_{-kappa} gamma."""
    _, frame, group, n = setup_n
    gens = list(group)
    lam = _vector_with_sign(frame, rng, sign)
    fc = frame.frame_coords(lam)
    kappa = n + 1
    p = _regular_point(frame, fc, rng, kappa)
    g = gens[-1]
    pulled_fc = frame.frame_coords(g.inverse().apply(lam))
    lhs = p_tilde_components(pulled_fc, kappa, p)
    rhs = form_slash(g, lambda pt: p_tilde_components(fc, kappa, pt), -kappa, p)
    scale = max(np.max(np.abs(lhs)), 1e-30)
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * scale


def test_form_slash_acts_once(setup_n, rng, monkeypatch):
    """form_slash takes sigma Z and j(sigma, Z) from a single act, and
    builds psi(Z) once for it and the Jacobian."""
    from orthoforms import domain, kernels
    _, frame, group, n = setup_n
    fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    p = _regular_point(frame, fc, rng, n + 1)
    calls, builds = [], []
    psi_frame = domain.psi_frame

    def counted(*args):
        calls.append(args)
        return act(*args)

    def built(*args):
        builds.append(args)
        return psi_frame(*args)

    monkeypatch.setattr(kernels, "act", counted)
    for module in (domain, kernels):
        monkeypatch.setattr(module, "psi_frame", built)
    form_slash(group[-1], lambda pt: p_components(fc, pt), -1, p)
    assert len(calls) == 1 and len(builds) == 1


@pytest.mark.parametrize("kind", ["isometry", "matrix"])
def test_form_slash_equals_separate_action_calls(setup_n, rng, kind):
    """form_slash is, bit for bit, j^-w |det J|^2 conj(J)^-1 H(sigma Z)
    built from separate act and action_jacobian calls, for an Isometry
    and for a float matrix."""
    _, frame, group, n = setup_n
    fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    kappa = n + 1
    p = _regular_point(frame, fc, rng, kappa)
    sigma = group[0].compose(group[-1])
    if kind == "matrix":
        sigma = np.array(sigma.matrix, dtype=float)
    vec_func = lambda pt: p_components(fc, pt)
    moved, j = act(frame, sigma, p)
    jac = action_jacobian(sigma, p)
    pulled = np.linalg.solve(np.conj(jac), vec_func(moved))
    ref = j ** kappa * (abs(np.linalg.det(jac)) ** 2 * pulled)
    assert np.array_equal(form_slash(sigma, vec_func, -kappa, p), ref)


def test_action_jacobian_translation_is_identity(setup_n, rng):
    _, frame, group, n = setup_n
    p = sample_point(frame, rng)
    jac = action_jacobian(list(group)[0], p)  # translation along e
    assert np.allclose(jac, np.eye(n), atol=1e-9)


def test_action_jacobian_closed_form_matches_differences(setup_n, rng):
    """The closed-form Jacobian agrees with Richardson central differences
    of the action, for every group generator and a chart transport."""
    _, frame, group, n = setup_n
    sigmas = list(group) + [transport_to(frame, (1, 1) + (0,) * n)]
    checked = 0
    for sigma in sigmas:
        for _ in range(4):
            p = sample_point(frame, rng)
            try:
                act(frame, sigma, p)
            except (BoundaryError, ComponentError):
                continue
            ref = central_differences(
                lambda z: act(frame, sigma, DomainPoint(frame, z))[0].z, p.z,
                np.eye(n, dtype=complex), 1e-5)
            jac = action_jacobian(sigma, p)
            assert jac.shape == (n, n)
            assert np.max(np.abs(jac - ref)) <= 1e-8 * np.max(np.abs(ref))
            checked += 1
    assert checked >= 2 * len(sigmas)


def test_p_tilde_singularity_guards(setup_n):
    _, frame, _, n = setup_n
    kappa = n + 1
    # on the positive-norm cycle of b_1 (pure imaginary first coordinate)
    fc_plus = np.zeros(n + 2)
    fc_plus[2] = 1.0
    z = np.zeros(n, dtype=complex)
    z[0] = 1.1j
    p_on_cycle = DomainPoint(frame, z)
    with pytest.raises(KernelSingularity):
        p_tilde_components(fc_plus, kappa, p_on_cycle, rep="plus")
    if n >= 2:
        # on the vanishing locus of (b_n, psi(Zbar))
        fc_minus = np.zeros(n + 2)
        fc_minus[-1] = 1.0
        with pytest.raises(KernelSingularity):
            p_tilde_components(fc_minus, kappa, p_on_cycle, rep="minus")


def test_p_tilde_growth_near_positive_cycle():
    """|q_minus|^{n/2} ptilde stays bounded along a ray into the cycle; the
    sharp rate for the hat-basis coefficients is |q_minus|^{(1-n)/2} (the
    underlying form p vanishes linearly on the cycle, cancelling half a
    power), so that product is bounded on both sides."""
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import QuadraticLattice, standard_lattice
    cfg = standard_lattice(2)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    n, kappa = 2, 3
    fc = np.zeros(n + 2)
    fc[2] = 1.0
    coarse = []
    sharp = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        z = np.array([eps + 1.1j, 0.4 + 0.0j])
        p = DomainPoint(frame, z)
        _, q_minus = q_plus_minus(frame, fc, p)
        size = np.max(np.abs(p_tilde_components(fc, kappa, p)))
        coarse.append(abs(q_minus) ** (n / 2.0) * size)
        sharp.append(abs(q_minus) ** ((n - 1) / 2.0) * size)
    assert max(coarse) <= 10.0 * coarse[0]  # no blow-up of the coarse product
    assert max(sharp) < 10.0 * min(sharp)   # the sharp product is two-sided


def test_p_tilde_continuation_near_negative_cycle():
    """(lambda, psi(Zbar))^{kappa-1} ptilde stays bounded approaching the
    negative-norm cycle."""
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import QuadraticLattice, standard_lattice
    cfg = standard_lattice(2)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    n, kappa = 2, 3
    fc = np.zeros(n + 2)
    fc[-1] = 1.0  # q = -1
    norms = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        z = np.array([0.3 + 1.2j, eps + 0.0j])
        p = DomainPoint(frame, z)
        pair_bar = p.pair_bar(fc)
        norms.append(abs(pair_bar ** (kappa - 1))
                     * np.max(np.abs(p_tilde_components(fc, kappa, p))))
    assert max(norms) < 10.0 * min(norms)


def test_p_tilde_refuses_invalid_arguments(setup_n, rng):
    """p_tilde_components raises ValueError at once for kappa <= n/2, for
    q(lambda) = 0 under rep="auto" and for an unknown representation."""
    _, frame, _, n = setup_n
    fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    point = sample_point(frame, rng)
    isotropic = np.zeros(n + 2)
    isotropic[0] = 1.0      # e: q(e) = 0
    for args, message in (((fc, n // 2, point), "kappa > n/2"),
                          ((isotropic, n + 1, point), "out of scope"),
                          ((fc, n + 1, point, "plain"), "unknown")):
        with pytest.raises(ValueError, match=message):
            p_tilde_components(*args)


def _overflow_block():
    """At n = 2, lambda = (0, 0, 1, -1) in lattice coordinates (frame
    coordinates (0, 0, 0, 1)) and a block with rows z = (0.3 + 1.1i, 0.2)
    and (0.3 + 1.1i, 1e-11): the second row's pairing is 2e-11, above the
    kernels' 1e-12 guards, but its 30th power overflows."""
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import lattice_from_config
    lattice, data, _ = lattice_from_config({"standard": 2})
    frame = WittFrame.build(lattice, data["e"], data["e_prime"])
    z = np.array([[0.3 + 1.1j, 0.2], [0.3 + 1.1j, 1e-11]])
    return frame.frame_coords(as_vec([0, 0, 1, -1])), frame, z


@pytest.mark.parametrize("kernel", [omega_kernel, p_tilde_components,
                                    dbar_image_reference],
                         ids=["omega", "ptilde", "dbar"])
def test_overflowing_row_fails_alone(kernel):
    """A row whose Python power overflows fails alone: the regular row of
    its block keeps its standalone value bit for bit, and the overflowing
    row raises OverflowError only when it is requested."""
    fc, frame, z = _overflow_block()
    regular, overflowing = Block(frame, z)
    assert np.array_equal(kernel(fc, 30, regular),
                          kernel(fc, 30, DomainPoint(frame, z[0])))
    with pytest.raises(OverflowError):
        kernel(fc, 30, overflowing)


# lambda = (-1, -1, 1) at n = 1 and a point within about 1e-5 of its
# positive-norm cycle: the plus factor's argument is z = 0.999996, where its
# series gave up after 200,000 terms
NEAR_CYCLE = -0.13488983175517144 + 1.121540087097482j


def _near_cycle_n1():
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import lattice_from_config
    lattice, data, _ = lattice_from_config({"standard": 1})
    frame = WittFrame.build(lattice, data["e"], data["e_prime"])
    fc = frame.frame_coords(as_vec([-1, -1, 1]))
    return fc, DomainPoint(frame, np.array([NEAR_CYCLE]))


@pytest.mark.parametrize("kappa", [3, 4, 6, 9])
def test_p_tilde_evaluates_near_positive_cycle_n1(kappa):
    fc, point = _near_cycle_n1()
    _, q_minus = q_plus_minus(point.frame, fc, point)
    assert 0.0 < -q_minus < 1e-5   # far above the 1e-12 guard
    values = p_tilde_components(fc, kappa, point)
    assert np.all(np.isfinite(values)) and np.any(values != 0)


@pytest.mark.parametrize("kappa", [3, 4, 6, 9])
def test_p_tilde_forced_minus_near_positive_cycle_n1(kappa):
    """The "minus" representation there: Pfaff maps its factor's argument
    q/q_minus < -1/2 to q/q_plus = 0.999996, the plus family's closed
    form, and the kernel matches the "auto" ("plus") one."""
    fc, point = _near_cycle_n1()
    auto = p_tilde_components(fc, kappa, point)
    minus = p_tilde_components(fc, kappa, point, rep="minus")
    assert np.max(np.abs(minus - auto)) <= 1e-14 * np.max(np.abs(auto))


@pytest.mark.parametrize("kappa", [3, 4, 6, 9])
def test_p_tilde_factor_near_positive_cycle_n1_vs_mpmath(kappa):
    """The plus factor F(1/2, kappa - 1/2; kappa + 1/2; q/q_plus) that the
    kernel reads there, against mpmath at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    from orthoforms.special import hyp2f1
    fc, point = _near_cycle_n1()
    q_plus, _ = q_plus_minus(point.frame, fc, point)
    z = float(point.frame.q_lambda(fc)) / float(q_plus)
    assert 0.99999 < z < 1.0
    args = (0.5, kappa - 0.5, kappa + 0.5)
    with mpmath.workdps(30):
        ref = float(mpmath.hyp2f1(*args, mpmath.mpf(z)))
    assert abs(hyp2f1(*args, z) - ref) < 1e-13 * ref


# ---------------------------------------------------------------------------
# singular loci: every row kernel names a singular row by its first guard


def _guard_block():
    """n = 2, where e_1 (frame coordinates (0, 0, 1, 0)) has q = 1 and e_2
    has q = -1, and the rows: 0 regular; 1 on the positive-norm cycle of
    e_1 (Re z_1 = 0); 2 1e-80 from and 3 on the negative-norm cycle of e_2
    (z_2 = 0); 4 on both cycles and the scalar kernel's pole of (1, -1, 0,
    0), (lambda, psi(Z)) = 1 + q(Z)."""
    from orthoforms.domain import WittFrame
    from orthoforms.quadratic import lattice_from_config
    lattice, data, _ = lattice_from_config({"standard": 2})
    frame = WittFrame.build(lattice, data["e"], data["e_prime"])
    rows = np.array([[0.3 + 1.1j, 0.2], [1.1j, 0.2], [0.3 + 1.1j, 1e-80],
                     [0.3 + 1.1j, 0.0], [1.0j, 0.0]])
    return frame, Block(frame, rows)


def _quantity(name, fc, point):
    """A guard's quantity at a standalone point, computed directly."""
    q_plus, q_minus = q_plus_minus(point.frame, fc, point)
    return {"|q_minus|": abs(q_minus), "q_plus": q_plus,
            "|(lambda, psi(Zbar))|": abs(point.pair_bar(fc)),
            "|(lambda, psi(Z))|": abs(point.pair(fc))}[name]


E_1, E_2, POLE = (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0)
PAIR_BAR = "|(lambda, psi(Zbar))|"


@pytest.mark.parametrize("kernel, lam, singular", [
    (omega_kernel, POLE,
     {4: ("scalar kernel pole", "|(lambda, psi(Z))|")}),
    (partial(p_tilde_components, rep="plus"), E_1,
     dict.fromkeys((1, 4), (kernels.POSITIVE, "|q_minus|"))),
    (partial(p_tilde_components, rep="plus"), E_2,
     dict.fromkeys((2, 3, 4), (kernels.NEGATIVE, "q_plus"))),
    (partial(p_tilde_components, rep="minus"), E_2,
     dict.fromkeys((2, 3, 4), (kernels.NEGATIVE, PAIR_BAR))),
    (partial(p_tilde_components, rep="minus"), E_1,
     dict.fromkeys((1, 4), (kernels.POSITIVE, "|q_minus|"))),
    (dbar_image_reference, E_2,
     dict.fromkeys((2, 3, 4), (kernels.NEGATIVE, PAIR_BAR))),
], ids=["omega", "plus-q_minus", "plus-q_plus", "minus-pair", "minus-q_minus",
        "dbar-reference"])
def test_each_kernel_names_its_singular_rows(kernel, lam, singular):
    """Each singular row raises KernelSingularity with the reason, quantity
    and value of its first guard, the same in the block and standalone;
    each regular row evaluates, as it does standalone."""
    frame, block = _guard_block()
    fc = np.array(lam, dtype=float)
    kappa = 3
    for i, point in enumerate(block):
        single = DomainPoint(frame, point.z.copy())
        assert _outcome(lambda: kernel(fc, kappa, point)) == _outcome(
            lambda: kernel(fc, kappa, single))
        if i not in singular:
            assert np.all(np.isfinite(kernel(fc, kappa, point)))
            continue
        with pytest.raises(KernelSingularity) as info:
            kernel(fc, kappa, point)
        exc = info.value
        assert (exc.reason, exc.quantity) == singular[i]
        assert exc.value == _quantity(exc.quantity, fc, single)
        assert np.array_equal(exc.lam, fc)


def test_dbar_reference_row_off_the_cycle_keeps_its_value():
    """Off the negative-norm cycle the reference stays the power
    (lambda, psi(Zbar))^-kappa q(Y)^kappa of the point's own pairing."""
    _, block = _guard_block()
    fc = np.array(E_2, dtype=float)
    point = next(iter(block))
    assert dbar_image_reference(fc, 3, point) == (
        point.pair_bar(fc) ** -3 * point.q_y ** 3)


# ---------------------------------------------------------------------------
# row blocks: Block points evaluate the kernels once per block


def _outcome(func):
    """func() as ("value", bytes) or ("raise", type, message)."""
    try:
        value = np.asarray(func())
    except ArithmeticError as exc:
        return ("raise", type(exc), str(exc))
    return ("value", value.dtype, value.shape, value.tobytes())


@pytest.mark.parametrize("rep", ["plus", "minus"])
def test_rows_match_standalone_bit_for_bit(setup_n, rng, rep):
    """Every kernel row of a Block equals the kernel at a
    standalone point with the same Z, bit for bit, in both
    representations."""
    _, frame, _, n = setup_n
    sign = +1 if rep == "plus" else -1
    fc = frame.frame_coords(_vector_with_sign(frame, rng, sign))
    kappa = n + 1
    block = np.array([sample_point(frame, rng).z for _ in range(12)])
    for point in Block(frame, block):
        single = DomainPoint(frame, point.z.copy())
        for func in (
                lambda pt: p_tilde_components(fc, kappa, pt, rep=rep),
                lambda pt: p_components(fc, pt),
                lambda pt: dbar_image_reference(fc, kappa, pt)):
            assert _outcome(lambda: func(point)) == _outcome(
                lambda: func(single))


def test_p_rows_equal_the_calculus_closed_forms_bit_for_bit(setup_n, rng):
    """The row p-hat is q(Y) star01(ratio_dbar) of calculus, the pointwise
    closed forms, with the same rounding."""
    _, frame, _, n = setup_n
    block = np.array([sample_point(frame, rng).z for _ in range(6)])
    for point in Block(frame, block):
        fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
        f = ratio_dbar(fc, point, point.pair_bar(fc))
        ref = point.q_y * star01(f, frame.eps, point.y, point.q_y)
        assert p_components(fc, point).tobytes() == ref.tobytes()


def test_lambda_rows_match_standalone_bit_for_bit(setup_n, rng):
    """p_tilde_rows over lambda rows against one point (the series path)
    gives each lambda's standalone kernel, bit for bit."""
    _, frame, _, n = setup_n
    kappa = n + 2
    lams = [frame.frame_coords(_vector_with_sign(frame, rng, s))
            for s in (+1, -1, +1, +1, -1)]
    point = sample_point(frame, rng)
    values, failures = kernels.p_tilde_rows(Block(frame, point.z[None]),
                                            np.array(lams), kappa)
    for i, fc in enumerate(lams):
        single = _outcome(lambda: p_tilde_components(fc, kappa, point))
        if i in failures:
            exc = failures[i]()
            assert single == ("raise", type(exc), str(exc))
        else:
            assert single == _outcome(lambda: values[i])


def _omega_reference(lam_fc, kappa, point):
    """The per-point scalar kernel body: the pole guard and the power on
    the point's own pairing, the reference of omega_rows."""
    pair = point.pair(lam_fc)
    scale = max(1.0, float(np.sqrt(point.q_y)))
    if abs(pair) < kernels.GUARD * scale:
        raise KernelSingularity("scalar kernel pole", np.asarray(lam_fc),
                                "|(lambda, psi(Z))|", abs(pair))
    return pair ** (-kappa)


def _omega_pole(frame, n):
    """lambda = (1, -1, 0, ...) in frame coordinates and a block whose row
    2, Z = (i, 0, ...), has (lambda, psi(Z)) = 1 + q(Z) = 0."""
    fc = np.zeros(n + 2)
    fc[:2] = 1.0, -1.0
    rows = np.zeros((4, n), dtype=complex)
    rows[:, 0] = [0.2 + 1.1j, 0.3 + 1.3j, 1.0j, 0.4 + 0.9j]
    return fc, Block(frame, rows)


@pytest.mark.parametrize("sign", [+1, -1], ids=["q>0", "q<0"])
def test_omega_rows_match_the_per_point_kernel_bit_for_bit(setup_n, rng,
                                                           sign):
    """omega_kernel at Block and standalone points, and omega_rows over Z
    rows and over lambda rows, give the per-point kernel bit for bit,
    poles included."""
    _, frame, _, n = setup_n
    kappa = n + 1
    lams = [frame.frame_coords(_vector_with_sign(frame, rng, sign))
            for _ in range(5)]
    pole_fc, pole_block = _omega_pole(frame, n)
    blocks = [(fc, Block(frame, np.array(
        [sample_point(frame, rng).z for _ in range(8)]))) for fc in lams]
    for fc, block in blocks + [(pole_fc, pole_block)]:
        values, failures = kernels.omega_rows(block, fc, kappa)
        for i, point in enumerate(block):
            single = DomainPoint(frame, point.z.copy())
            reference = _outcome(lambda: _omega_reference(fc, kappa, single))
            exc = failures[i]() if i in failures else None
            row = (("raise", type(exc), str(exc)) if exc
                   else _outcome(lambda: values[i]))
            assert row == reference
            assert _outcome(lambda: omega_kernel(fc, kappa, point)) == (
                reference)
            assert _outcome(lambda: omega_kernel(fc, kappa, single)) == (
                reference)
    assert sorted(kernels.omega_rows(pole_block, pole_fc, kappa)[1]) == [2]
    lams.insert(3, pole_fc)
    for point in (sample_point(frame, rng), list(pole_block)[2]):
        values, failures = kernels.omega_rows(Block(frame, point.z[None]),
                                              np.array(lams), kappa)
        for i, fc in enumerate(lams):
            exc = failures[i]() if i in failures else None
            assert (("raise", type(exc), str(exc)) if exc
                    else _outcome(lambda: values[i])) == _outcome(
                lambda: _omega_reference(fc, kappa, point))
        assert (3 in failures) == (point.z[0] == 1j)


def test_omega_kernel_evaluates_once_per_block(setup_n, rng, monkeypatch):
    """omega_kernel runs omega_rows once per (lambda, kappa) on a block,
    and a singular row raises only when it is requested."""
    _, frame, _, n = setup_n
    runs = []
    rows = kernels.omega_rows

    def counted(block, *args):
        runs.append(len(block.z))
        return rows(block, *args)

    monkeypatch.setattr(kernels, "omega_rows", counted)
    fc, block = _omega_pole(frame, n)
    other = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    points = list(block)
    for lam, kappa in ((fc, n + 1), (fc, n + 2), (other, n + 1)):
        for i, point in enumerate(points):
            if lam is fc and i == 2:
                with pytest.raises(KernelSingularity, match="kernel pole"):
                    omega_kernel(lam, kappa, point)
            else:
                assert isinstance(omega_kernel(lam, kappa, point), complex)
    assert runs == [4, 4, 4]
    assert len(block.memo) == 3


def _block_with_singular_row(frame, n):
    """A block whose row 2 lies on the positive-norm cycle of b_1, where the
    "plus" kernel of b_1 is singular, and whose other rows do not."""
    rows = np.zeros((4, n), dtype=complex)
    rows[:, 0] = [0.2 + 1.1j, 0.3 + 1.3j, 1.1j, 0.4 + 0.9j]
    return list(Block(frame, rows))


def test_singular_row_raises_only_when_requested(setup_n):
    _, frame, _, n = setup_n
    kappa = n + 1
    fc = np.zeros(n + 2)
    fc[2] = 1.0
    points = _block_with_singular_row(frame, n)
    first = p_tilde_components(fc, kappa, points[0], rep="plus")
    with pytest.raises(KernelSingularity) as batch:
        p_tilde_components(fc, kappa, points[2], rep="plus")
    with pytest.raises(KernelSingularity) as single:
        p_tilde_components(fc, kappa, DomainPoint(frame, points[2].z.copy()),
                           rep="plus")
    assert str(batch.value) == str(single.value)
    assert (batch.value.quantity, batch.value.value) == (
        single.value.quantity, single.value.value)
    for point in points[1:2] + points[3:]:
        assert np.all(np.isfinite(
            p_tilde_components(fc, kappa, point, rep="plus")))
    assert np.array_equal(first,
                          p_tilde_components(fc, kappa, points[0], rep="plus"))


def test_row_values_are_fresh_copies(setup_n, rng):
    _, frame, _, n = setup_n
    fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    block = np.array([sample_point(frame, rng).z for _ in range(3)])
    point = list(Block(frame, block))[1]
    for func in (lambda: p_tilde_components(fc, n + 1, point),
                 lambda: p_components(fc, point)):
        first = func()
        kept = first.copy()
        first[:] = 0.0
        assert np.array_equal(func(), kept)



def test_standalone_point_memoizes_its_row(setup_n, rng, monkeypatch):
    """A standalone point is its own one-row block: two calls there run
    p_tilde_rows once and return equal fresh copies."""
    _, frame, _, n = setup_n
    fc = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    point = sample_point(frame, rng)
    runs = []
    rows = kernels.p_tilde_rows

    def counted(block, *args):
        runs.append(len(block.z))
        return rows(block, *args)

    monkeypatch.setattr(kernels, "p_tilde_rows", counted)
    first = p_tilde_components(fc, n + 1, point)
    second = p_tilde_components(fc, n + 1, point)
    assert runs == [1]
    assert np.array_equal(first, second)
    first[:] = 0.0
    assert np.array_equal(p_tilde_components(fc, n + 1, point), second)


def test_memo_keeps_one_entry_per_argument(setup_n, rng):
    """Two lambdas, two weights and two representations on one block each
    get their own memo entry, and each entry gives that argument's
    kernel."""
    _, frame, _, n = setup_n
    fcs = [frame.frame_coords(_vector_with_sign(frame, rng, +1))
           for _ in range(2)]
    while np.array_equal(fcs[0], fcs[1]):
        fcs[1] = frame.frame_coords(_vector_with_sign(frame, rng, +1))
    block = np.array([sample_point(frame, rng).z for _ in range(5)])
    points = list(Block(frame, block))
    memo = points[0]._row[0].memo
    calls = [(fc, kappa, rep) for fc in fcs for kappa in (n + 1, n + 2)
             for rep in ("plus", "minus")]
    for fc, kappa, rep in calls:
        for point in points:
            single = DomainPoint(frame, point.z.copy())
            assert _outcome(lambda: p_tilde_components(fc, kappa, point,
                                                       rep=rep)) == _outcome(
                lambda: p_tilde_components(fc, kappa, single, rep=rep))
    assert len(memo) == len(calls)
