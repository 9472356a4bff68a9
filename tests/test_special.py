from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from orthoforms.special import (MINUS_SWITCH, PLUS_SWITCH,
                                SpecialFunctionError, _gl_rule,
                                gauss_legendre_grid, hyp2f1, hyp2f1_rows,
                                limit_constant, radial_integral, row_map,
                                sphere_area)


# z from below the closed forms' switch points to the n = 1 defect point
# z = 0.999996 near a positive-norm cycle
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kappa", [2, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("z", [-3.0, -0.9, -0.3, 0.0, 0.2, 0.5, 0.8, 0.95,
                               0.65, 0.9, 0.99, 0.9999, 0.999996])
def test_hyp2f1_kernel_parameters_vs_scipy(n, kappa, z):
    scipy_special = pytest.importorskip("scipy.special")
    if kappa <= n / 2:
        pytest.skip("outside the weight range")
    for a, b in [(1 - n / 2, kappa - n / 2), (1 - n / 2, 1.0)]:
        c = kappa - n / 2 + 1
        ours = hyp2f1(a, b, c, z)
        ref = float(scipy_special.hyp2f1(a, b, c, z))
        assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("family, switch", [("plus", PLUS_SWITCH),
                                            ("minus", MINUS_SWITCH)])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kappa", range(2, 10))
def test_hyp2f1_closed_forms_vs_mpmath(family, switch, n, kappa):
    """The kernels' non-terminating families at odd n, from each switch
    point to the n = 1 defect point z = 0.999996."""
    mpmath = pytest.importorskip("mpmath")
    half = kappa - n / 2.0
    a, b, c = 1.0 - n / 2.0, half if family == "plus" else 1.0, half + 1.0
    with mpmath.workdps(30):
        for z in np.linspace(switch, 0.9999, 9).tolist() + [0.999996]:
            ref = float(mpmath.hyp2f1(a, b, c, mpmath.mpf(z)))
            assert abs(hyp2f1(a, b, c, z) - ref) < 1e-13 * abs(ref), z


def test_hyp2f1_terminating_exact():
    # a = 0 -> constant 1;  a = -1 -> 1 - b z / c, both exact
    assert hyp2f1(0.0, 2.5, 3.5, 0.7) == 1.0
    b, c, z = 2.0, 3.0, 0.37
    assert abs(hyp2f1(-1.0, b, c, z) - (1.0 - b * z / c)) < 1e-15


def _scalar_hyp2f1(a, b, c, z):
    """The scalar evaluator below the closed forms' switch points written
    out once more in plain Python floats: the terminating sum, Pfaff below
    z = -1/2, the series and its stop rule."""
    def series(a, b, c, z):
        total = term = 1.0
        for k in range(200_000):
            term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
            total += term
            if abs(term) < 1e-15 * max(1.0, abs(total)) or term == 0.0:
                return total
        raise AssertionError("no convergence")

    for x, y in ((a, b), (b, a)):
        if x <= 0 and x == round(x):
            total = term = 1.0
            for k in range(int(round(-x))):
                term *= (x + k) * (y + k) / ((c + k) * (1.0 + k)) * z
                total += term
            return total
    if z <= -0.5:
        return (1.0 - z) ** (-a) * series(a, c - b, c, z / (z - 1.0))
    return series(a, b, c, z)


# where the non-terminating parameter sets below, and their Pfaff images
# (a, c - b, c), leave the series for a closed form: plus family at n = 3
# and 5, minus family at n = 3
_SWITCH = {(-0.5, 2.5, 3.5): PLUS_SWITCH, (-1.5, 3.5, 4.5): PLUS_SWITCH,
           (-0.5, 1.0, 2.5): MINUS_SWITCH, (-0.5, 1.5, 2.5): PLUS_SWITCH,
           (-0.5, 1.0, 3.5): MINUS_SWITCH}


@pytest.mark.parametrize("params", [
    (0.0, 2.5, 3.5), (-1.0, 2.5, 3.5), (2.5, -2.0, 4.5),   # terminating
    (-0.5, 2.5, 3.5), (-0.5, 1.0, 2.5), (-1.5, 3.5, 4.5)])
@pytest.mark.parametrize("size", [1, 3, 40])
def test_hyp2f1_array_matches_scalar_bit_for_bit(rng, params, size):
    """Each element of an array call equals the scalar evaluation at it,
    across the terminating case and the Pfaff (z <= -1/2), 0 <= z < 1/2
    and 1/2 <= z < 1 regimes, alone and mixed in one array.  Below the
    family's closed-form switch point that is the series bit for bit;
    above it, within the series' own truncation error of it; Pfaff
    arguments by the switch point of the transformed family."""
    a, b, c = params
    regimes = [rng.uniform(-4.0, -0.5, size), rng.uniform(-0.5, 0.0, size),
               rng.uniform(0.0, 0.5, size), rng.uniform(0.5, 0.999, size)]
    for z in regimes + [np.concatenate(regimes)]:
        values = hyp2f1(a, b, c, z)
        assert values.shape == z.shape
        for zi, value in zip(z.tolist(), values.tolist()):
            assert value == hyp2f1(a, b, c, zi)
            series = _scalar_hyp2f1(a, b, c, zi)
            family, x = ((params, zi) if zi > -0.5
                         else ((a, c - b, c), zi / (zi - 1.0)))
            if x < _SWITCH.get(family, 1.0):
                assert value == series
            else:
                assert abs(value - series) < 1e-11 * abs(series)


def test_hyp2f1_array_raises_the_first_failing_element():
    with pytest.raises(SpecialFunctionError, match="branch point"):
        hyp2f1(0.5, 0.5, 1.0, np.array([0.3, 1.5, 1.0]))
    values, failures = hyp2f1_rows(0.5, 1.0, 1.5, np.array([0.3, 1.0, 2.0]))
    assert sorted(failures) == [1, 2]
    assert values[0] == hyp2f1(0.5, 1.0, 1.5, 0.3)
    with pytest.raises(SpecialFunctionError, match="divergent"):
        raise failures[1]()


def test_hyp2f1_rows_overflowing_element_fails_alone():
    """Pfaff's (1 - z)^-a overflows at z = -1e300: that element fails with
    OverflowError, and the element beside it keeps its scalar value."""
    values, failures = hyp2f1_rows(-3.5, 1.0, 2.0, np.array([0.3, -1e300]))
    assert values[0] == hyp2f1(-3.5, 1.0, 2.0, 0.3)
    assert list(failures) == [1]
    with pytest.raises(OverflowError):
        raise failures[1]()


def test_row_map_evaluates_each_row_once():
    """Row 1 overflows and fails alone, and the formula runs once per row,
    the failing row included; a row failed beforehand keeps its failure."""
    calls = []

    def formula(x, k):
        calls.append(x)
        return x ** k

    columns = [np.array([2.0, 1e300, 3.0, 0.5]), np.array([2, 3, 2, -1])]
    values, failures = row_map(formula, columns)
    assert calls == [2.0, 1e300, 3.0, 0.5]
    assert values.tolist() == [4.0, 0.0, 9.0, 2.0]
    assert list(failures) == [1]
    with pytest.raises(OverflowError):
        raise failures[1]()
    values, failures = row_map(formula, columns, {1: SpecialFunctionError,
                                                  3: SpecialFunctionError})
    assert values.tolist() == [4.0, 0.0, 9.0, 0.0]
    assert failures == {1: SpecialFunctionError, 3: SpecialFunctionError}


def test_hyp2f1_series_gives_up():
    """F(1/2, 1/2; 1; z) has no closed form here and its series converges
    too slowly at z = 1 - 1e-12: it gives up after 200,000 terms."""
    with pytest.raises(SpecialFunctionError, match="did not converge"):
        hyp2f1(0.5, 0.5, 1.0, 1 - 1e-12)


def test_hyp2f1_at_one_gauss_value():
    a, b, c = -0.5, 1.0, 2.5
    ours = hyp2f1(a, b, c, 1.0)
    ref = math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))
    assert abs(ours - ref) < 1e-14
    scipy_special = pytest.importorskip("scipy.special")
    assert abs(ours - float(scipy_special.hyp2f1(a, b, c, 1.0))) < 1e-12


def test_hyp2f1_equal_upper_lower_is_binomial(rng):
    # F(a, b; b; z) = (1 - z)^-a
    for _ in range(20):
        a = rng.uniform(-2.0, 3.0)
        b = rng.uniform(0.3, 4.0)
        z = rng.uniform(0.0, 0.9)
        assert abs(hyp2f1(a, b, b, z) - (1.0 - z) ** (-a)) < 1e-12


def test_hyp2f1_derivative_contiguity(rng):
    # d/dz [z^b F(a, b; b+1; z)] = b z^(b-1) (1 - z)^-a, by central FD
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(0.5, 3.0)
        z = rng.uniform(0.1, 0.8)
        h = 1e-6

        def lhs(t):
            return t ** b * hyp2f1(a, b, b + 1.0, t)

        fd = (lhs(z + h) - lhs(z - h)) / (2.0 * h)
        ref = b * z ** (b - 1.0) * (1.0 - z) ** (-a)
        assert abs(fd - ref) < 1e-8 * max(1.0, abs(ref))


def test_gamma_recursion(rng):
    for _ in range(30):
        x = rng.uniform(0.5, 50.0)
        assert abs(math.gamma(x + 1.0) - x * math.gamma(x)) \
            < 1e-12 * math.gamma(x + 1.0)


def test_hyp2f1_rejects_bad_arguments():
    with pytest.raises(SpecialFunctionError):
        hyp2f1(0.5, 0.5, 1.0, 1.5)
    with pytest.raises(SpecialFunctionError):
        hyp2f1(0.5, 1.0, 1.5, 1.0)  # c - a - b = 0 diverges
    with pytest.raises(SpecialFunctionError):
        hyp2f1(0.5, 0.5, -1.0, 0.3)


def test_gauss_legendre_grid_repeats_the_nested_loop():
    """Rows come in itertools.product order and each weight is the product
    of the axis weights, left to right, bit for bit."""
    axes, counts = [(0.0, 1.0), (-2.0, 3.0), (0.5, 0.75)], [3, 2, 4]
    nodes, weights = gauss_legendre_grid(axes, counts)
    rules = []
    for (lo, hi), count in zip(axes, counts):
        t, w = np.polynomial.legendre.leggauss(count)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        rules.append((mid + half * t, half * w))
    combos = list(itertools.product(*[range(c) for c in counts]))
    assert nodes.shape == (len(combos), len(axes))
    assert weights.shape == (len(combos),)
    for row, weight, combo in zip(nodes, weights, combos):
        assert tuple(row) == tuple(rules[a][0][i] for a, i in enumerate(combo))
        expected = 1.0
        for a, i in enumerate(combo):
            expected *= rules[a][1][i]
        assert weight == expected


def test_gauss_legendre_rule_is_shared_read_only():
    """The [-1, 1] rule of a node count is computed once and shared by every
    interval, read-only, so no caller can move another's nodes."""
    _, first, _ = _gl_rule(0.0, 1.0, 7)
    _, again, _ = _gl_rule(-2.0, 3.0, 7)
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0


@pytest.mark.parametrize("counts", [(1, 3), (2, 5), (4, 2), (3, 3, 2)])
def test_gauss_legendre_grid_exact_for_separable_polynomials(counts):
    # k nodes per axis integrate x^(2k-1) + 1 exactly on that axis
    axes = [(-0.5, 1.5), (1.0, 2.0), (-1.0, 0.25)][:len(counts)]
    degrees = [2 * k - 1 for k in counts]
    nodes, weights = gauss_legendre_grid(axes, counts)
    values = np.prod([nodes[:, a] ** d + 1.0 for a, d in enumerate(degrees)],
                     axis=0)
    exact = math.prod((hi ** (d + 1) - lo ** (d + 1)) / (d + 1) + (hi - lo)
                      for d, (lo, hi) in zip(degrees, axes))
    assert abs(weights @ values - exact) < 1e-13 * abs(exact)


def test_sphere_area_small_dimensions():
    assert abs(sphere_area(0) - 2.0) < 1e-15
    assert abs(sphere_area(1) - 2.0 * math.pi) < 1e-14
    assert abs(sphere_area(2) - 4.0 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 2.0 * math.pi ** 2) < 1e-13


@pytest.mark.parametrize("n,closed", [
    (2, math.pi / 4.0),                 # arctan(1)
    (3, 1.0 - 1.0 / math.sqrt(2.0)),    # -(r^2+1)^(-1/2) from 0 to 1
    (4, math.pi / 8.0 - 0.25),          # arctan/2 - r/(2(r^2+1))
])
def test_radial_integral_closed_forms(n, closed):
    assert abs(radial_integral(n) - closed) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_integral_vs_quad_oracle(n):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    ref, err = scipy_integrate.quad(
        lambda r: r ** (n - 2) * (r * r + 1.0) ** (-n / 2.0), 0.0, 1.0)
    assert abs(radial_integral(n) - ref) < 1e-11 + 10 * err


@pytest.mark.parametrize("kappa", [3, 4, 5, 6])
def test_limit_constant_closed_form_n2(kappa):
    ref = -math.pi / (2.0 * 4.0 ** kappa * (kappa - 1.0))
    val = limit_constant(2, kappa)
    assert abs(val - ref) < 1e-14 * abs(ref)
    assert abs(val.imag) < 1e-15


@pytest.mark.parametrize("n,kappa", [(3, 4), (3, 5), (4, 5), (4, 6)])
def test_limit_constant_vs_assembled_oracle(n, kappa):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    radial, err = scipy_integrate.quad(
        lambda r: r ** (n - 2) * (r * r + 1.0) ** (-n / 2.0), 0.0, 1.0)
    pre = ((-1j) ** n * math.gamma(kappa - n / 2 + 1) * math.gamma(n / 2)
           / (4.0 ** kappa * (kappa - n / 2) * math.gamma(kappa)))
    ref = pre * (n - 1) * sphere_area(n - 2) * radial
    val = limit_constant(n, kappa)
    assert abs(val - ref) < 1e-12 * max(1e-8, abs(ref))
    # parity of the phase: real for even n, imaginary for odd n
    if n % 2 == 0:
        assert abs(val.imag) < 1e-15
    else:
        assert abs(val.real) < 1e-15


def test_limit_constant_rejects_out_of_range():
    with pytest.raises(ValueError):
        limit_constant(1, 3)
    with pytest.raises(ValueError):
        limit_constant(4, 4)  # weight must exceed n
