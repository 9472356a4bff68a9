"""Truncated series: enumeration-driven sums, tails, and modularity defect.

Oracle strategy:

* plain-order python sums of the scalar kernel serve as the oracle for the
  compensated accumulator (few-term cases, agreement to machine precision);
* a frozen hand-counted enumeration fixture (rank-3 lattice at y1 = 1.3)
  pins down the class-scaling law value(2 lambda-class) = 2^-kappa value;
* self-consistency contracts (doubling defect vs tail estimate, defect of
  the slash action vs combined tails) follow the declared heuristics.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from orthoforms import series
from orthoforms.calculus import xi_top
from orthoforms.domain import DomainPoint, WittFrame, act
from orthoforms.kernels import (KernelSingularity, omega_kernel,
                               p_tilde_components)
from orthoforms.quadratic import Isometry, lattice_from_config
from orthoforms.series import (SeriesError, SeriesSpec, enumerate_class,
                               eval_Omega, eval_omega, modularity_defect,
                               sum_Omega, sum_omega)
from orthoforms.special import SpecialFunctionError


@pytest.fixture(scope="module")
def small_frames():
    """(lattice, frame, group) for n = 1 and n = 2."""
    out = {}
    for n in (1, 2):
        lattice, data, group = lattice_from_config({"standard": n})
        frame = WittFrame.build(lattice, data["e"], data["e_prime"])
        out[n] = (lattice, frame, group)
    return out


def _point(frame: WittFrame, z_entries) -> DomainPoint:
    return DomainPoint(frame, np.asarray(z_entries, dtype=complex))


def _generic_point(frame: WittFrame) -> DomainPoint:
    n = frame.n
    z = np.full(n, 0.17 + 0.29j, dtype=complex)
    z[0] = 0.31 + 1.27j
    return DomainPoint(frame, z)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_parameters(small_frames):
    lattice, frame, group = small_frames[1]
    zero = [0] * lattice.dim
    with pytest.raises(SeriesError):
        SeriesSpec.create(frame, zero, 0, 4, 10.0)
    with pytest.raises(SeriesError):
        SeriesSpec.create(frame, zero, 1, frame.n, 10.0)
    with pytest.raises(SeriesError):
        SeriesSpec.create(frame, zero, 1, 4, 0.0)
    for bound in (float("inf"), float("nan")):
        with pytest.raises(SeriesError) as info:
            SeriesSpec.create(frame, zero, 1, 4, bound)
        assert info.value.field == "bound"
    with pytest.raises(SeriesError):
        SeriesSpec.create(frame, [0, 0], 1, 4, 10.0)
    SeriesSpec.create(frame, zero, 1, 4, 10.0, group)


def test_empty_enumeration_gives_zero(small_frames):
    _, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], 1, 4, 1e-3)
    point = _point(frame, [1.3j])
    value, tail, count = eval_omega(spec, point)
    assert value == 0 and tail == 0.0 and count == 0
    form_value, form_tail, form_count = eval_Omega(spec, point)
    assert np.all(form_value == 0) and form_tail == 0.0 and form_count == 0


# ---------------------------------------------------------------------------
# frozen enumeration fixture: rank-3 lattice, Z = 1.3i on the model line.
# Hand majorant values (q(Y) = 1.69): class (m=1, B=2.05) contains exactly
# (0,0,+-1) (majorant 2.0; nearest competitors (1,1,0) at 2.28, (+-1,0,+-1)
# at 2.59); class (m=4, B=8.2) contains exactly (0,0,+-2) (majorant 8.0;
# competitors (1,0,+-2) at 8.6, (3,1,+-1) at 9.0, (2,2,0) at 9.1).


def test_frozen_class_and_scaling(small_frames):
    lattice, frame, _ = small_frames[1]
    point = _point(frame, [1.3j])
    spec1 = SeriesSpec.create(frame, [0, 0, 0], 1, 4, 2.05)
    spec2 = SeriesSpec.create(frame, [0, 0, 0], 4, 4, 8.2)
    set1 = enumerate_class(spec1, point)
    set2 = enumerate_class(spec2, point)
    assert set1 == [(0, 0, -1), (0, 0, 1)]
    assert set2 == [(0, 0, -2), (0, 0, 2)]

    v1 = eval_omega(spec1, point).value
    v2 = eval_omega(spec2, point).value
    # (lambda, psi(Z)) = +-2.6i for (0,0,+-1), so the kappa = 4 sum is
    # 2 / 2.6^4 and doubling the class scales it by 2^-4.  (The form-valued
    # series is singular on this vertical line, which is the n = 1 cycle of
    # these vectors; its scaling law is covered at the list level below.)
    assert abs(v1 - 2.0 / 2.6 ** 4) < 1e-12
    assert abs(v2 - v1 / 16.0) < 1e-14


def test_list_level_scaling_is_exact(small_frames):
    _, frame, _ = small_frames[2]
    point = _generic_point(frame)
    spec = SeriesSpec.create(frame, [0] * 4, 1, 4, 12.0)
    vecs = enumerate_class(spec, point)
    assert vecs
    doubled = [tuple(2 * a for a in v) for v in vecs]
    v = sum_omega(frame, vecs, 4, point)
    vd = sum_omega(frame, doubled, 4, point)
    assert abs(vd - v / 16.0) <= 1e-14 * max(1.0, abs(v))
    w = sum_Omega(frame, vecs, 4, point)
    wd = sum_Omega(frame, doubled, 4, point)
    assert np.max(np.abs(wd - w / 16.0)) <= 1e-12 * max(1.0, np.max(np.abs(w)))


# ---------------------------------------------------------------------------
# sum order and determinism


def test_plain_sum_oracle_small(small_frames):
    _, frame, _ = small_frames[1]
    point = _point(frame, [0.4 + 1.1j])
    spec = SeriesSpec.create(frame, [0, 0, 0], 1, 4, 6.0)
    vecs = enumerate_class(spec, point)
    assert 0 < len(vecs) <= 40
    oracle = sum(omega_kernel(frame.frame_coords(v), 4, point) for v in vecs)
    value = eval_omega(spec, point).value
    assert abs(value - oracle) < 1e-13 * max(1.0, abs(oracle))


def test_bitwise_determinism(small_frames):
    lattice, frame, _ = small_frames[2]
    point = _generic_point(frame)
    spec_a = SeriesSpec.create(frame, [0] * 4, 1, 4, 20.0)
    spec_b = SeriesSpec.create(frame, [0] * 4, Fraction(1), 4, 20.0)
    ra = eval_omega(spec_a, point)
    rb = eval_omega(spec_b, point)
    assert ra.value == rb.value and ra.tail == rb.tail and ra.count == rb.count
    fa = eval_Omega(spec_a, point)
    fb = eval_Omega(spec_b, point)
    assert np.all(fa.value == fb.value) and fa.tail == fb.tail


# ---------------------------------------------------------------------------
# convergence contracts


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_doubling_defect_within_tail(small_frames, n, m):
    _, frame, _ = small_frames[n]
    point = _generic_point(frame)
    for bound in (10.0, 20.0):
        spec = SeriesSpec.create(frame, [0] * frame.lattice.dim, m, 4, bound)
        base = eval_omega(spec, point)
        fine = eval_omega(spec.rescale(2 * bound), point)
        assert fine.count >= base.count
        assert abs(fine.value - base.value) <= 2.0 * base.tail + 1e-12


def test_omega_form_doubling(small_frames):
    _, frame, _ = small_frames[2]
    point = _point(frame, [0.3 + 2.0j, 0.1 + 0.0j])
    spec = SeriesSpec.create(frame, [0] * 4, 1, 4, 10.0)
    results = {}
    for bound in (10.0, 20.0, 40.0):
        results[bound] = eval_Omega(spec.rescale(bound), point)
    for bound in (10.0, 20.0):
        a, b = results[bound], results[2 * bound]
        assert np.max(np.abs(b.value - a.value)) <= 2.0 * a.tail + 1e-12


def test_cusp_decay_along_vertical_rays(small_frames):
    for n in (1, 2):
        _, frame, _ = small_frames[n]
        y = np.zeros(n)
        y[0] = 1.1
        if n > 1:
            y[1:] = 0.2
        spec = SeriesSpec.create(frame, [0] * frame.lattice.dim, 1, 4, 30.0)
        sizes = []
        for t in (1, 2, 4, 8):
            point = DomainPoint(frame, 1j * t * y)
            sizes.append(abs(eval_omega(spec, point).value))
        assert sizes[0] > 0
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a + 1e-15


# ---------------------------------------------------------------------------
# xi compatibility: the form series maps to the scalar series


@pytest.mark.parametrize("n", [1, 2])
def test_xi_of_form_series_matches_scalar(small_frames, n):
    _, frame, _ = small_frames[n]
    point = _generic_point(frame)
    kappa = 4
    spec = SeriesSpec.create(frame, [0] * frame.lattice.dim, 1, kappa, 10.0)
    vecs = enumerate_class(spec, point)
    assert vecs

    def form_field(pt: DomainPoint) -> np.ndarray:
        return sum_Omega(frame, vecs, kappa, pt)

    lhs = xi_top(form_field, kappa, point)
    rhs = sum_omega(frame, vecs, kappa, point)
    assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# modularity defect


def test_defect_identity_is_zero(small_frames):
    lattice, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], 1, 4, 8.0)
    point = _point(frame, [0.2 + 1.2j])
    assert modularity_defect(spec, point, Isometry.identity(lattice.dim)) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_defect_below_combined_tails(small_frames, n):
    lattice, frame, group = small_frames[n]
    gens = list(group)[:2]
    assert len(gens) == 2
    spec = SeriesSpec.create(frame, [0] * lattice.dim, 1, 4, 15.0, group)
    point = _generic_point(frame)
    for gamma in gens:
        base = eval_omega(spec, point)
        moved, _ = act(frame, gamma, point)
        far = eval_omega(spec, moved)
        defect = modularity_defect(spec, point, gamma)
        assert defect <= base.tail + far.tail + 1e-12


def test_defect_shrinks_with_bound(small_frames):
    lattice, frame, group = small_frames[1]
    gamma = list(group)[0]
    point = _point(frame, [0.15 + 1.05j])
    defects = []
    for bound in (8.0, 16.0, 32.0):
        spec = SeriesSpec.create(frame, [0] * lattice.dim, 1, 4, bound, group)
        defects.append(modularity_defect(spec, point, gamma))
    # within noise: allow a small additive cushion at the crossover
    assert defects[2] <= defects[0] + 1e-9


def test_defect_rejects_foreign_isometry(small_frames):
    lattice, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], 1, 4, 8.0)
    point = _point(frame, [1.2j])
    bad = Isometry.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(SeriesError):
        modularity_defect(spec, point, bad)


# ---------------------------------------------------------------------------
# meromorphic family


def test_mero_family_evaluates_off_poles(small_frames):
    _, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], -1, 4, 8.0)
    point = _point(frame, [1.3j])
    value, tail, count = eval_omega(spec, point)
    assert count > 0 and np.isfinite(tail)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_mero_pole_guard_trips_on_cycle(small_frames):
    _, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], -1, 4, 8.0)
    # (1,-1,0) has norm -1 and (lambda, psi(Z)) = 1 - y^2 = 0 at y = 1.
    on_cycle = _point(frame, [1.0j])
    for evaluate, reason in ((eval_omega, "scalar kernel pole"),
                             (eval_Omega, "negative-norm cycle")):
        with pytest.raises(KernelSingularity) as info:
            evaluate(spec, on_cycle)
        assert "lattice vector" in str(info.value)
        assert reason in str(info.value)


def test_failing_series_term_names_its_vector_in_plain_coordinates(
        small_frames):
    """The enumerated class's vectors are Fraction tuples; a failing term
    names its vector entry by entry, as sum_omega names a listed one."""
    _, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], -1, 4, 8.0)
    with pytest.raises(KernelSingularity) as info:
        eval_omega(spec, _point(frame, [1.0j]))
    assert "lattice vector (-1, 1, 0): scalar kernel pole" in str(info.value)


def test_overflowing_series_term_names_its_vector(small_frames):
    """At kappa = 30 the term of (0, 0, 1, -1), whose pairing 2e-11 passes
    the pole guard, overflows; the sum raises OverflowError naming it."""
    _, frame, _ = small_frames[2]
    point = _point(frame, [0.3 + 1.1j, 1e-11j])
    with pytest.raises(OverflowError) as info:
        sum_omega(frame, [(0, 0, 1, 1), (0, 0, 1, -1)], 30, point)
    assert "lattice vector (0, 0, 1, -1)" in str(info.value)


def test_form_sum_is_the_ordered_kahan_sum_of_single_kernels(small_frames):
    """sum_Omega evaluates all vectors in one row call; the total is the
    compensated sum, in list order, of each vector's standalone kernel."""
    _, frame, _ = small_frames[2]
    point = _generic_point(frame)
    vecs = enumerate_class(SeriesSpec.create(frame, [0] * 4, 1, 4, 20.0),
                           point)
    total = comp = np.zeros(2, dtype=complex)
    for v in vecs:
        y = p_tilde_components(frame.frame_coords(v), 4, point) - comp
        s = total + y
        comp = (s - total) - y
        total = s
    assert np.array_equal(sum_Omega(frame, vecs, 4, point), total)


def test_form_sum_names_the_first_singular_vector(small_frames):
    _, frame, _ = small_frames[1]
    on_cycle = _point(frame, [1.0j])
    # both vectors have norm -1 and vanishing (lambda, psi(Z)) at y = 1;
    # the scalar sum names its vector as the form sum does
    singular = [(1, -1, 0), (-1, 1, 0)]
    for total, reason in (
            (sum_Omega, "kernel singular on the negative-norm cycle"),
            (sum_omega, "scalar kernel pole")):
        for vecs in (singular, singular[::-1]):
            with pytest.raises(KernelSingularity) as info:
                total(frame, vecs, 4, on_cycle)
            assert f"lattice vector {vecs[0]}: {reason}" in str(info.value)


def test_failing_term_names_its_vector_and_keeps_its_type(small_frames):
    """A term that fails for any other reason than a singularity raises its
    own exception type, prefixed with its lattice vector."""
    _, frame, _ = small_frames[1]
    vecs = [(1, 1, 0), (2, 1, 0), (1, 2, 1)]

    def rows(block, lams, kappa):
        return np.zeros(len(lams), dtype=complex), {
            2: partial(SpecialFunctionError, "series did not converge"),
            1: partial(SpecialFunctionError, "argument above the branch")}

    with pytest.raises(SpecialFunctionError) as info:
        series._sum(rows, frame, vecs, 4, _generic_point(frame), 0j)
    assert str(info.value) == ("series term failed at lattice vector "
                               "(2, 1, 0): argument above the branch")


# n = 1, m = 2, kappa = 6, B = 160: the 11 of 400 seeded points (x uniform
# in [-0.5, 0.5], then y in [0.9, 3.0], numpy default_rng(2)) at which a
# plus-family series term once gave up (z from 0.99992 to 1 - 1.6e-8)
NEAR_CYCLE_POINTS = [
    -0.4448533726669318 + 1.313267638173603j,
    0.004014482401596631 + 0.9843290696490901j,
    0.11332767649039888 + 1.1019093464824632j,
    0.06302318325590783 + 1.058780797154568j,
    0.16869075855017335 + 1.135796991397068j,
    0.11769248048211911 + 1.401098786701613j,
    -0.3197526373912889 + 1.377066419658998j,
    -0.1511602435338355 + 1.408064457403353j,
    -0.2632730454316866 + 1.2073836155337379j,
    0.10395614961951816 + 1.0967785924145268j,
    -0.012926702231623066 + 1.4267226124356633j,
]


@pytest.mark.parametrize("z", NEAR_CYCLE_POINTS)
def test_form_series_evaluates_near_positive_cycles_n1(small_frames, z):
    _, frame, _ = small_frames[1]
    spec = SeriesSpec.create(frame, [0, 0, 0], 2, 6, 160.0)
    result = eval_Omega(spec, _point(frame, [z]))
    assert result.count > 0 and np.all(np.isfinite(result.value))


def test_half_integer_coset_class(small_frames):
    lattice, frame, _ = small_frames[1]
    coset = [0, 0, Fraction(1, 2)]
    # at y = 1.2 the class (m = 1/4, B = 1) holds exactly (0,0,+-1/2):
    # majorant 0.5, nearest competitors (+-1,0,+-1/2) at 1.19.
    spec = SeriesSpec.create(frame, coset, Fraction(1, 4), 4, 1.0)
    point = _point(frame, [1.2j])
    vecs = enumerate_class(spec, point)
    assert vecs == [(0, 0, Fraction(-1, 2)), (0, 0, Fraction(1, 2))]
    value, _, count = eval_omega(spec, point)
    assert count == 2
    # (lambda, psi(Z)) = +-1.2i, so the kappa = 4 sum is 2 / 1.2^4
    assert abs(value - 2.0 / 1.2 ** 4) < 1e-12


def _row_kahan(values: np.ndarray, zero):
    """The compensated sum as written before the column sums: numpy rows of
    a form-valued block, Python complex terms of a scalar one."""
    total = comp = zero
    for t in values.tolist() if values.ndim == 1 else values:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_column_kahan_sums_equal_the_row_sums(n):
    """The Kahan sum of a block, column by column in Python complex, is the
    row-wise numpy sum bit for bit (n = 0 is a scalar series' 1-D block),
    on seeded blocks of up to 600 terms across 16 decades, with empty
    blocks, rows that cancel earlier ones and zero rows."""
    rng = np.random.default_rng([n, 11])
    for size in [0, 1, 2, 17, 600] + rng.integers(3, 600, 6).tolist():
        shape = (size, n) if n else (size,)
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (size, 1) if n else size)
        values = (rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape)) * scale
        if size > 3:
            values[size // 2] = -values[size // 3]
            values[-1] = 0.0
        zero = np.zeros(n, dtype=complex) if n else 0j
        total, sizes = series._accumulate(values, zero)
        ref = _row_kahan(values, zero)
        if n:
            assert total.dtype == complex and total.shape == (n,)
            assert total.tobytes() == ref.tobytes()
            assert sizes.tobytes() == np.abs(values).max(
                axis=1, initial=0.0).tobytes()
        else:
            assert type(total) is complex and total == ref
            assert np.array([total]).tobytes() == np.array([ref]).tobytes()
            assert sizes.tobytes() == np.abs(values).tobytes()


def test_form_series_and_its_vectors_from_one_enumeration(small_frames,
                                                          monkeypatch):
    """eval_Omega_class gives eval_Omega's result and the enumeration it
    summed, whose vectors are enumerate_class's, from one enumeration."""
    _, frame, _ = small_frames[2]
    point = _generic_point(frame)
    spec = SeriesSpec.create(frame, [0] * 4, -1, 4, 20.0)
    ref, ref_vectors = eval_Omega(spec, point), enumerate_class(spec, point)
    calls = []
    majorant_points = series.majorant_points

    def counted(*args):
        calls.append(args)
        return majorant_points(*args)

    monkeypatch.setattr(series, "majorant_points", counted)
    result, found = series.eval_Omega_class(spec, point)
    assert len(calls) == 1
    vectors = found.vectors()
    assert vectors == ref_vectors and len(vectors) > 0
    assert result.value.tobytes() == ref.value.tobytes()
    assert (result.tail, result.count) == (ref.tail, ref.count)
