from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoforms.quadratic import (Isometry, LatticeError, QuadraticLattice,
                                  Vec, as_vec, eichler_isometry,
                                  enumerate_majorant, lattice_from_config,
                                  majorant_points, majorant_value,
                                  standard_group,
                                  standard_lattice, vec_float)


def enumerate_box_oracle(lattice: QuadraticLattice, m_gram: np.ndarray,
                         m, coset, bound: float) -> list[Vec]:
    """Brute-force reference for :func:`enumerate_majorant`: scan the full
    coordinate box |x_i| <= sqrt(bound * (M^-1)_ii)."""
    d = lattice.dim
    inv = np.linalg.inv(m_gram)
    c = vec_float(as_vec(coset))
    coset_v = as_vec(coset)
    m = Fraction(m)
    limits = []
    for i in range(d):
        half = math.sqrt(max(bound * inv[i, i], 0.0))
        limits.append((math.ceil(-half - c[i] - 1e-9),
                       math.floor(half - c[i] + 1e-9)))
    out: list[Vec] = []

    def rec(i: int, acc: list[int]):
        if i == d:
            v = tuple(coset_v[j] + acc[j] for j in range(d))
            if lattice.q(v) == m and majorant_value(m_gram, v) <= bound:
                out.append(v)
            return
        for x in range(limits[i][0], limits[i][1] + 1):
            rec(i + 1, acc + [x])

    rec(0, [])
    out.sort()
    return out


def test_gram_validation():
    with pytest.raises(LatticeError):
        QuadraticLattice(((1,),))  # odd diagonal
    with pytest.raises(LatticeError):
        QuadraticLattice(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(LatticeError):
        QuadraticLattice(((0, 1),))  # not square


def test_hyperbolic_plane_norms():
    u = QuadraticLattice(((0, 1), (1, 0)))
    # q((a, b)) = a b on the hyperbolic plane
    assert u.q((3, 5)) == 15
    assert u.q((1, 0)) == 0
    assert u.bilinear((1, 0), (0, 1)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_lattice_signature(n):
    cfg = standard_lattice(n)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    assert lat.signature() == (2, n)
    e, ep = as_vec(cfg["e"]), as_vec(cfg["e_prime"])
    assert lat.q(e) == 0 and lat.q(ep) == 0
    assert lat.bilinear(e, ep) == 1
    for k in cfg["k_basis"]:
        assert lat.bilinear(e, k) == 0
        assert lat.bilinear(ep, k) == 0


@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_even_lattice_integral_norms(entries):
    cfg = standard_lattice(2)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    q = lat.q(entries)
    assert q.denominator == 1  # q is integer-valued on an even lattice


def test_float_matrix_is_converted_once_and_read_only():
    cfg = standard_lattice(3)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    g = standard_group(lat, cfg)[-1]
    first = g.float_matrix
    assert g.float_matrix is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    assert [[Fraction(x) for x in row] for row in first.tolist()] == \
        [list(row) for row in g.matrix]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eichler_generators_are_isometries(n):
    cfg = standard_lattice(n)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    group = standard_group(lat, cfg)
    assert len(group) == 2 * n
    for g in group:
        assert g.preserves(lat)
        assert round(np.linalg.det(g.float_matrix)) == 1
        inv = g.inverse()
        assert inv.compose(g).matrix == Isometry.identity(lat.dim).matrix
    # transvections along e fix e
    e = as_vec(cfg["e"])
    for k in cfg["k_basis"]:
        assert eichler_isometry(lat, cfg["e"], k).apply(e) == e


# The Fraction bodies of apply, compose, preserves and eichler_isometry as
# they were before the integer view: the reference for the exact operations.


def _ref_apply(g: Isometry, v) -> Vec:
    return tuple(sum(row[j] * Fraction(v[j]) for j in range(len(v)))
                 for row in g.matrix)


def _ref_compose(g: Isometry, other: Isometry) -> Isometry:
    a, b = g.matrix, other.matrix
    d = len(a)
    return Isometry(tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)))


def _ref_preserves(g: Isometry, lattice: QuadraticLattice) -> bool:
    gram = lattice.gram
    d = g.dim
    m = g.matrix
    for i in range(d):
        for j in range(i, d):
            val = sum(m[a][i] * Fraction(gram[a][b]) * m[b][j]
                      for a in range(d) for b in range(d))
            if val != gram[i][j]:
                return False
    return True


def _ref_eichler(lattice: QuadraticLattice, iso_vec, k) -> Isometry:
    u = as_vec(iso_vec)
    kv = as_vec(k)
    d = lattice.dim
    qk = lattice.q(kv)
    cols = []
    for i in range(d):
        basis = [Fraction(0)] * d
        basis[i] = Fraction(1)
        vu = lattice.bilinear(basis, u)
        vk = lattice.bilinear(basis, kv)
        img = [basis[j] + vu * kv[j] - vk * u[j] - qk * vu * u[j]
               for j in range(d)]
        cols.append(img)
    return Isometry.from_rows([[cols[j][i] for j in range(d)]
                               for i in range(d)])


def _reflection(lattice: QuadraticLattice, v) -> Isometry:
    """x -> x - ((x, v)/q(v)) v, in Fractions (entries with denominators)."""
    v = as_vec(v)
    qv = lattice.q(v)
    d = lattice.dim
    gv = [lattice.bilinear(v, [int(i == j) for j in range(d)])
          for i in range(d)]
    return Isometry.from_rows([[int(i == j) - v[i] * gv[j] / qv
                                for j in range(d)] for i in range(d)])


_STANDARD = {n: lattice_from_config({"standard": n}) for n in (1, 2, 3, 4)}
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_operations_equal_the_fraction_reference(n, data):
    """apply, compose and preserves equal the Fraction reference on words in
    the standard generators and on rational reflections, result for result;
    each inverse is computed once, and twice an isometry preserves nothing."""
    lat, _, group = _STANDARD[n]
    d = lat.dim
    word = data.draw(st.lists(st.integers(0, len(group) - 1), max_size=5))
    vec = data.draw(st.lists(_fractions, min_size=d, max_size=d))
    mirror = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                       .filter(lambda v: lat.q(v) != 0))
    g = ref = Isometry.identity(d)
    for i in word:
        g, ref = g.compose(group[i]), _ref_compose(ref, group[i])
        assert g.matrix == ref.matrix
    r = _reflection(lat, mirror)
    for m in (g, r, g.compose(r), r.compose(g)):
        assert m.preserves(lat) and _ref_preserves(m, lat)
        assert m.apply(vec) == _ref_apply(m, vec)
        assert all(type(x) is Fraction for x in m.apply(vec))
    assert g.compose(r).matrix == _ref_compose(g, r).matrix
    assert r.compose(g).matrix == _ref_compose(r, g).matrix
    assert r.inverse().matrix == r.matrix
    assert g.inverse() is g.inverse()
    assert g.inverse().compose(g).matrix == Isometry.identity(d).matrix
    for m in (Isometry.identity(d), g):
        twice = Isometry.from_rows([[2 * x for x in row] for row in m.matrix])
        assert not twice.preserves(lat) and not _ref_preserves(twice, lat)


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_eichler_isometry_equals_the_fraction_reference(n, data):
    """The integer outer-product transvection equals the per-entry Fraction
    one, for rational multiples of e or e' and rational directions."""
    lat, cfg, _ = _STANDARD[n]
    u = as_vec(cfg[data.draw(st.sampled_from(["e", "e_prime"]))])
    u = tuple(data.draw(_fractions.filter(bool)) * a for a in u)
    k = [data.draw(_fractions) * a for a in u]
    for basis in cfg["k_basis"]:
        c = data.draw(_fractions)
        k = [a + c * b for a, b in zip(k, basis)]
    g = eichler_isometry(lat, u, k)
    assert g.matrix == _ref_eichler(lat, u, k).matrix
    assert g.preserves(lat)


def test_rational_reflection_is_exact_and_its_own_inverse():
    """The reflection in (1, 2, 0, 0) on U + U has entries in (1/2)Z; every
    exact operation keeps them."""
    lat, _, _ = _STANDARD[2]
    r = _reflection(lat, (1, 2, 0, 0))
    assert r.matrix[0][0] == Fraction(0) and r.matrix[0][1] == Fraction(-1, 2)
    assert r.preserves(lat)
    assert r.inverse().matrix == r.matrix
    assert r.apply((1, 0, 0, 0)) == _ref_apply(r, (1, 0, 0, 0)) == \
        as_vec((0, -2, 0, 0))
    assert r.compose(r).matrix == Isometry.identity(4).matrix


@pytest.mark.parametrize("rows", [[[1, 0], [0]], [[1, 0, 0], [0, 1, 0]],
                                  [[1, 0]]], ids=["ragged", "2x3", "1x2"])
def test_isometry_rejects_non_square_matrix(rows):
    with pytest.raises(LatticeError, match="square"):
        Isometry.from_rows(rows)


@pytest.mark.parametrize("v", [(1, 2), (1, 2, 3, 4)], ids=["short", "long"])
def test_apply_rejects_vector_of_wrong_length(v):
    with pytest.raises(LatticeError, match=f"length {len(v)}"):
        Isometry.identity(3).apply(v)


def test_compose_rejects_isometry_of_other_size():
    with pytest.raises(LatticeError):
        Isometry.identity(3).compose(Isometry.identity(4))
    with pytest.raises(LatticeError):
        Isometry.identity(4).compose(Isometry.identity(3))


def test_config_rejects_generator_of_wrong_size():
    """A 3x3 identity on the rank-4 lattice U + U is refused, not checked
    on its leading block."""
    cfg = {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
           "e": [1, 0, 0, 0], "e_prime": [0, 1, 0, 0],
           "group_generators": [np.eye(3, dtype=int).tolist()]}
    with pytest.raises(LatticeError, match="size 3 on rank 4"):
        lattice_from_config(cfg)
    cfg["group_generators"] = [np.eye(4, dtype=int).tolist()]
    assert lattice_from_config(cfg)[2] == (Isometry.identity(4),)


def test_singular_matrix_inverse_raises_lattice_error():
    with pytest.raises(LatticeError, match="invert"):
        Isometry.from_rows([[1, 0], [0, 0]]).inverse()


def test_eichler_rejects_bad_input():
    cfg = standard_lattice(2)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    with pytest.raises(LatticeError):
        eichler_isometry(lat, (1, 1, 0, 0), (0, 0, 1, 0))  # q(u) = 1 != 0
    with pytest.raises(LatticeError):
        eichler_isometry(lat, (1, 0, 0, 0), (0, 1, 0, 0))  # (u, k) = 1 != 0


def test_frozen_enumeration_diag():
    # U + <2> with the diagonal majorant diag(1, 1, 2): q(v) = ab + c^2,
    # m(v) = a^2 + b^2 + 2 c^2.  Hand count for q = 1, m <= 4:
    #   (+-1, +-1, 0) same-sign pair -> 2;  (0, 0, +-1) -> 2;
    #   (a, 0, +-1) / (0, b, +-1), a, b in {+-1} -> 8.   Total 12.
    cfg = standard_lattice(1)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    m_gram = np.diag([1.0, 1.0, 2.0])
    found = enumerate_majorant(lat, m_gram, 1, (0, 0, 0), 4.0)
    assert len(found) == 12
    assert as_vec((1, 1, 0)) in found
    assert as_vec((0, 0, 1)) in found
    assert all(lat.q(v) == 1 for v in found)
    assert found == sorted(found)


def _point_majorant(n, rng):
    from orthoforms.domain import WittFrame, majorant_at, sample_point
    cfg = standard_lattice(n)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    point = sample_point(frame, rng)
    return lat, majorant_at(frame, point)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m,bound", [(0, 6.0), (1, 8.0), (-1, 8.0), (2, 10.0)])
def test_enumeration_matches_box_oracle(n, m, bound, rng):
    lat, m_gram = _point_majorant(n, rng)
    fast = enumerate_majorant(lat, m_gram, m, [0] * lat.dim, bound)
    slow = enumerate_box_oracle(lat, m_gram, m, [0] * lat.dim, bound)
    assert fast == slow


def test_enumeration_with_coset(rng):
    lat, m_gram = _point_majorant(2, rng)
    coset = [Fraction(1, 2), 0, 0, 0]
    fast = enumerate_majorant(lat, m_gram, Fraction(1, 4), coset, 9.0)
    slow = enumerate_box_oracle(lat, m_gram, Fraction(1, 4), coset, 9.0)
    assert fast == slow
    for v in fast:
        assert v[0] - Fraction(1, 2) == int(v[0] - Fraction(1, 2))


def _anisotropic_majorant(rng):
    # U + <2> with the anisotropic vector first: G00 = 2, so the innermost
    # coordinate solves a genuine quadratic
    lat, cfg, _ = lattice_from_config({
        "gram": [[2, 0, 0], [0, 0, 1], [0, 1, 0]],
        "e": [0, 1, 0], "e_prime": [0, 0, 1], "k_basis": [[1, 0, 0]]})
    from orthoforms.domain import WittFrame, majorant_at, sample_point
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    return lat, majorant_at(frame, sample_point(frame, rng))


@pytest.mark.parametrize("m", [0, 1, 2, -1])
def test_enumeration_quadratic_innermost_matches_box_oracle(m, rng):
    lat, m_gram = _anisotropic_majorant(rng)
    assert lat.signature() == (2, 1)
    fast = enumerate_majorant(lat, m_gram, m, [0, 0, 0], 12.0)
    assert fast
    assert fast == enumerate_box_oracle(lat, m_gram, m, [0, 0, 0], 12.0)


def test_enumeration_quadratic_innermost_half_integral_coset(rng):
    lat, m_gram = _anisotropic_majorant(rng)
    coset = [Fraction(1, 2), 0, 0]
    fast = enumerate_majorant(lat, m_gram, Fraction(1, 4), coset, 12.0)
    assert fast
    assert fast == enumerate_box_oracle(lat, m_gram, Fraction(1, 4), coset,
                                        12.0)


def test_enumeration_zero_linear_coefficient_scans(rng):
    # m = 0 on a hyperbolic plane: with every outer coordinate 0 the
    # innermost equation is 0 = 0, so the whole window is kept
    lat, m_gram = _point_majorant(2, rng)
    e = as_vec((1, 0, 0, 0))
    bound = 2.0 * majorant_value(m_gram, e) + 1.0
    fast = enumerate_majorant(lat, m_gram, 0, [0] * 4, bound)
    assert e in fast and as_vec((2, 0, 0, 0)) in fast
    assert fast == enumerate_box_oracle(lat, m_gram, 0, [0] * 4, bound)


@pytest.mark.parametrize("m,coset", [
    (Fraction(1, 2), [0, 0, 0, 0]),
    (Fraction(1, 3), [Fraction(1, 2), 0, 0, 0]),
], ids=["integral-coset", "half-integral-coset"])
def test_enumeration_unreachable_norm_is_empty(m, coset, rng):
    # 2 m den^2 is not an integer, so no vector of the coset has norm m
    lat, m_gram = _point_majorant(2, rng)
    assert enumerate_majorant(lat, m_gram, m, coset, 9.0) == []
    assert enumerate_box_oracle(lat, m_gram, m, coset, 9.0) == []


def test_enumeration_norm_check_only_on_solutions(monkeypatch):
    """At the series suite's point (n = 2, B = 80) the exact integer norm
    identity runs on every solved innermost coordinate, and only there, not
    on every ellipsoid point."""
    from orthoforms import quadratic
    from orthoforms.domain import DomainPoint, WittFrame, majorant_at
    cfg = standard_lattice(2)
    lat = QuadraticLattice(tuple(tuple(r) for r in cfg["gram"]))
    frame = WittFrame.build(lat, cfg["e"], cfg["e_prime"])
    m_gram = majorant_at(frame, DomainPoint(
        frame, np.array([0.31 + 1.27j, 0.17 + 0.29j])))
    checked = []
    row_norms = quadratic._row_norms
    monkeypatch.setattr(quadratic, "_row_norms",
                        lambda g, w: checked.extend(w.tolist())
                        or row_norms(g, w))
    found = enumerate_majorant(lat, m_gram, 1, [0] * 4, 80.0)
    assert len(found) == 488
    assert 488 <= len(checked) <= 2 * 488
    assert len(set(map(tuple, checked))) == len(checked)


def _third_coset_cases():
    """(lattice, m_gram, m, coset) for a coset of denominator 3 and a
    non-integral norm, once on U + U (G00 = 0: the innermost coordinate
    solves a linear equation) and once on <2> + U (a quadratic one)."""
    rng = np.random.default_rng(3)
    lat, m_gram = _point_majorant(2, rng)
    yield "linear", lat, m_gram, Fraction(1, 3), [Fraction(1, 3), 0,
                                                  Fraction(1, 3), 0]
    lat, m_gram = _anisotropic_majorant(rng)
    yield "quadratic", lat, m_gram, Fraction(4, 9), [Fraction(1, 3),
                                                     Fraction(1, 3), 0]


@pytest.mark.parametrize("case", list(_third_coset_cases()),
                         ids=lambda case: case[0])
def test_majorant_points_third_coset_match_box_oracle_exactly(case):
    """The enumeration equals the box oracle, and each kept vector has norm
    exactly m, float coordinates bit-equal to vec_float and the majorant
    value of majorant_value."""
    path, lat, m_gram, m, coset = case
    assert (lat.gram[0][0] == 0) == (path == "linear")
    points = majorant_points(lat, m_gram, m, coset, 12.0)
    vectors = points.vectors()
    assert vectors
    assert vectors == enumerate_majorant(lat, m_gram, m, coset, 12.0)
    assert vectors == enumerate_box_oracle(lat, m_gram, m, coset, 12.0)
    for v, coords, value in zip(vectors, points.coords, points.values,
                                strict=True):
        assert lat.q(v) == m
        assert coords.tobytes() == vec_float(v).tobytes()
        assert value == majorant_value(m_gram, v) <= 12.0


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_enumeration_rejects_non_finite_bound(bound, rng):
    lat, m_gram = _point_majorant(2, rng)
    with pytest.raises(LatticeError, match="finite"):
        enumerate_majorant(lat, m_gram, 1, [0] * 4, bound)


def test_enumeration_monotone_in_bound(rng):
    lat, m_gram = _point_majorant(2, rng)
    small = enumerate_majorant(lat, m_gram, 1, [0] * 4, 5.0)
    large = enumerate_majorant(lat, m_gram, 1, [0] * 4, 10.0)
    assert set(small) <= set(large)
    for v in large:
        assert majorant_value(m_gram, v) <= 10.0 + 1e-9


def test_majorant_positive_definite(rng):
    for n in (1, 2, 3):
        _, m_gram = _point_majorant(n, rng)
        eig = np.linalg.eigvalsh(m_gram)
        assert np.all(eig > 0)


def test_config_rejects_wrong_signature():
    with pytest.raises(LatticeError):
        lattice_from_config({"gram": [[2]]})
    with pytest.raises(LatticeError):
        lattice_from_config({"gram": [[0, 1], [1, 0]]})  # signature (1,1)


def test_config_standard_roundtrip():
    lat, data, gens = lattice_from_config({"standard": 2})
    assert lat.signature() == (2, 2)
    assert len(gens) == 4


def _property_cases():
    """Seeded (id, lattice, m_gram, m, coset, bound) cases: n = 1 ... 3 on
    the standard lattices and the G00 = 2 lattice <2> + U, cosets of
    denominator 1, 2 and 3, and m = q(coset) + k for k in {-2, ..., 2}
    (m = 0 on U + U takes the b = c = 0 scan).  Rank 3 keeps a smaller
    bound and fewer norms: the box oracle scans a 5-dimensional box."""
    rng = np.random.default_rng(17)
    every = (-2, -1, 0, 1, 2)
    for name, (lat, m_gram) in (("n1", _point_majorant(1, rng)),
                                ("n2", _point_majorant(2, rng)),
                                ("n3", _point_majorant(3, rng)),
                                ("G00=2", _anisotropic_majorant(rng))):
        d = lat.dim
        cosets = {"0": [0] * d,
                  "1/2": [Fraction(1, 2)] + [0] * (d - 1),
                  "1/3": [Fraction(1, 3), Fraction(1, 3)] + [0] * (d - 2)}
        for label, coset in cosets.items():
            small = name == "n3"
            for k in ((-1, 0, 1) if small and label == "0" else
                      (-1,) if small else every):
                yield (f"{name}-coset{label}-m{k:+d}", lat, m_gram,
                       lat.q(coset) + k, coset, 3.0 if small else 10.0)


@pytest.mark.parametrize("case", list(_property_cases()),
                         ids=lambda case: case[0])
def test_majorant_points_match_box_oracle_property(case):
    """Every seeded case equals the box oracle, and every kept vector has
    the float coordinates of vec_float and the value of majorant_value,
    bit for bit."""
    _, lat, m_gram, m, coset, bound = case
    points = majorant_points(lat, m_gram, m, coset, bound)
    vectors = points.vectors()
    assert vectors == enumerate_box_oracle(lat, m_gram, m, coset, bound)
    for v, coords, value in zip(vectors, points.coords, points.values,
                                strict=True):
        assert coords.tobytes() == vec_float(v).tobytes()
        assert value == majorant_value(m_gram, v)


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_frontier_slices_give_the_same_points(rows, monkeypatch):
    """Any frontier slice size gives the default's vectors, coordinates and
    values, bit for bit, and a slice smaller than a level's children makes
    the search expand that level in several slices."""
    from orthoforms import quadratic
    rng = np.random.default_rng(29)
    cases = [(*_point_majorant(2, rng), 1, [0] * 4, 24.0),
             (*_point_majorant(3, rng), -1, [Fraction(1, 2)] + [0] * 4, 8.0),
             (*_anisotropic_majorant(rng), 2, [0] * 3, 30.0)]
    expands = []
    expand = quadratic._expand

    def counted(lo, hi):
        expands.append(len(lo))
        return expand(lo, hi)

    monkeypatch.setattr(quadratic, "_expand", counted)
    default = [majorant_points(*case) for case in cases]
    single = len(expands)
    monkeypatch.setattr(quadratic, "_FRONTIER_ROWS", rows)
    for case, ref in zip(cases, default, strict=True):
        got = majorant_points(*case)
        assert got.den == ref.den and len(ref.values) > 0
        for name in ("w", "coords", "values"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert len(expands) - single > single


@pytest.mark.parametrize("bound", [1e13, 1e30, 1e300])
def test_enumeration_range_guard_names_the_bound(bound, rng):
    """A bound whose windows or discriminants leave the exact int64/float
    range raises instead of wrapping."""
    lat, m_gram = _point_majorant(2, rng)
    with pytest.raises(LatticeError, match=re.escape(f"bound {bound} ")):
        majorant_points(lat, m_gram, 1, [0] * 4, bound)
