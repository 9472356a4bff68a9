"""The kept vectors' array pass against the per-vector code it replaced.

The reference here is the per-vector tail of the majorant enumeration and
of the series evaluator as they were written before the array pass: the
kept integer rows sorted as Python lists, each vector's majorant value
``float(x @ m_gram @ x)`` and frame coordinates ``to_frame @ x`` taken one
vector at a time, and the shell tail counted in a loop.  The array pass
must reproduce it bit for bit, so every comparison is ``==`` or
``tobytes``, never a tolerance.  The reference runs on the class's vectors
of majorant value up to twice the bound, in shuffled order, so the bound
filter sees vectors on both sides of it (the box-oracle tests of
``test_quadratic`` check that the search finds every vector of a class).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from orthoforms import series
from orthoforms.domain import Block, WittFrame, majorant_at, sample_point
from orthoforms.kernels import omega_rows, p_tilde_rows
from orthoforms.quadratic import (as_vec, lattice_from_config,
                                  majorant_points, standard_lattice,
                                  vec_float)
from orthoforms.series import SeriesSpec, eval_Omega, eval_omega

KAPPA = 7  # exceeds every n here


def search_roots(lattice, m_gram, m, coset, bound, seed: int) -> tuple:
    """(w, den): the integer rows w = den v of the class's vectors of
    majorant value at most twice the bound, shuffled: the vectors the bound
    keeps and some that it drops."""
    found = majorant_points(lattice, m_gram, m, coset, 2 * bound)
    return np.random.default_rng(seed).permutation(found.w), found.den


def per_vector_points(w, den, m_gram, bound) -> list:
    """The per-vector tail of majorant_points: (w row, coords, value) of
    each kept vector, in order."""
    kept = sorted(zip(w.tolist(), w / den), key=lambda item: item[0])
    points = ((tuple(wi), x, float(x @ m_gram @ x)) for wi, x in kept)
    return [p for p in points if p[2] <= bound]


def per_vector_shell_tail(bound, values, sizes) -> float:
    """The shell tail as a loop over the terms."""
    half = bound / 2.0
    best = 0.0
    count = 0
    for value, s in zip(values, sizes):
        if value >= half:
            count += 1
            if s > best:
                best = s
    return count * best


def assert_same_points(got, ref, d: int) -> None:
    assert got.w.dtype == np.int64 and got.w.shape == (len(ref), d)
    assert [tuple(row) for row in got.w.tolist()] == [p[0] for p in ref]
    assert got.coords.tobytes() == np.array(
        [p[1] for p in ref]).reshape(-1, d).tobytes()
    assert got.values.dtype == np.float64
    assert got.values.tobytes() == np.array([p[2] for p in ref]).tobytes()


# the standard lattices of every rank and a rank-3 lattice whose frame
# coordinates are not dyadic, so that the order of the frame product's
# terms shows in its bits
LATTICES = {
    "n1": standard_lattice(1), "n2": standard_lattice(2),
    "n3": standard_lattice(3), "n4": standard_lattice(4),
    "skew3": {"gram": [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 2, 1, 0],
                       [0, 0, 1, -2, 1], [0, 0, 0, 1, -4]],
              "e": [1, 0, 0, 0, 0], "e_prime": [0, 1, 0, 0, 0]}}
BOUNDS = {"n1": 14.0, "n2": 9.0, "n3": 5.0, "n4": 6.0, "skew3": 5.0}
# the integral coset and two fractional ones, of denominators 2 and 3
COSETS = {
    "0": lambda d: [0] * d,
    "1/2": lambda d: [Fraction(1, 2)] + [0] * (d - 1),
    "1/3": lambda d: [Fraction(1, 3), 0, Fraction(1, 3)] + [0] * (d - 3)}


def _cases():
    """(id, lattice, coset, k, seed) with m = q(coset) + k."""
    seed = 0
    for lattice in LATTICES:
        for label in COSETS:
            for k in (-1, 1):
                seed += 1
                yield (f"{lattice}-coset{label}-m{k:+d}", lattice, label, k,
                       seed)


def _class(lattice: str, label: str, k: int, seed: int):
    """(frame, point, m_gram, coset, m) of a seeded case."""
    rng = np.random.default_rng(seed)
    lat, data, _ = lattice_from_config(LATTICES[lattice])
    frame = WittFrame.build(lat, data["e"], data["e_prime"])
    point = sample_point(frame, rng)
    coset = COSETS[label](lat.dim)
    m = lat.q(coset) + k
    return frame, point, majorant_at(frame, point), coset, m


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: case[0])
def test_majorant_points_equal_the_per_vector_tail(case):
    """Order, coordinates and majorant values of every kept vector are the
    per-vector code's, bit for bit, at a bound, at a bound equal to a kept
    vector's value and at a bound too small for any vector."""
    _, lattice, label, k, seed = case
    frame, _, m_gram, coset, m = _class(lattice, label, k, seed)
    d = frame.lattice.dim
    bound = BOUNDS[lattice]
    w, den = search_roots(frame.lattice, m_gram, m, coset, bound, d)
    ref = per_vector_points(w, den, m_gram, bound)
    assert ref, "every case keeps some vector"
    got = majorant_points(frame.lattice, m_gram, m, coset, bound)
    assert_same_points(got, ref, d)
    # a bound equal to a kept value keeps that vector
    middle, _, edge = ref[len(ref) // 2]
    ref_edge = per_vector_points(w, den, m_gram, edge)
    assert (middle, edge) in [(p[0], p[2]) for p in ref_edge]
    assert_same_points(majorant_points(frame.lattice, m_gram, m, coset, edge),
                       ref_edge, d)
    tiny = min(p[2] for p in ref) / 2
    empty = majorant_points(frame.lattice, m_gram, m, coset, tiny)
    assert_same_points(empty, [], d)


def test_majorant_points_empty_class_is_empty_arrays():
    """A class with no vector at all (2 m den^2 not an integer) gives the
    empty arrays of the right shapes."""
    frame, _, m_gram, coset, _ = _class("n2", "1/3", 1, 5)
    got = majorant_points(frame.lattice, m_gram, Fraction(1, 7), coset, 9.0)
    assert_same_points(got, [], frame.lattice.dim)
    assert got.vectors() == []


@pytest.mark.parametrize("family", ["omega", "Omega"])
@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: case[0])
def test_series_frame_coordinates_and_tail_equal_the_per_vector_code(
        case, family, monkeypatch):
    """The series evaluator hands its kernel rows the per-vector frame
    coordinates to_frame @ x, bit for bit, and its shell tail is the
    loop's, with the bound chosen so that one kept vector lies exactly at
    B/2."""
    _, lattice, label, k, seed = case
    frame, point, m_gram, coset, m = _class(lattice, label, k, seed)
    rows = omega_rows if family == "omega" else p_tilde_rows
    w, den = search_roots(frame.lattice, m_gram, m, coset, BOUNDS[lattice],
                          frame.lattice.dim)
    ref = per_vector_points(w, den, m_gram, BOUNDS[lattice])
    bound = 2 * ref[len(ref) // 2][2]  # that vector's value is B/2 exactly
    ref = per_vector_points(w, den, m_gram, bound)
    lams = np.array([frame.to_frame @ x for _, x, _ in ref])
    terms, failures = rows(Block(frame, point.z[None]), lams, KAPPA)
    assert not failures
    sizes = np.abs(terms)
    sizes = (sizes.max(axis=1) if sizes.ndim > 1 else sizes).tolist()
    ref_tail = per_vector_shell_tail(bound, [p[2] for p in ref], sizes)
    assert any(p[2] == bound / 2 for p in ref) and ref_tail > 0

    seen = []

    def recorded(block, lams, kappa):
        seen.append(lams)
        return rows(block, lams, kappa)

    monkeypatch.setattr(series, f"{rows.__name__}", recorded)
    spec = SeriesSpec.create(frame, coset, m, KAPPA, bound)
    result = (eval_omega if family == "omega" else eval_Omega)(spec, point)
    got, = seen
    assert got.tobytes() == lams.tobytes()
    assert result.tail == ref_tail and result.count == len(ref)
    # the per-vector frame coordinates are frame_coords of each vector
    for (wi, _, _), lam in zip(ref, lams):
        vec = [Fraction(wj, den) for wj in wi]
        assert lam.tobytes() == frame.frame_coords(vec).tobytes()
        assert vec_float(as_vec(vec)).tobytes() == (
            np.array(wi) / den).tobytes()
