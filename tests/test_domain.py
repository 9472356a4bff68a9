from __future__ import annotations

import numpy as np
import pytest

from orthoforms.domain import (Block, BoundaryError, ComponentError,
                               DomainPoint, act, at_rows, bind_rows,
                               majorant_at, metric_det,
                               metric_lower, metric_upper, project,
                               q_plus_minus, row_value, sample_point,
                               sample_vector)
from orthoforms.quadratic import as_vec, majorant_value, vec_float

TOL = 1e-10


def blf(lattice, u, v):
    return u @ lattice.gram_float() @ v


def test_frame_invariants(setup_n):
    lattice, frame, _, n = setup_n
    assert lattice.q(frame.e) == 0
    assert lattice.bilinear(frame.e, frame.e_tilde) == 1
    assert lattice.q(frame.e_tilde) == 0
    gram_w = frame.basis.T @ frame.gram_float @ frame.basis
    assert np.allclose(gram_w, 2.0 * np.diag(frame.eps), atol=1e-9)
    # basis orthogonal to the isotropic pair
    for b in frame.basis.T:
        assert abs(blf(lattice, vec_float(frame.e), b)) < 1e-9
        assert abs(blf(lattice, vec_float(frame.e_tilde), b)) < 1e-9
    assert np.allclose(frame.from_frame @ frame.to_frame, np.eye(lattice.dim),
                       atol=1e-9)


def test_point_geometry(setup_n, rng):
    lattice, frame, _, n = setup_n
    for _ in range(8):
        p = sample_point(frame, rng)
        psi = p.psi
        assert abs(blf(lattice, psi, psi)) < TOL          # q(psi(Z)) = 0
        assert abs(blf(lattice, vec_float(frame.e).astype(complex), psi) - 1) < TOL
        # real and imaginary parts span an orthogonal pair of equal norm
        assert abs(blf(lattice, p.psi_x, p.psi_x) / 2 - p.q_y) < TOL
        assert abs(blf(lattice, p.psi_y, p.psi_y) / 2 - p.q_y) < TOL
        assert abs(blf(lattice, p.psi_x, p.psi_y)) < TOL


def test_pair_formula_dual_route(setup_n, rng):
    lattice, frame, _, n = setup_n
    for _ in range(10):
        p = sample_point(frame, rng)
        lam = sample_vector(frame, rng)
        direct = blf(lattice, vec_float(lam).astype(complex), p.psi)
        fc = frame.frame_coords(lam)
        assert abs(p.pair(fc) - direct) < 1e-9 * max(1.0, abs(direct))
        # for real lambda the conjugate pairing is the complex conjugate
        assert abs(p.pair_bar(fc) - np.conj(direct)) < 1e-9 * max(1.0, abs(direct))


def _pair_psi(frame, lam, z):
    """(lambda, psi(Z)) written out for any Z in W(C): the formula the
    pairing and its conjugate were once evaluated by separately."""
    return lam[0] - lam[1] * frame.q_w(z) + 2.0 * (frame.eps * lam[2:] * z).sum()


def test_pair_bar_is_conjugate_bit_for_bit(setup_n, rng):
    """For real lambda, conjugating (lambda, psi(Z)) gives exactly the
    pairing evaluated at conj(Z)."""
    lattice, frame, _, n = setup_n
    for _ in range(200):
        p = sample_point(frame, rng)
        fc = frame.frame_coords(sample_vector(frame, rng))
        assert p.pair(fc) == complex(_pair_psi(frame, fc, p.z))
        assert p.pair_bar(fc) == p.pair(fc).conjugate()
        assert p.pair_bar(fc) == complex(_pair_psi(frame, fc, np.conj(p.z)))


def test_q_lambda_matches_exact(setup_n, rng):
    lattice, frame, _, n = setup_n
    for _ in range(10):
        lam = sample_vector(frame, rng)
        fc = frame.frame_coords(lam)
        assert abs(frame.q_lambda(fc) - float(lattice.q(lam))) < 1e-8


def test_component_validation(setup_n):
    _, frame, _, n = setup_n
    z = np.zeros(frame.n, dtype=complex)
    z[0] = 1j
    DomainPoint(frame, z)  # fine
    with pytest.raises(ComponentError):
        DomainPoint(frame, -z)  # y_1 < 0
    if n > 1:
        bad = np.zeros(frame.n, dtype=complex)
        bad[0] = 0.1j
        bad[1] = 1.0j
        with pytest.raises(ComponentError):
            DomainPoint(frame, bad)  # q(Y) < 0


def _seeded_rows(frame, rng, count):
    return np.array([sample_point(frame, rng).z for _ in range(count)])


def test_rows_match_single_constructor(setup_n, rng):
    """Row-built points carry the same z and the same cached q(Y), bit for
    bit, as points built one at a time."""
    _, frame, _, n = setup_n
    block = _seeded_rows(frame, rng, 64)
    points = list(Block(frame, block))
    assert len(points) == len(block)
    for point, z in zip(points, block):
        single = DomainPoint(frame, z)
        assert np.array_equal(point.z, single.z)
        assert point.q_y == single.q_y
        assert type(point.q_y) is float
        assert point.pair(np.arange(n + 2.0)) == single.pair(np.arange(n + 2.0))


def _bad_rows(n):
    """One row failing each component check of the single constructor."""
    wrong_half = np.zeros(n, dtype=complex)
    wrong_half[0] = -1j                      # q(Y) = 1 > 0 but y_1 < 0
    null = np.zeros(n, dtype=complex)        # q(Y) = 0
    if n > 1:
        null[0], null[1] = 0.1j, 1.0j        # q(Y) < 0
    nan = np.full(n, 0.1 + 0.2j)
    nan[0] = 0.3 + 1.2j
    nan[-1] += complex(0.0, np.nan)          # q(Y) = nan
    inf = nan.copy()
    inf[-1] = 0.1 + 0.2j
    inf[0] = complex(0.3, np.inf)            # q(Y) = inf
    return {"y1": wrong_half, "q_y": null, "nan": nan, "inf": inf}


@pytest.mark.parametrize("kind", ["q_y", "y1", "nan", "inf"])
def test_rows_reject_a_bad_row_like_the_single_constructor(setup_n, rng,
                                                           kind):
    _, frame, _, n = setup_n
    bad = _bad_rows(n)[kind]
    with pytest.raises(ComponentError) as single:
        DomainPoint(frame, bad)
    block = _seeded_rows(frame, rng, 9)
    block[4] = bad
    with pytest.raises(ComponentError) as batch:
        Block(frame, block)
    assert str(batch.value) == str(single.value)
    expected = {"q_y": "q(Y)", "y1": "y_1", "nan": f"z_{n} = ",
                "inf": "z_1 = "}[kind]
    assert expected in str(batch.value)
    if kind in ("nan", "inf"):
        assert "is not finite" in str(batch.value)


def _check_cases(n, rng):
    """(bad row, ComponentError message) for each component check: an
    infinite real part with finite q(Y), a NaN in Y, q(Y) <= 0, and
    y_1 <= 0 with q(Y) > 0."""
    inf = np.full(n, 0.1 + 0.2j)
    inf[0] = 0.3 + 1.2j
    inf[-1] = complex(np.inf, inf[-1].imag)
    nan = np.full(n, 0.1 + 0.2j)
    nan[0] = 0.3 + 1.2j
    nan[-1] = complex(nan[-1].real, np.nan)
    null = np.zeros(n, dtype=complex)
    if n > 1:
        null[0], null[1] = 0.1j, 1.0j
    wrong_half = np.zeros(n, dtype=complex)
    wrong_half[0] = rng.uniform(-2.0, 2.0) - 1j
    return {"inf": (inf, f"z_{n} = {inf[-1]} is not finite"),
            "nan": (nan, f"z_{n} = {nan[-1]} is not finite"),
            "q_y": (null, "q(Y) must be positive"),
            "y1": (wrong_half,
                   "point lies in the wrong component (y_1 <= 0)")}


@pytest.mark.parametrize("size", [1, 512])
@pytest.mark.parametrize("kind", ["inf", "nan", "q_y", "y1"])
def test_block_check_raises_the_bad_row_wherever_it_lies(setup_n, rng,
                                                         kind, size):
    """One bad row first, in the middle or last of 1 or 512 rows raises
    ComponentError with its check's message, as DomainPoint does at that
    row alone."""
    _, frame, _, n = setup_n
    bad, message = _check_cases(n, rng)[kind]
    with pytest.raises(ComponentError) as single:
        DomainPoint(frame, bad)
    assert str(single.value) == message
    good = _seeded_rows(frame, rng, size)
    for row in sorted({0, size // 2, size - 1}):
        rows = good.copy()
        rows[row] = bad
        with pytest.raises(ComponentError) as batch:
            Block(frame, rows)
        assert str(batch.value) == message


def test_block_check_names_the_first_bad_row(setup_n, rng):
    """Of several bad rows the first one raises, whichever check it fails,
    and within a row the checks run in order: finite, q(Y) > 0, y_1 > 0."""
    _, frame, _, n = setup_n
    cases = _check_cases(n, rng)
    rows = _seeded_rows(frame, rng, 512)
    for first, later in [("y1", "inf"), ("q_y", "nan"), ("nan", "q_y"),
                         ("inf", "y1")]:
        block = rows.copy()
        block[100], block[300] = cases[first][0], cases[later][0]
        with pytest.raises(ComponentError) as batch:
            Block(frame, block)
        assert str(batch.value) == cases[first][1]
    # an infinite coordinate on a row with y_1 < 0: finiteness comes first
    both = cases["y1"][0].copy()
    both[-1] = complex(np.inf, 0.0) if n > 1 else complex(np.inf, -1.0)
    with pytest.raises(ComponentError, match="is not finite"):
        DomainPoint(frame, both)


def test_rows_are_read_only(setup_n, rng):
    """A callback cannot write into a block point's z, which would put it
    out of step with the cached q(Y) and the block's memo."""
    _, frame, _, n = setup_n
    block = _seeded_rows(frame, rng, 3)
    point = list(Block(frame, block))[1]
    with pytest.raises(ValueError, match="read-only"):
        point.z[0] = 2.0j
    with pytest.raises(ValueError, match="read-only"):
        point.z += 1.0
    assert np.array_equal(point.z, block[1])
    single = DomainPoint(frame, block[2])
    with pytest.raises(ValueError, match="read-only"):
        single.z[0] = 2.0j
    block[1, 0] += 1.0  # the caller's own array stays writable
    block[2, 0] += 1.0


def test_rows_reject_wrong_width(setup_n, rng):
    _, frame, _, n = setup_n
    block = _seeded_rows(frame, rng, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Block(frame, np.hstack([block, block[:, :1]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        Block(frame, block[0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        DomainPoint(frame, block)


def test_block_walks_twice_over_one_memo(setup_n, rng):
    """Each walk of a Block yields new points on the same rows, and their
    row functions share the block's one memo."""
    _, frame, _, n = setup_n
    block = Block(frame, _seeded_rows(frame, rng, 4))
    first, second = list(block), list(block)
    assert len(first) == len(second) == 4
    runs = []

    def rows(b):
        runs.append(len(b.z))
        return 3.0 * b.q_y, {}

    for a, b in zip(first, second):
        assert a is not b and np.array_equal(a.z, b.z)
        assert a._row[0] is b._row[0] is block
        assert row_value(a, rows) == row_value(b, rows) == 3.0 * a.q_y
    assert runs == [4]


def test_row_value_memo_keys_by_array_bytes_and_arguments(setup_n, rng):
    """The memo key is the function, the leading array's shape and bytes
    and the other arguments: a lambda mutated in place or reshaped is a
    miss, and different kappa or rep values never share an entry."""
    _, frame, _, _ = setup_n
    point = next(iter(Block(frame, _seeded_rows(frame, rng, 3))))
    runs = []

    def rows(b, lam, kappa, rep="auto"):
        runs.append((lam.tolist(), kappa, rep))
        value = float(lam.sum()) * kappa + len(rep)
        return np.full(len(b.z), value), {}

    lam = np.array([1.0, 2.0])
    assert row_value(point, rows, lam, 3, "plus") == 13.0
    lam[0] = 5.0
    assert row_value(point, rows, lam, 3, "plus") == 25.0
    assert row_value(point, rows, lam.reshape(2, 1), 3, "plus") == 25.0
    assert row_value(point, rows, lam, 4, "plus") == 32.0
    assert row_value(point, rows, lam, 3, "minus") == 26.0
    assert row_value(point, rows, lam, 3) == 25.0
    assert row_value(point, rows, lam.copy(), 3, "plus") == 25.0
    assert runs == [([1.0, 2.0], 3, "plus"), ([5.0, 2.0], 3, "plus"),
                    ([[5.0], [2.0]], 3, "plus"), ([5.0, 2.0], 4, "plus"),
                    ([5.0, 2.0], 3, "minus"), ([5.0, 2.0], 3, "auto")]


def test_at_rows_follows_the_node_loop(setup_n, rng):
    """at_rows runs a row form once over the block and plain funcs node by
    node over the kept rows, each in turn; it raises the first kept failed
    row, after running at that row only the funcs before the failed one,
    or a plain func's own exception at an earlier row; failed rows that
    keep drops raise nothing."""
    _, frame, _, _ = setup_n
    block = Block(frame, _seeded_rows(frame, rng, 6))
    calls, runs = [], []

    def plain(name):
        return lambda pt: (calls.append((name, pt.z.tolist())), len(calls))[1]

    def rows(b):
        runs.append(len(b.z))
        return 2.0 * b.q_y, {1: lambda: ValueError("row 1"),
                             4: lambda: ValueError("row 4")}

    failing = bind_rows(rows)
    keep = np.array([True, False, True, True, True, True])
    with pytest.raises(ValueError, match="row 4"):
        at_rows(block, keep, plain("a"), failing, plain("b"))
    z = block.z.tolist()
    assert calls == [(name, z[i]) for i in (0, 2, 3) for name in "ab"] + [
        ("a", z[4])]
    assert runs == [6]
    calls.clear()
    keep[4] = False
    a, f, b = at_rows(block, keep, plain("a"), failing, plain("b"))
    assert calls == [(name, z[i]) for i in (0, 2, 3, 5) for name in "ab"]
    assert a.tolist() == [1, 3, 5, 7] and b.tolist() == [2, 4, 6, 8]
    assert f.tolist() == (2.0 * block.q_y[keep]).tolist()
    with pytest.raises(ValueError, match="row 1"):
        at_rows(block, None, failing)

    def raising(pt):
        if pt.z.tolist() == z[2]:
            raise ZeroDivisionError("plain at row 2")
        return 0.0

    keep[4] = True
    with pytest.raises(ZeroDivisionError, match="plain at row 2"):
        at_rows(block, keep, failing, raising)


def test_metric_inverse_and_det(setup_n, rng):
    _, frame, _, n = setup_n
    p = sample_point(frame, rng)
    up = metric_upper(frame.eps, p.y, p.q_y)
    low = metric_lower(frame.eps, p.y, p.q_y)
    assert np.allclose(up @ low, np.eye(n), atol=1e-9)
    assert abs(np.linalg.det(low) - metric_det(n, p.q_y)) < 1e-9 * metric_det(n, p.q_y)
    eig = np.linalg.eigvalsh(up)
    assert np.all(eig > 0)  # positivity on the chosen component


def test_translation_action(setup_n, rng):
    """Transvections along e act as Z -> Z + k with trivial automorphy."""
    lattice, frame, group, n = setup_n
    p = sample_point(frame, rng)
    gens = list(group)
    for g in gens[0::2]:  # even index: transvections along e
        moved, j = act(frame, g, p)
        assert abs(j - 1.0) < TOL
        # the shift is the W-part of the transvection direction
        shift = moved.z - p.z
        assert np.allclose(shift.imag, 0.0, atol=TOL)
        lattice_shift = frame.from_frame @ np.concatenate(([0, 0],
                                                           shift.real))
        assert np.allclose(lattice_shift, np.round(lattice_shift), atol=1e-8)


def test_cocycle_relation(setup_n, rng):
    lattice, frame, group, n = setup_n
    gens = list(group)
    p = sample_point(frame, rng)
    for _ in range(6):
        a = gens[rng.integers(len(gens))]
        b = gens[rng.integers(len(gens))]
        ab = a.compose(b)
        moved_b, j_b = act(frame, b, p)
        moved_ab, j_ab = act(frame, ab, p)
        moved_a, j_a = act(frame, a, moved_b)
        assert abs(j_ab - j_a * j_b) < 1e-9 * max(1.0, abs(j_ab))
        assert np.allclose(moved_ab.z, moved_a.z, atol=1e-9)


def test_pair_equivariance(setup_n, rng):
    """(lambda, psi(sigma Z)) = (sigma^-1 lambda, psi(Z)) / j(sigma, Z)."""
    lattice, frame, group, n = setup_n
    gens = list(group)
    p = sample_point(frame, rng)
    for _ in range(6):
        g = gens[rng.integers(len(gens))]
        lam = sample_vector(frame, rng)
        moved, j = act(frame, g, p)
        lhs = moved.pair(frame.frame_coords(lam))
        pulled = g.inverse().apply(lam)
        rhs = p.pair(frame.frame_coords(pulled)) / j
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_inversion_or_boundary(setup_n, rng):
    """Swapping the hyperbolic pair acts as an inversion with j = -q(Z)."""
    lattice, frame, _, n = setup_n
    d = lattice.dim
    rows = np.eye(d, dtype=int)
    rows[[0, 1]] = rows[[1, 0]]
    from orthoforms.quadratic import Isometry
    swap = Isometry.from_rows(rows.tolist())
    assert swap.preserves(lattice)
    p = sample_point(frame, rng)
    try:
        moved, j = act(frame, swap, p)
        assert abs(j + p.q_z) < 1e-9 * max(1.0, abs(j))
    except (ComponentError, BoundaryError):
        pass  # inversion may leave the fixed component; that is valid too


def test_projection_routes_agree(setup_n, rng):
    lattice, frame, _, n = setup_n
    for _ in range(10):
        p = sample_point(frame, rng)
        lam = sample_vector(frame, rng)
        vec_plus, q_plus, q_minus = project(frame, lam, p)
        qp2, qm2 = q_plus_minus(frame, frame.frame_coords(lam), p)
        scale = max(1.0, abs(q_plus))
        assert abs(q_plus - qp2) < 1e-9 * scale
        assert abs(q_minus - qm2) < 1e-9 * scale
        # decomposition is orthogonal: q(v+) = q_plus, q(v-) = q_minus
        assert abs(blf(lattice, vec_plus, vec_plus) / 2 - q_plus) < 1e-8 * scale
        v_minus = vec_float(lam) - vec_plus
        assert abs(blf(lattice, v_minus, v_minus) / 2 - q_minus) < 1e-8 * scale
        assert abs(blf(lattice, vec_plus, v_minus)) < 1e-7 * scale
        assert q_minus <= 1e-12
        assert q_plus >= -1e-12


def test_majorant_equals_norm_split(setup_n, rng):
    """x^T M x = 2 (q_plus - q_minus): the positive form majorizes 2|q|."""
    lattice, frame, _, n = setup_n
    p = sample_point(frame, rng)
    m_gram = majorant_at(frame, p)
    for _ in range(8):
        lam = sample_vector(frame, rng)
        _, q_plus, q_minus = project(frame, lam, p)
        val = majorant_value(m_gram, lam)
        assert abs(val - 2.0 * (q_plus - q_minus)) < 1e-8 * max(1.0, abs(val))
        assert val + 1e-9 >= abs(2.0 * float(lattice.q(lam)))
