"""Even lattices of signature (2, n): exact bilinear arithmetic, isometries,
and enumeration of the vectors of one norm under a positive-definite
majorant form.

Vectors are tuples of :class:`fractions.Fraction` in lattice coordinates, so
norms, pairings and isometry checks are exact.  Floats only enter through the
majorant form, which depends on a transcendental base point anyway.

The enumeration walks the majorant ellipsoid one level at a time over all
but the first coordinate, as arrays of integer frontier rows, and solves the
norm equation (quadratic or linear in one integer unknown) for the first
over every row at once.  It works in the integer vectors w = den v of the
coset (den the lcm of its denominators): each solution is kept by the int64
identity w^T G w == 2 m den^2, and the kept vectors are turned into floats,
majorant values and order in one array pass, and into fractions only when
read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Vec = tuple[Fraction, ...]


def as_vec(entries: Iterable) -> Vec:
    # a Fraction is immutable, so one given is kept as it is
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_float(v: Vec) -> np.ndarray:
    return np.array([float(a) for a in v])


def _gram_pair(gram, u: Sequence[int], v: Sequence[int]) -> int:
    """u^T G v for integer vectors u and v."""
    return sum(ui * sum(gij * vj for gij, vj in zip(row, v, strict=True) if vj)
               for ui, row in zip(u, gram, strict=True) if ui)


def _integral(v: Sequence) -> tuple[int, list[int]]:
    """(den, den * v) with den the lcm of the entries' denominators."""
    v = as_vec(v)
    den = math.lcm(*(a.denominator for a in v))
    return den, [a.numerator * (den // a.denominator) for a in v]


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticLattice:
    """An even integral lattice given by its bilinear Gram matrix.

    ``gram[i][j] = (basis_i, basis_j)`` and ``q(v) = (v, v)/2``.
    """

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.gram
        d = len(g)
        if any(len(row) != d for row in g):
            raise LatticeError("gram matrix must be square")
        for i in range(d):
            if g[i][i] % 2 != 0:
                raise LatticeError("lattice is not even: odd diagonal entry")
            for j in range(d):
                if g[i][j] != g[j][i]:
                    raise LatticeError("gram matrix must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.gram)

    def bilinear(self, u: Sequence, v: Sequence) -> Fraction:
        # exact, in integers: (u, v) = (du u, dv v) / (du dv)
        du, iu = _integral(u)
        dv, iv = _integral(v)
        return Fraction(_gram_pair(self.gram, iu, iv), du * dv)

    def q(self, v: Sequence) -> Fraction:
        return self.bilinear(v, v) / 2

    def signature(self) -> tuple[int, int]:
        """Inertia (n_plus, n_minus) of the real quadratic space."""
        eig = np.linalg.eigvalsh(self.gram_float())
        tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))))
        return int(np.sum(eig > tol)), int(np.sum(eig < -tol))

    def gram_float(self) -> np.ndarray:
        return np.array(self.gram, dtype=float)


@dataclass(frozen=True)
class Isometry:
    """A rational matrix acting on lattice coordinates, preserving the form."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise LatticeError("isometry matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Isometry":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, d: int) -> "Isometry":
        return cls.from_rows([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def _integer(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, den * matrix), den the lcm of the entries' denominators."""
        d = self.dim
        den, flat = _integral([a for row in self.matrix for a in row])
        return den, tuple(tuple(flat[i:i + d]) for i in range(0, d * d, d))

    def apply(self, v: Sequence) -> Vec:
        den, rows = self._integer
        if len(v) != len(rows):
            raise LatticeError(f"vector of length {len(v)} for size {self.dim}")
        dv, w = _integral(v)
        return tuple(Fraction(sum(map(mul, row, w)), den * dv) for row in rows)

    def compose(self, other: "Isometry") -> "Isometry":
        (da, a), (db, b) = self._integer, other._integer
        cols = list(zip(*b))  # a size mismatch leaves the product non-square
        return Isometry(tuple(
            tuple(Fraction(sum(map(mul, row, col)), da * db) for col in cols)
            for row in a))

    def inverse(self) -> "Isometry":
        return self._inverse

    @cached_property
    def _inverse(self) -> "Isometry":
        # N = den M is integral, so N^-1 = adj(N) / det(N) with adj(N)
        # integral: recover it by rounding, then check exactly
        den, rows = self._integer
        n = np.array(rows, dtype=float)
        det = round(np.linalg.det(n))
        if det == 0:
            raise LatticeError("could not invert isometry exactly: singular")
        adj = np.linalg.inv(n) * det
        out = Isometry(tuple(tuple(Fraction(den * round(x), det) for x in row)
                             for row in adj))
        if out.compose(self).matrix != Isometry.identity(self.dim).matrix:
            raise LatticeError("could not invert isometry exactly")
        return out

    @cached_property
    def float_matrix(self) -> np.ndarray:
        """The matrix in floats, converted once and read-only."""
        m = np.array([[float(x) for x in row] for row in self.matrix])
        m.flags.writeable = False
        return m

    def preserves(self, lattice: QuadraticLattice) -> bool:
        """Exact check of M^T G M == G, as N^T G N == den^2 G for N = den M."""
        den, rows = self._integer
        g, d = lattice.gram, lattice.dim
        if len(rows) != d:
            raise LatticeError(f"isometry of size {len(rows)} on rank {d}")
        cols = list(zip(*rows))
        return all(_gram_pair(g, cols[i], cols[j]) == den * den * g[i][j]
                   for i in range(d) for j in range(i, d))


# ---------------------------------------------------------------------------
# standard test lattices


def hyperbolic_plane() -> list[list[int]]:
    return [[0, 1], [1, 0]]


def standard_lattice(n: int) -> dict:
    """A built-in even lattice of signature (2, n) with a distinguished
    hyperbolic pair (e, e') and a basis of the orthogonal part K.

    Returns a config dict with keys gram, e, e_prime, k_basis.
    """
    if n < 1:
        raise LatticeError("need n >= 1")
    blocks: list[list[list[int]]] = [hyperbolic_plane()]
    if n == 1:
        blocks.append([[2]])
    else:
        blocks.append(hyperbolic_plane())
        for _ in range(n - 2):
            blocks.append([[-2]])
    d = sum(len(b) for b in blocks)
    gram = [[0] * d for _ in range(d)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                gram[off + i][off + j] = b[i][j]
        off += k
    e = [0] * d
    e[0] = 1
    e_prime = [0] * d
    e_prime[1] = 1
    k_basis = [[0] * d for _ in range(n)]
    for i in range(n):
        k_basis[i][2 + i] = 1
    return {"gram": gram, "e": e, "e_prime": e_prime, "k_basis": k_basis}


def eichler_isometry(lattice: QuadraticLattice, iso_vec: Sequence,
                     k: Sequence) -> Isometry:
    """The transvection v -> v + (v,u)k - (v,k)u - q(k)(v,u)u for an isotropic
    u and k orthogonal to u: M = I + k(Gu)^T - u(Gk)^T - q(k) u(Gu)^T, built
    exactly from the integer vectors du u and dk k.  Preserves the lattice
    when u, k are integral."""
    g = lattice.gram
    du, u = _integral(iso_vec)
    dk, kv = _integral(k)
    if _gram_pair(g, u, u) != 0:
        raise LatticeError("transvection base vector must be isotropic")
    if _gram_pair(g, u, kv) != 0:
        raise LatticeError("transvection direction must be orthogonal to base")
    gu, gk = ([sum(map(mul, row, x)) for row in g] for x in (u, kv))
    qk = _gram_pair(g, kv, kv)  # 2 q(k) dk^2
    d, den = len(g), 2 * du * du * dk * dk
    return Isometry(tuple(tuple(
        Fraction(den * (i == j) + 2 * du * dk * (kv[i] * gu[j] - u[i] * gk[j])
                 - qk * u[i] * gu[j], den) for j in range(d))
        for i in range(d)))


def standard_group(lattice: QuadraticLattice,
                   config: dict) -> tuple[Isometry, ...]:
    """Generators of a finite-index subgroup of the integral orthogonal
    group: Eichler transvections along e and e' in the K-directions."""
    gens = []
    for k in config["k_basis"]:
        gens.append(eichler_isometry(lattice, config["e"], k))
        gens.append(eichler_isometry(lattice, config["e_prime"], k))
    return tuple(gens)


# ---------------------------------------------------------------------------
# majorant enumeration


def majorant_gram(lattice: QuadraticLattice, psi_x: np.ndarray,
                  psi_y: np.ndarray, q_y: float) -> np.ndarray:
    """Positive-definite Gram of v -> q(v_+) - q(v_-) at a base point, from
    the real/imaginary parts of the point's isotropic line.

    With a = G psi_x, b = G psi_y:  M = (a a^T + b b^T)/q_y - G.
    """
    g = lattice.gram_float()
    a = g @ psi_x
    b = g @ psi_y
    m = (np.outer(a, a) + np.outer(b, b)) / q_y - g
    return 0.5 * (m + m.T)


def majorant_value(m_gram: np.ndarray, v: Sequence) -> float:
    x = vec_float(as_vec(v))
    return float(x @ m_gram @ x)


class MajorantPoints(NamedTuple):
    """The kept vectors as arrays, sorted lexicographically: the integer rows
    w = den v (N, d), their float coordinates coords = w / den (N, d) and
    majorant values (N,), row by row bit for bit ``vec_float(v)`` and
    ``majorant_value(m_gram, v)``; ``vectors()`` builds the fractions."""

    w: np.ndarray
    den: int
    coords: np.ndarray
    values: np.ndarray

    def vectors(self) -> list[Vec]:
        return [tuple(Fraction(wj, self.den) for wj in row)
                for row in self.w.tolist()]


# children a frontier slice expands to (plus one row's window, at most),
# so that memory stays bounded at any bound
_FRONTIER_ROWS = 8192


def _row_norms(gram: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^T G w for every integer row of w, exactly in int64."""
    return ((w @ gram) * w).sum(axis=1)


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, x) for every integer x in each row's window [lo, hi]."""
    counts = np.maximum(hi - lo + 1, 0)
    rows = np.repeat(np.arange(len(lo)), counts)
    firsts = np.repeat(np.cumsum(counts) - counts, counts)
    return rows, lo[rows] + np.arange(len(rows)) - firsts


def majorant_points(lattice: QuadraticLattice, m_gram: np.ndarray,
                    m: Fraction | int, coset: Sequence,
                    bound: float) -> MajorantPoints:
    """All v in coset + L with q(v) == m and majorant(v) <= bound, with
    their float coordinates and majorant values, as arrays.

    A Fincke-Pohst search of the majorant ellipsoid (with a small slack)
    starts from the integer box |v_j| <= sqrt(slack (M^-1)_jj) of its top
    coordinates d-1 ... k (k >= 1), as many as fit one slice of
    _FRONTIER_ROWS rows, and keeps each box row whose terms of ||r v||^2
    on those levels (r the Cholesky factor) fit the slack.  It walks the
    coordinates k-1 ... 1 below the box one level at a time: each row of
    an integer frontier array takes its window from the Cholesky row and
    its remaining slack and expands over it, in slices of about
    _FRONTIER_ROWS children.  Over all rows at once, the innermost
    coordinate solves q(v) = m, ``G00 w0^2 + b w0 + c = 2 m den^2`` in
    w = den * v (den the lcm of the coset denominators): a quadratic with
    an exact integer square root, linear when G00 = 0, scanned only where
    b = 0 and c hits the target.  Roots in the ellipsoid are kept by the
    integer identity ``w^T G w == 2 m den^2`` (one int64 product) and by
    the canonical float majorant value of w / den (the floats of the
    fractions), taken for all roots in one stacked product, so results
    equal a box scan's.  A bound whose windows or discriminants leave the
    exact integer range (2^53) raises LatticeError.  Sorted
    lexicographically.
    """
    d = lattice.dim
    if not math.isfinite(bound):
        raise LatticeError(f"majorant bound must be finite, got {bound}")
    den, offset = _integral(coset)  # w_j = den * x_j + offset_j
    target = 2 * Fraction(m) * den * den  # w^T G w for w = den v of norm m
    if bound <= 0 or target.denominator != 1:
        return MajorantPoints(np.empty((0, d), dtype=np.int64), den,
                              np.empty((0, d)), np.empty(0))
    try:
        r = np.linalg.cholesky(m_gram).T  # upper, x^T M x = ||r x||^2
    except np.linalg.LinAlgError as exc:
        raise LatticeError("majorant form is not positive definite") from exc
    slack = bound * (1 + 1e-9) + 1e-9
    c = np.array([wj / den for wj in offset])  # the coset's floats
    target = target.numerator
    g = np.array(lattice.gram, dtype=np.int64)
    a = lattice.gram[0][0]
    # the ellipsoid's projection onto coordinate j is |v_j| <= half_j
    half = np.sqrt(slack * np.diag(np.linalg.inv(m_gram)))
    # |w_j| <= den (half_j + 1) in every window
    reach = den * (float(half.max()) + 1)
    size = int(np.abs(g).sum())
    if 8 * size * (size * reach ** 2 + abs(target)) >= 2.0 ** 53:
        raise LatticeError(f"majorant bound {bound} is too large for the "
                           "exact integer search")
    offset = np.array(offset, dtype=np.int64)
    found = [np.empty((0, d), dtype=np.int64)]

    def descend(i: int, w: np.ndarray, rem: np.ndarray):
        # w: frontier rows (0 from level i down), rem: their slack left
        s = (w[:, i + 1:] / den) @ r[i, i + 1:]
        half = np.sqrt(np.maximum(rem, 0.0))
        lo = np.ceil((-half - s) / r[i, i] - c[i] - 1e-12).astype(np.int64)
        hi = np.floor((half - s) / r[i, i] - c[i] + 1e-12).astype(np.int64)
        if i == 0:
            return innermost(w, rem, s, lo, hi)
        counts = np.maximum(hi - lo + 1, 0)
        if counts.sum() <= _FRONTIER_ROWS:
            return grow(i, w, rem, s, *_expand(lo, hi))
        piece = (np.cumsum(counts) - counts) // _FRONTIER_ROWS
        cuts = np.flatnonzero(np.diff(piece)) + 1
        for part in np.split(np.arange(len(w)), cuts):
            rows, x = _expand(lo[part], hi[part])
            grow(i, w, rem, s, part[rows], x)

    def grow(i, w, rem, s, rows, x):
        # descend to the children (rows, x) inside the ellipsoid
        used = (r[i, i] * (x + c[i]) + s[rows]) ** 2
        keep = used <= rem[rows] + 1e-12
        child = w[rows[keep]]
        child[:, i] = den * x[keep] + offset[i]
        descend(i - 1, child, rem[rows[keep]] - used[keep])

    def innermost(w, rem, s, lo, hi):
        lin = w @ g  # w0 = 0 here: b = 2 lin_0, c = lin . w - target
        b, cc = 2 * lin[:, 0], (lin * w).sum(axis=1) - target
        if a:
            disc = b * b - 4 * a * cc
            root = np.rint(np.sqrt(np.maximum(disc, 0))).astype(np.int64)
            real = (disc >= 0) & (root * root == disc)
            twice = real & (root > 0)  # a zero root is one root
            rows = np.concatenate([real.nonzero()[0], twice.nonzero()[0]])
            num = -b[rows] + np.concatenate([-root[real], root[twice]])
            even = num % (2 * a) == 0
            rows, w0 = rows[even], num[even] // (2 * a)
        else:
            linear = (b != 0) & (cc % np.where(b, b, 1) == 0)
            rows, w0 = linear.nonzero()[0], -cc[linear] // b[linear]
            scan = ((b == 0) & (cc == 0)).nonzero()[0]
            if len(scan):
                srows, sx = _expand(lo[scan], hi[scan])
                rows = np.concatenate([rows, scan[srows]])
                w0 = np.concatenate([w0, den * sx + offset[0]])
        x0 = (w0 - offset[0]) // den
        keep = (((w0 - offset[0]) % den == 0) & (lo[rows] <= x0)
                & (x0 <= hi[rows]) & ((r[0, 0] * (x0 + c[0]) + s[rows]) ** 2
                                      <= rem[rows] + 1e-12))
        cand = w[rows[keep]]
        cand[:, 0] = w0[keep]
        found.append(cand[_row_norms(g, cand) == target])

    # the box: integer x_j from first_j, widths_j of them, on the levels
    # k ... d-1; rem is each row's slack left below them
    first = np.ceil(-half - c - 1e-12).astype(np.int64)
    widths = np.maximum(np.floor(half - c + 1e-12).astype(np.int64)
                        - first + 1, 0).tolist()
    k, rows = d, 1
    while k > 1 and rows * widths[k - 1] <= _FRONTIER_ROWS:
        k -= 1
        rows *= widths[k]
    w = np.zeros((rows, d), dtype=np.int64)
    w[:, k:] = den * (np.indices(widths[k:]).reshape(d - k, rows).T
                      + first[k:]) + offset[k:]
    y = (w[:, k:] / den) @ r[k:, k:].T  # y_i = r_i . v, r upper
    rem = slack - (y * y).sum(axis=1)
    keep = rem >= -1e-12
    descend(k - 1, w[keep], rem[keep])
    w = np.concatenate(found)
    x = w / den
    # the stacked products give each row the bits of x @ m_gram @ x
    values = ((x[:, None, :] @ m_gram) @ x[:, :, None])[:, 0, 0]
    kept = np.flatnonzero(values <= bound)
    # w = den * (coset + x) with den > 0, so sorting the distinct rows of w
    # sorts v lexicographically (lexsort's last key is the first column)
    kept = kept[np.lexsort(w[kept].T[::-1])]
    return MajorantPoints(w[kept], den, x[kept], values[kept])


def enumerate_majorant(lattice: QuadraticLattice, m_gram: np.ndarray,
                       m: Fraction | int, coset: Sequence,
                       bound: float) -> list[Vec]:
    """The vectors of :func:`majorant_points`: all v in coset + L with
    q(v) == m and majorant(v) <= bound, sorted lexicographically."""
    return majorant_points(lattice, m_gram, m, coset, bound).vectors()


# ---------------------------------------------------------------------------
# config parsing


def lattice_from_config(cfg: dict):
    """(lattice, data, generators) of {"standard": n}, whose data is
    standard_lattice(n), or of explicit data {"gram", "e", "e_prime",
    [k_basis], [group_generators]}; the generators (a tuple of Isometry) are
    group_generators, else the Eichler transvections along k_basis, else
    none."""
    if "standard" in cfg:
        data = standard_lattice(int(cfg["standard"]))
    else:
        data = cfg
    lattice = QuadraticLattice(tuple(tuple(int(x) for x in row)
                                     for row in data["gram"]))
    sig = lattice.signature()
    if sig[0] != 2:
        raise LatticeError(f"expected signature (2, n), got {sig}")
    if "group_generators" in data:
        gens = tuple(Isometry.from_rows(mat)
                     for mat in data["group_generators"])
    elif "k_basis" in data:
        gens = standard_group(lattice, data)
    else:
        gens = ()
    for gen in gens:
        if not gen.preserves(lattice):
            raise LatticeError("group generator does not preserve the form")
    return lattice, data, gens
