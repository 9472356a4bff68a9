"""Tube-domain model of the hermitian symmetric space attached to a lattice
of signature (2, n).

A Witt frame (e, e', K) splits V = L (x) Q as  Q e + Q e~' + W  with
e, e~' isotropic, (e, e~') = 1 and W = K (x) Q of signature (1, n-1).  Points
are Z = X + iY in W(C) with q(Y) > 0, normalized to the component y_1 > 0 in
an orthonormalized basis b_1, ..., b_n with (b_i, b_j) = 2 eps_i delta_ij,
eps_1 = +1, eps_j = -1 otherwise.  The isotropic lift is
psi(Z) = Z - q(Z) e + e~'.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .quadratic import (Isometry, LatticeError, QuadraticLattice, Vec, as_vec,
                        majorant_gram, vec_float, vec_scale, vec_sub)

FRAME_TOL = 1e-12


class ComponentError(ValueError):
    """Raised when a point leaves the fixed connected component."""


class BoundaryError(ValueError):
    """Raised when an isometry sends a point to the boundary (j ~ 0)."""


def _canonical_sign(col: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(col)))
    return -col if col[idx] < 0 else col


@dataclass(frozen=True)
class WittFrame:
    """Frame data: exact isotropic pair plus a float orthonormalized W-basis.

    ``from_frame`` has columns (e, e~', b_1, ..., b_n) in lattice coordinates;
    ``to_frame`` is its inverse, so frame coordinates of v are to_frame @ v.
    """

    lattice: QuadraticLattice
    e: Vec
    e_prime: Vec
    e_tilde: Vec
    basis: np.ndarray          # (dim, n) columns b_j
    from_frame: np.ndarray     # (dim, dim)
    to_frame: np.ndarray       # (dim, dim)

    @classmethod
    def build(cls, lattice: QuadraticLattice, e: Sequence,
              e_prime: Sequence) -> "WittFrame":
        e = as_vec(e)
        ep = as_vec(e_prime)
        if lattice.q(e) != 0:
            raise LatticeError("e must be isotropic")
        if lattice.bilinear(e, ep) != 1:
            raise LatticeError("(e, e') must equal 1")
        et = vec_sub(ep, vec_scale(lattice.q(ep), e))
        g = lattice.gram_float()
        d = lattice.dim
        ef, etf = vec_float(e), vec_float(et)
        # project the standard basis onto the complement of span(e, e~')
        proj = np.eye(d) - np.outer(ef, g @ etf) - np.outer(etf, g @ ef)
        s = proj.T @ g @ proj
        eig, vecs = np.linalg.eigh(s)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))))
        pos = [i for i in range(d) if eig[i] > tol]
        neg = [i for i in range(d) if eig[i] < -tol]
        n = d - 2
        if len(pos) != 1 or len(neg) != n - 1:
            raise LatticeError("orthogonal part is not of signature (1, n-1)")
        cols = []
        for i in pos + neg:
            b = proj @ vecs[:, i] * np.sqrt(2.0 / abs(eig[i]))
            cols.append(_canonical_sign(b))
        basis = np.array(cols).T
        from_frame = np.column_stack([ef, etf, basis])
        to_frame = np.linalg.inv(from_frame)
        frame = cls(lattice, e, ep, et, basis, from_frame, to_frame)
        frame._check()
        return frame

    @cached_property
    def n(self) -> int:
        return self.lattice.dim - 2

    @cached_property
    def eps(self) -> np.ndarray:
        v = -np.ones(self.n)
        v[0] = 1.0
        return v

    @cached_property
    def gram_float(self) -> np.ndarray:
        return self.lattice.gram_float()

    @cached_property
    def e_covector(self) -> np.ndarray:
        return (vec_float(self.e) @ self.gram_float)[None]

    def _check(self) -> None:
        g = self.gram_float
        b = self.basis
        gram_w = b.T @ g @ b
        target = 2.0 * np.diag(self.eps)
        if np.max(np.abs(gram_w - target)) > 1e-9:
            raise LatticeError("W-basis failed orthonormalization")
        err = np.max(np.abs(self.to_frame @ self.from_frame - np.eye(self.lattice.dim)))
        if err > 1e-9:
            raise LatticeError("frame matrix is not invertible to tolerance")

    # -- coordinate transport -----------------------------------------------

    def frame_coords(self, v: Sequence) -> np.ndarray:
        """Frame coordinates (v_e, v_e', v_1..v_n) of a lattice-coordinate
        vector (real)."""
        return self.to_frame @ vec_float(as_vec(v))

    # -- core scalars -------------------------------------------------------

    def q_w(self, w: np.ndarray):
        """q on W in the orthonormalized coordinates (works on complex)."""
        return (self.eps * w * w).sum(axis=-1)

    def q_lambda(self, lam: np.ndarray):
        """q of a vector given in frame coordinates, as a float; of each
        row of an (M, n+2) array, as an (M,) array."""
        q = lam.T[0] * lam.T[1] + self.q_w(lam[..., 2:])
        return q if isinstance(q, np.ndarray) else float(q)

    def pair(self, lam: np.ndarray, z: np.ndarray, q_z):
        """(lambda, psi(Z)) = lambda_e - lambda_e' q(Z) + (lambda_W, Z) for
        lam in frame coordinates and q_z = q(Z); lam (M, n+2) against z
        (N, n) and q_z (N,), with M or N equal to 1, gives one pairing per
        row."""
        return (lam.T[0] - lam.T[1] * q_z
                + 2.0 * (self.eps * lam[..., 2:] * z).sum(axis=-1))


@dataclass(frozen=True, init=False)
class DomainPoint:
    """A point Z = X + iY of the tube domain over a fixed frame: a row of a
    Block, its own one-row Block when built alone."""

    frame: WittFrame
    z: np.ndarray

    def __init__(self, frame: WittFrame, z: np.ndarray):
        block = Block(frame, np.asarray(z, dtype=complex)[None])
        object.__setattr__(self, "__dict__", {
            "frame": frame, "z": block.z[0], "q_y": float(block.q_y[0]),
            "_row": (block, 0)})

    @property
    def y(self) -> np.ndarray:
        return self.z.imag

    @cached_property
    def q_z(self) -> complex:
        return complex(self.frame.q_w(self.z))

    @cached_property
    def psi(self) -> np.ndarray:
        """psi(Z) in lattice coordinates: the one row of psi_rows."""
        return psi_rows(self.frame, self.z[None])[0, :, 0]

    @cached_property
    def psi_x(self) -> np.ndarray:
        return self.psi.real

    @cached_property
    def psi_y(self) -> np.ndarray:
        return self.psi.imag

    def pair(self, lam: np.ndarray) -> complex:
        """(lambda, psi(Z)) of WittFrame.pair; lam in frame coordinates."""
        return complex(self.frame.pair(lam, self.z, self.q_z))

    def pair_bar(self, lam: np.ndarray) -> complex:
        """(lambda, psi(Zbar)); for real lam every product and sum of the
        pairing commutes with conjugation, so this is exactly the conjugate
        of (lambda, psi(Z))."""
        return self.pair(lam).conjugate()


def _check_rows(z: np.ndarray, q_y: np.ndarray) -> None:
    """Raise ComponentError for the first row of z that fails a component
    check (finite coordinates, q(Y) > 0, y_1 > 0, in this order)."""
    fine = np.isfinite(z).all(axis=1) & (q_y > 0) & (z[:, 0].imag > 0)
    if fine.all():
        return
    row = int(np.argmin(fine))
    bad = ~np.isfinite(z[row])
    if bad.any():
        k = int(np.argmax(bad))
        raise ComponentError(f"z_{k + 1} = {z[row, k]} is not finite")
    if not q_y[row] > 0:
        raise ComponentError("q(Y) must be positive")
    raise ComponentError("point lies in the wrong component (y_1 <= 0)")


class Block:
    """Points of the tube domain as the rows of one (N, n) array: Z as a
    read-only view, its imaginary part y and the (N,) q(Y), the point-like
    argument of a row function; and the memo of row functions evaluated on
    them, which row_value alone reads and fills.  The first row failing a
    component check (finite coordinates, q(Y) > 0, y_1 > 0, in this order)
    raises ComponentError.  Functions are evaluated over a block by
    at_rows.  Each walk yields one new DomainPoint per row: its z a view of
    the row, its q_y the row's q(Y) as a float, its memo the block's."""

    __slots__ = ("frame", "z", "q_y", "memo")

    def __init__(self, frame: WittFrame, z: np.ndarray):
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[1] != frame.n:
            raise ValueError("dimension mismatch")
        y = z.imag
        q_y = frame.q_w(y)
        # every row passes when the least q(Y) and y_1 is positive and the
        # sum of all coordinates finite (NaN fails both); otherwise, or
        # when that sum overflows, each row is checked in turn
        if not (np.minimum.reduce(np.minimum(q_y, y[:, 0]), initial=np.inf)
                > 0 and cmath.isfinite(z.sum())):
            _check_rows(z, q_y)
        self.frame = frame
        self.z = z.view()
        self.z.flags.writeable = False
        self.q_y = q_y
        self.memo: dict = {}

    @property
    def y(self) -> np.ndarray:
        return self.z.imag

    def pair(self, lam: np.ndarray) -> np.ndarray:
        """(lambda, psi(Z)) of WittFrame.pair for one lambda or lambda rows
        (M, n+2) against the Z rows."""
        return self.frame.pair(lam, self.z, self.frame.q_w(self.z))

    def __iter__(self) -> Iterator[DomainPoint]:
        frame = self.frame
        cls = DomainPoint
        new = object.__new__
        set_dict = object.__setattr__

        def make(row: np.ndarray, q: float, index: int) -> DomainPoint:
            point = new(cls)
            set_dict(point, "__dict__", {"frame": frame, "z": row, "q_y": q,
                                         "_row": (self, index)})
            return point

        return map(make, self.z, self.q_y.tolist(), range(len(self.z)))


def row_value(point: DomainPoint, rows: Callable, *args):
    """The point's row of rows(block, *args) -> (values, failures).

    rows maps a Block (frame, z, y and q_y with a leading row axis of N
    rows) to values with one leading row axis, and failures {row:
    zero-argument exception factory} for the rows it cannot evaluate.  rows
    runs once per key, the function and every argument (an array, which
    comes first, by its shape and bytes), on all rows of the point's block
    (one row for a standalone point), and later calls read the memo.  A
    failed row raises a fresh exception only when it is requested; the
    value is returned as a fresh copy."""
    block, index = point._row
    lead = args[0] if args else None
    key = ((rows, lead.shape, lead.tobytes(), args[1:])
           if type(lead) is np.ndarray else (rows, args) if args else rows)
    memo = block.memo.get(key)
    if memo is None:
        memo = block.memo[key] = rows(block, *args)
    values, failures = memo
    if index in failures:
        raise failures[index]()
    return values[index].copy()


def bind_rows(rows: Callable, *args) -> Callable:
    """rows bound to its arguments, as a function of one point, point ->
    row_value(point, rows, *args), that carries its row form .rows(block)
    -> rows(block, *args), the (values, failures) of row_value, which
    at_rows runs once over a block."""
    def value(point: DomainPoint):
        return row_value(point, rows, *args)

    value.rows = lambda block: rows(block, *args)
    return value


def at_rows(points: Block, keep: np.ndarray | None, *funcs
            ) -> list[np.ndarray]:
    """Each func at the rows of a Block where keep is true (every row when
    keep is None), one value per such row: the one rule by which the
    library evaluates functions over a block.

    - A func with a row form (bind_rows) runs that form once over the
      block.
    - Any other func runs point by point over the kept rows, in the order
      of the node loop that calls each func in turn at each kept row.
    - The failure raised is the one that loop meets first: a plain func's
      own exception, or a row form's failed row (failed rows that keep
      drops raise nothing).
    - A plain func runs no further than that failure."""
    forms = [getattr(func, "rows", None) for func in funcs]
    done = [form(points) if form else None for form in forms]
    size = len(points.z)
    stop, last = min([(i, k) for k, out in enumerate(done) if out
                      for i in out[1] if keep is None or keep[i]],
                     default=(size, len(funcs)))
    plain = [func for func, form in zip(funcs, forms) if form is None]
    flat = []
    if plain:
        # node-major over the kept rows before the stop row, then the funcs
        # that the loop runs at the stop row before the failed one
        nodes = iter(points) if keep is None else compress(points, keep)
        before = stop if keep is None else int(np.count_nonzero(keep[:stop]))
        flat = [func(point) for point in islice(nodes, before)
                for func in plain]
        if stop < size:
            point = next(nodes)
            for func, form in zip(funcs[:last], forms):
                if form is None:
                    func(point)
    if stop < size:
        raise done[last][1][stop]()
    columns = (flat[k::len(plain)] for k in range(len(plain)))
    return [np.array(next(columns)) if out is None
            else out[0] if keep is None else out[0][keep] for out in done]


# ---------------------------------------------------------------------------
# group action


def isometry_matrix(sigma) -> np.ndarray:
    """The float lattice-coordinate matrix of an Isometry or a matrix."""
    if isinstance(sigma, Isometry):
        return sigma.float_matrix
    return np.asarray(sigma, dtype=float)


def psi_frame(frame: WittFrame, z: np.ndarray) -> np.ndarray:
    """psi(Z) = Z - q(Z) e + e~' of each row of z (N, n) in frame
    coordinates (-q(Z), 1, Z), as (N, n+2, 1) columns."""
    fc = np.empty((len(z), frame.n + 2), dtype=complex)
    fc[:, 0] = -frame.q_w(z)
    fc[:, 1] = 1.0
    fc[:, 2:] = z
    return fc[:, :, None]


def psi_rows(frame: WittFrame, z: np.ndarray) -> np.ndarray:
    """psi(Z) of each row of z in lattice coordinates, (N, n+2, 1)."""
    return frame.from_frame.astype(complex) @ psi_frame(frame, z)


def act(frame: WittFrame, sigma, points, psi: np.ndarray | None = None):
    """Apply an isometry to a point, or to the rows of a Block; returns
    (sigma Z, j(sigma, Z)) where j(sigma, Z) = (e, sigma psi(Z)) is the
    factor of automorphy, as a DomainPoint and a complex, or a Block and an
    (N,) array.  psi, when given, is psi_frame of the points' rows.  Every
    step is one stacked matmul, each row rounded as at one point.  The
    first row sent to the boundary (|j| < 1e-12) or out of the fixed
    component raises BoundaryError or ComponentError."""
    block = isinstance(points, Block)
    z = points.z if block else points.z[None]
    if psi is None:
        psi = psi_frame(frame, z)
    w = isometry_matrix(sigma).astype(complex) @ (
        frame.from_frame.astype(complex) @ psi)
    j = frame.e_covector @ w
    stop = min((np.abs(j) < 1e-12).nonzero()[0], default=len(j))
    fc = frame.to_frame.astype(complex) @ (w[:stop] / j[:stop])
    try:
        moved = Block(frame, np.ascontiguousarray(fc[:, 2:, 0]))
    except ComponentError as exc:
        raise ComponentError(
            f"isometry leaves the fixed component: {exc}") from exc
    if stop < len(j):
        raise BoundaryError("isometry maps the point to the boundary")
    j = j[:, 0, 0]
    return (moved, j) if block else (next(iter(moved)), complex(j[0]))


# ---------------------------------------------------------------------------
# projections and the majorant at a point


def project(frame: WittFrame, lam_lattice: Sequence,
            point: DomainPoint) -> tuple[np.ndarray, float, float]:
    """Project a (real, lattice-coordinate) vector onto the positive-definite
    plane attached to the point.

    Returns (vec_plus in lattice coordinates, q_plus, q_minus), computed from
    the real/imaginary parts of psi(Z): a route independent of the product
    formula of norm_split, against which the tests compare it.
    """
    lam = vec_float(as_vec(lam_lattice))
    g = frame.gram_float
    qy = point.q_y
    a = float(lam @ g @ point.psi_x) / (2 * qy)
    b = float(lam @ g @ point.psi_y) / (2 * qy)
    vec_plus = a * point.psi_x + b * point.psi_y
    q_plus = (a * a + b * b) * qy
    q_minus = float(frame.lattice.q(as_vec(lam_lattice))) - q_plus
    return vec_plus, q_plus, q_minus


def norm_split(q_lam, pair, q_y):
    """(q_plus, q_minus) of a vector of norm q_lam with (lambda, psi(Z)) =
    pair, by the product formula q_plus = |pair|^2 / (4 q(Y)); on scalars,
    or on arrays with one value per row.  |pair|^2 is the real part of
    pair * conj(pair) as the complex product rounds it, re re - im (-im),
    which is exactly re re + im im."""
    q_plus = (pair.real * pair.real + pair.imag * pair.imag) / (4.0 * q_y)
    return q_plus, q_lam - q_plus


def q_plus_minus(frame: WittFrame, lam_frame: np.ndarray, point):
    """(q_plus, q_minus) by the product formula, at a point or Block rows."""
    return norm_split(frame.q_lambda(lam_frame), point.pair(lam_frame),
                      point.q_y)


def majorant_at(frame: WittFrame, point: DomainPoint) -> np.ndarray:
    return majorant_gram(frame.lattice, point.psi_x, point.psi_y, point.q_y)


# ---------------------------------------------------------------------------
# invariant metric


def metric_upper(eps: np.ndarray, y: np.ndarray, q_y: float) -> np.ndarray:
    """h^{ij} = 4 y_i y_j - 2 q(Y) delta_ij eps_i."""
    return 4.0 * np.outer(y, y) - 2.0 * q_y * np.diag(eps)


def metric_lower(eps: np.ndarray, y: np.ndarray, q_y: float) -> np.ndarray:
    """h_{ij} = eps_i eps_j y_i y_j / q(Y)^2 - eps_i delta_ij / (2 q(Y))."""
    ey = eps * y
    return np.outer(ey, ey) / q_y ** 2 - np.diag(eps) / (2.0 * q_y)


def metric_det(n: int, q_y: float) -> float:
    """det h_{ij} = 2^-n q(Y)^-n."""
    return (2.0 * q_y) ** (-n)


# ---------------------------------------------------------------------------
# sampling helpers (seeded, used by the verification suites)


def sample_point(frame: WittFrame, rng: np.random.Generator) -> DomainPoint:
    """A random point of the fixed component with q(Y) bounded away from 0:
    y1 in [0.8, 2.5] and |y_j / y1| at most 0.55 for j > 1."""
    n = frame.n
    x = rng.uniform(-2.0, 2.0, n)
    y = np.zeros(n)
    y[0] = rng.uniform(0.8, 2.5)
    if n > 1:
        rest = rng.uniform(-1.0, 1.0, n - 1)
        norm = np.sqrt(np.sum(rest ** 2))
        if norm > 1e-12:
            radius = 0.55 * rng.uniform(0.1, 1.0)
            rest = rest / max(norm, 1.0) * radius
        y[1:] = rest * y[0]
    return DomainPoint(frame, x + 1j * y)


def sample_vector(frame: WittFrame, rng: np.random.Generator) -> Vec:
    """A random nonzero integral lattice vector with entries in -3..3."""
    d = frame.lattice.dim
    while True:
        v = rng.integers(-3, 4, d)
        if np.any(v):
            return as_vec([int(a) for a in v])
