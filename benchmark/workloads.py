"""Workloads of the orthoforms benchmark.

Each workload is a list of operations built from a seed.  An operation is
one or more public library calls on generated inputs; its output is
reduced to named values, checked against the identity the matching
verification suite uses where one exists, and compared with the output
frozen in ``reference/<workload>.json``.

* ``series``: truncated norm-class sums (``eval_omega``, ``eval_Omega``)
  at pinned points, over a bound ladder B, 2B.
* ``collar``: the ``tube_limit`` and ``current_eq`` suite calls (cycle
  integral, collar boundary integrals over the eps schedule, shell Stokes).
* ``fiber``: the ``restrict`` suite's circle-fiber restrictions, in both
  sectors, over its eps ladder.
* ``pointwise``: single-point identity operations at fresh seeded
  (point, lambda) pairs.

Library functions are looked up through their modules at call time, so a
traced run sees the tracer's wrappers.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from orthoforms import calculus, cycles, domain, kernels, quadratic, series, special

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("series", "collar", "fiber", "pointwise")
RANKS = {"series": (2, 3), "collar": (2,), "fiber": (2,),
         "pointwise": (1, 2, 3, 4)}

# series: kappa as in the series suite; bound ladders B, 2B per rank, chosen
# so that n = 2 at B and n = 3 at 2B cost about the same (about 0.1 s here):
# a pass then holds a cheap, a middle and an expensive group in the ratio
# 1:2:1, and the median operation falls inside the middle group rather than
# between two groups of different cost.  The bounds are small enough for a
# run to hold about 150 operations, so that its median and quartiles rest on
# many samples.  The points are the pinned point of the series suite and
# three X-translates of it, which keep q(Y) and therefore the enumeration
# cost (within about 1 %) unchanged
SERIES_KAPPA = 4
SERIES_BOUNDS = {2: (12.0, 24.0), 3: (4.0, 8.0)}
SERIES_SHIFTS = ((0.0, 0.0), (0.37, -0.21), (-0.44, 0.12), (0.21, 0.33))

# collar and fiber: the cycle data of the tube_limit, current_eq and restrict
# suites
MU = (0, 0, 1, 1)
NU = (0, 0, -1, 1)
COLLAR_EPS = (0.1, 0.05, 0.025)
FIBER_KAPPA = 4
FIBER_DEC_EPS = tuple(float(e) for e in np.geomspace(1e-3, 1e-1, 5))

# pointwise: operations per pass, and how many leading operations of the default and held-out seeds are
# frozen
POINTWISE_KINDS = ("xi", "laplace", "slash", "act")
POINTWISE_CHUNK = 50
POINTWISE_FROZEN = 200

# passes per traced run: a fixed amount of work, so counts repeat exactly
TRACE_PASSES = {"series": 4, "collar": 1, "fiber": 4, "pointwise": 40}


def setup(name: str) -> dict:
    """Lattices, frames, groups, charts and collar-limit constants of a
    workload: what a command-line call builds before its first operation."""
    ctx: dict[str, Any] = {"ranks": {}}
    for n in RANKS[name]:
        lattice, cfg, group = quadratic.lattice_from_config(
            quadratic.standard_lattice(n))
        frame = domain.WittFrame.build(lattice, cfg["e"], cfg["e_prime"])
        ctx["ranks"][n] = (lattice, frame, group)
    ctx["limit"] = {kappa: special.limit_constant(2, kappa) for kappa in (3, 4)}
    if name == "collar":
        ctx["chart"] = cycles.CycleChart.create(
            ctx["ranks"][2][1], MU, [(0.9, 1.9), (-0.5, 0.5)], [8, 8],
            collar_nodes=8)
    elif name == "fiber":
        ctx["chart"] = cycles.CycleChart.create(
            ctx["ranks"][2][1], NU, [(-0.4, 0.4), (0.8, 1.6)], [4, 4])
    return ctx


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass
class Op:
    """One operation.

    run(count) makes the library calls; count(fn, suffix) wraps a callable
    the operation passes into the library so that a traced run can count
    its calls.  observe reduces the output to JSON values; oracle returns
    the violations of the suite identity the output must satisfy; tol maps
    each observed field to (tolerance, scale floor) for the comparison with
    the frozen output, tolerance 0 meaning exact equality.
    """

    key: str
    label: str
    inputs: dict
    run: Callable[[Callable], Any]
    observe: Callable[[Any], dict]
    tol: dict[str, tuple[float, float]]
    oracle: Callable[[Any], list[str]] = lambda raw: []


def _digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _make_op(label: str, inputs: dict, **kwargs) -> Op:
    return Op(_digest(inputs), label, inputs, **kwargs)


def _c(value) -> list:
    """Complex scalar or array as nested [re, im] lists."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [_c(v) for v in arr]


def _as_complex(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)


def compare(observed: dict, frozen: dict,
            tol: dict[str, tuple[float, float]]) -> list[str]:
    """Violations of the frozen output: |value - frozen| must stay within
    tolerance * max(floor, |frozen|), or match exactly at tolerance 0."""
    errors = []
    for name, (tolerance, floor) in tol.items():
        if name not in frozen or name not in observed:
            errors.append(f"{name}: missing")
            continue
        if tolerance == 0:
            if observed[name] != frozen[name]:
                errors.append(f"{name}: {observed[name]} != frozen "
                              f"{frozen[name]}")
            continue
        got, ref = _as_complex(observed[name]), _as_complex(frozen[name])
        if got.shape != ref.shape:
            errors.append(f"{name}: shape {got.shape} != {ref.shape}")
            continue
        dev = float(np.max(np.abs(got - ref), initial=0.0))
        scale = max(floor, float(np.max(np.abs(ref), initial=0.0)))
        if not dev <= tolerance * scale:
            errors.append(f"{name}: deviation {dev:.3e} exceeds "
                          f"{tolerance:.1e} x {scale:.3e}")
    return errors


# ---------------------------------------------------------------------------
# series


def series_point(n: int, shift: tuple[float, float]) -> np.ndarray:
    z = np.full(n, 0.17 + 0.29j, dtype=complex)
    z[0] = 0.31 + 1.27j
    z[0] += shift[0]
    z[1:] += shift[1]
    return z


def _series_op(ctx: dict, n: int, shift_index: int, m: int, bound: float,
               kind: str) -> Op:
    lattice, frame, group = ctx["ranks"][n]
    z = series_point(n, SERIES_SHIFTS[shift_index])
    point = domain.DomainPoint(frame, z)
    spec = series.SeriesSpec.create(frame, [0] * lattice.dim, Fraction(m),
                                    SERIES_KAPPA, bound, group)
    inputs = {"workload": "series", "kind": kind, "n": n, "m": m,
              "kappa": SERIES_KAPPA, "bound": bound, "z": _c(z)}

    def run(count):
        fn = series.eval_omega if kind == "omega" else series.eval_Omega
        return fn(spec, point)

    def observe(res):
        return {"value": _c(res.value), "tail": float(res.tail),
                "count": int(res.count)}

    return _make_op(f"{kind} n={n} m={m:+d} B={bound:g} z#{shift_index}",
                    inputs, run=run, observe=observe,
                    tol={"count": (0, 0.0), "value": (1e-9, 1.0),
                         "tail": (1e-9, 1.0)})


def series_ops(ctx: dict, shifts: dict[int, int]) -> list[Op]:
    """Both ranks, the bound ladder and both kernels, for m = +1 and then
    m = -1 (the two halves enumerate the same number of candidates);
    cheapest first within each half."""
    return [_series_op(ctx, n, shifts[n], m, SERIES_BOUNDS[n][step], kind)
            for m in (1, -1) for step in (0, 1) for n in (3, 2)
            for kind in ("omega", "Omega")]


def series_shifts(seed: int) -> dict[int, int]:
    """The pinned point each rank uses under a seed."""
    rng = np.random.default_rng([seed, 0])
    picks = rng.integers(len(SERIES_SHIFTS), size=2)
    return {2: int(picks[0]), 3: int(picks[1])}


# ---------------------------------------------------------------------------
# collar


def collar_kappa(seed: int) -> int:
    """The tube_limit suite weight a seed runs (both cost the same)."""
    return (3, 4)[int(np.random.default_rng([seed, 2]).integers(2))]


def collar_ops(ctx: dict, kappas: tuple[int, ...]) -> list[Op]:
    """The tube_limit suite calls at the given weights, then the current_eq
    suite's shell Stokes call."""
    chart = ctx["chart"]
    frame = chart.frame
    fc = frame.frame_coords(MU)
    bump = cycles.WindowBump(chart)
    ops = []

    def value_only(res):
        return {"value": _c(res)}

    # the tube_limit check compares these at 1e-3; here relative to the
    # frozen value rather than absolute
    tube_tol = {"value": (1e-3, 0.0)}
    for kappa in kappas:
        inputs = {"workload": "collar", "call": "cycle_integral_C",
                  "kappa": kappa, "target": 1e-9}
        ops.append(_make_op(
            f"cycle_integral_C kappa={kappa}", inputs,
            run=lambda count, kappa=kappa: cycles.cycle_integral_C(
                MU, count(bump, "h_evals"), kappa, chart, target=1e-9),
            observe=value_only, tol=tube_tol))
    for kappa in kappas:
        field = (lambda kappa: lambda pt: kernels.p_tilde_components(
            fc, kappa, pt))(kappa)
        for eps in COLLAR_EPS:
            inputs = {"workload": "collar", "call": "tube_boundary_integral",
                      "kappa": kappa, "eps": eps, "target": 1e-4}
            ops.append(_make_op(
                f"tube_boundary_integral kappa={kappa} eps={eps}", inputs,
                run=lambda count, eps=eps, field=field:
                    cycles.tube_boundary_integral(
                        MU, bump, count(field, "form_evals"), eps, chart,
                        target=1e-4),
                observe=value_only, tol=tube_tol))

    shell_kappa = frame.n + 2
    p_field = lambda pt: kernels.p_tilde_components(fc, shell_kappa, pt)
    dbar_coeff = lambda pt: kernels.dbar_image_reference(fc, shell_kappa, pt)

    def shell_observe(res):
        scale = max(abs(res["outer"]), abs(res["volume"]), 1e-3)
        return {key: _c(res[key]) for key in ("outer", "inner", "volume")} | {
            "scaled_residual": float(abs(res["residual"]) / scale)}

    def shell_oracle(res):
        worst = shell_observe(res)["scaled_residual"]
        return [] if worst <= 5e-6 else [
            f"stokes residual {worst:.3e} exceeds 5e-6"]

    inputs = {"workload": "collar", "call": "shell_stokes",
              "kappa": shell_kappa, "eps_pair": [0.05, 0.1],
              "boundary_target": 1e-3}
    ops.append(_make_op(
        f"shell_stokes kappa={shell_kappa}", inputs,
        run=lambda count: cycles.shell_stokes(
            chart, bump, count(p_field, "form_evals"), dbar_coeff,
            (0.05, 0.1), boundary_target=1e-3),
        observe=shell_observe, oracle=shell_oracle,
        # the current_eq check's tolerance, on its scale
        tol={key: (5e-6, 1e-3) for key in ("outer", "inner", "volume")}))
    return ops


# ---------------------------------------------------------------------------
# fiber


def _h_res(pt):
    z = pt.z
    return np.array([0.0j, z[1] ** (FIBER_KAPPA - 1) * (1.0 + z[0] ** 2)])


def _h_dec(pt):
    z = pt.z
    k = FIBER_KAPPA
    return np.array([z[1] ** k + z[0] * z[1] ** k,
                     z[1] ** (k + 1) + z[1] ** (k + 2) * np.conj(z[1])])


def fiber_ops(ctx: dict) -> list[Op]:
    chart = ctx["chart"]
    ops = []
    # the restrict suite's tolerance, with its max(1, |ref|) scale
    tol = {"value": (1e-10, 1.0), "extrapolated": (1e-10, 1.0)}

    def observe(samples):
        return {"value": _c([s.value for s in samples]),
                "extrapolated": _c([s.extrapolated for s in samples]),
                "max_slot": float(max(np.max(np.abs(s.all_slots))
                                      for s in samples))}

    def residue_oracle(samples):
        worst = 0.0
        for s in samples:
            z1 = complex(s.params[0], s.params[1])
            exact = (1.0 + z1 ** 2) * 2j * math.pi / 2 ** FIBER_KAPPA
            worst = max(worst, abs(s.extrapolated - exact)
                        / max(1.0, abs(exact)))
        return [] if worst <= 1e-10 else [
            f"residue oracle deviation {worst:.3e} exceeds 1e-10"]

    inputs = {"workload": "fiber", "field": "residue", "sector": "holomorphic",
              "kappa": FIBER_KAPPA, "eps": 0.05}
    ops.append(_make_op(
        "restrict_samples holomorphic eps=0.05", inputs,
        run=lambda count: cycles.restrict_samples(
            NU, count(_h_res, "fiber_samples"), FIBER_KAPPA, 0.05, chart),
        observe=observe, oracle=residue_oracle, tol=tol))

    def vanishing_oracle(samples):
        worst = max(abs(s.extrapolated) for s in samples)
        return [] if worst <= 1e-6 else [
            f"extrapolated restriction {worst:.3e} exceeds 1e-6"]

    for i, eps in enumerate(FIBER_DEC_EPS):
        inputs = {"workload": "fiber", "field": "decaying",
                  "sector": "conjugate", "kappa": FIBER_KAPPA, "eps": eps}
        ops.append(_make_op(
            f"restrict_samples conjugate eps={eps:.4g}", inputs,
            run=lambda count, eps=eps: cycles.restrict_samples(
                NU, count(_h_dec, "fiber_samples"), FIBER_KAPPA, eps, chart,
                sector="conjugate"),
            observe=observe,
            oracle=vanishing_oracle if i == 0 else (lambda raw: []),
            tol=tol | {"max_slot": (1e-10, 1.0)}))
    return ops


# ---------------------------------------------------------------------------
# pointwise


def _sample_z(n: int, rng: np.random.Generator) -> np.ndarray:
    """A point of the fixed component with q(Y) bounded away from 0."""
    x = rng.uniform(-2.0, 2.0, n)
    y = np.zeros(n)
    y[0] = rng.uniform(0.8, 2.5)
    if n > 1:
        rest = rng.uniform(-1.0, 1.0, n - 1)
        norm = float(np.sqrt(np.sum(rest ** 2)))
        if norm > 1e-12:
            rest = rest / max(norm, 1.0) * 0.55 * rng.uniform(0.1, 1.0)
        y[1:] = rest * y[0]
    return x + 1j * y


def _off_cycle(frame, lattice, lam, point, margin: float = 0.05) -> bool:
    """The kernel suite's sampling rule: q(lambda) != 0 and the point stays
    away from both singular loci of the kernels of lambda."""
    if lattice.q(lam) == 0:
        return False
    fc = frame.frame_coords(lam)
    q_plus, q_minus = domain.q_plus_minus(frame, fc, point)
    return (abs(q_minus) > margin and q_plus > margin
            and abs(point.pair_bar(fc)) > 0.3)


def _pointwise_op(ctx: dict, rng: np.random.Generator) -> Op:
    kind = POINTWISE_KINDS[int(rng.integers(len(POINTWISE_KINDS)))]
    n = int(rng.integers(1, 5))
    lattice, frame, group = ctx["ranks"][n]
    gens = list(group)
    kappa = n + 2
    while True:
        z = _sample_z(n, rng)
        lam = tuple(int(a) for a in rng.integers(-3, 4, lattice.dim))
        gen = int(rng.integers(len(gens)))
        point = domain.DomainPoint(frame, z)
        if not any(lam) or not _off_cycle(frame, lattice, lam, point):
            continue
        if kind != "slash":
            break
        # the slash identity also evaluates the kernel of gamma^-1 lambda
        back = gens[gen].inverse().apply(lam)
        if _off_cycle(frame, lattice, back, point):
            break
    gamma = gens[gen]
    fc = frame.frame_coords(lam)
    inputs = {"workload": "pointwise", "kind": kind, "n": n, "kappa": kappa,
              "z": _c(z), "lambda": list(lam), "generator": gen}
    label = f"{kind} n={n}"

    def field(pt):
        return kernels.p_tilde_components(fc, kappa, pt)

    def fresh_point():
        return domain.DomainPoint(frame, z)

    if kind == "xi":
        def run(count):
            return calculus.xi_top(field, kappa, fresh_point())

        def oracle(val):
            ref = kernels.xi_image_reference(fc, kappa, point)
            dev = abs(val - ref) / max(1e-6, abs(ref))
            return [] if dev <= 1e-6 else [f"xi identity {dev:.3e} > 1e-6"]

        tol = {"value": (1e-6, 1e-6)}
        observe = lambda val: {"value": _c(val)}
    elif kind == "laplace":
        def run(count):
            return calculus.laplace_scalar(calculus.ratio_field(fc), 1,
                                           fresh_point())

        def oracle(val):
            ref = 0.5 * n * calculus.ratio_field(fc).value(point)
            dev = abs(val - ref) / max(1.0, abs(ref))
            return [] if dev <= 1e-5 else [f"eigenvalue {dev:.3e} > 1e-5"]

        tol = {"value": (1e-5, 1.0)}
        observe = lambda val: {"value": _c(val)}
    elif kind == "slash":
        def run(count):
            return kernels.form_slash(gamma, field, -kappa, fresh_point())

        def oracle(val):
            left = kernels.p_tilde_components(frame.frame_coords(back),
                                              kappa, point)
            dev = (float(np.max(np.abs(left - val)))
                   / max(1.0, float(np.max(np.abs(left)))))
            return [] if dev <= 1e-6 else [f"slash {dev:.3e} > 1e-6"]

        tol = {"value": (1e-6, 1.0)}
        observe = lambda val: {"value": _c(val)}
    else:
        def run(count):
            moved, j = domain.act(frame, gamma, fresh_point())
            return moved, j, gamma.inverse().apply(lam)

        def oracle(res):
            moved, j, image = res
            lhs = moved.pair(fc) * j
            dev = (abs(lhs - point.pair(frame.frame_coords(image)))
                   / max(1.0, abs(lhs)))
            return [] if dev <= 1e-10 else [f"equivariance {dev:.3e} > 1e-10"]

        def observe(res):
            moved, j, image = res
            return {"z": _c(moved.z), "j": _c(j),
                    "image": [str(Fraction(a)) for a in image]}

        tol = {"z": (1e-10, 1.0), "j": (1e-10, 1.0), "image": (0, 0.0)}
    return _make_op(label, inputs, run=run, observe=observe, tol=tol,
                    oracle=oracle)


def pointwise_stream(ctx: dict, seed: int) -> Iterator[Op]:
    rng = np.random.default_rng([seed, 3])
    while True:
        yield _pointwise_op(ctx, rng)


# ---------------------------------------------------------------------------
# assembling a workload


class Workload:
    """The seeded operation schedule of one workload.

    series, collar and fiber cycle through fixed groups of operations of
    equal cost, reshuffled by the seed each time; the seed also picks the
    series points and the collar weight, again of equal cost, so every
    seed's pass costs the same work.  pointwise draws fresh operations from
    the seed in chunks.
    """

    def __init__(self, name: str, seed: int, ctx: dict | None = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.ctx = ctx if ctx is not None else setup(name)
        if name == "series":
            ops = series_ops(self.ctx, series_shifts(seed))
            self.groups = [ops[:8], ops[8:]]
        elif name == "collar":
            self.groups = [collar_ops(self.ctx, (collar_kappa(seed),))]
        elif name == "fiber":
            ops = fiber_ops(self.ctx)
            self.groups = [ops[:3], ops[3:]]
        else:
            self.groups = []
        self.pool = [op for group in self.groups for op in group]

    def passes(self) -> Iterator[list[Op]]:
        if self.name == "pointwise":
            stream = pointwise_stream(self.ctx, self.seed)
            while True:
                yield [next(stream) for _ in range(POINTWISE_CHUNK)]
        rng = np.random.default_rng([self.seed, 1])
        while True:
            for group in self.groups:
                yield [group[i] for i in rng.permutation(len(group))]

    def smoke_ops(self, count: int) -> list[Op]:
        """The first operations in canonical order (cheapest first)."""
        if self.name == "pointwise":
            stream = pointwise_stream(self.ctx, self.seed)
            return [next(stream) for _ in range(count)]
        return self.pool[:count]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)["entries"]
