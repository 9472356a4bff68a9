"""Verification suites producing deterministic check records.

Each suite turns one family of identities into a list of records holding the
measured value, the independent reference, both error measures, and a
pass/fail verdict.  Records never raise on numerical failure; a failed
identity is a failed record.  All sampling is driven by a seeded PCG64
generator, every loop runs in a fixed order, and no record contains
wall-clock data, so a report for a fixed configuration is byte-identical
across runs.

Every check scores its deviation by one rule: |value - reference| over
max(floor, |scale|), a max-norm over arrays, where the floor is 1 and the
scale is the reference unless the check names others.  So ``rel_err`` is
relative for references above 1 and absolute below.  Each tolerance is the
constant written beside its check.  A sweep check records the worst scaled
deviation over its samples as ``value`` against ``reference`` 0, so its
``abs_err`` equals its ``rel_err``; its note counts the samples skipped as
kernel-singular, and a sweep with none evaluated fails with deviation
infinity.  Records flagged ``diagnostic`` do not count toward the exit
status.

The ``lattice`` config block selects the lattice for the single-lattice
suites (series, tube_limit, restrict, current_eq, duality); the sweep suites
(geometry, metric, identities, kernel) iterate the standard family over
``n_values``.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .calculus import (
    dbar_top, laplace_scalar, measure_factor, pair_bar_dbar, q_y_dbar,
    ratio_dbar, ratio_field, richardson, star_nn1, star_pair, xi_top,
)
from .cycles import (
    CycleChart, CycleError, QuadratureError, WindowBump, cycle_integral_C,
    cycle_integral_T, restrict_samples, shell_stokes, tube_boundary_integral,
)
from .domain import (
    DomainPoint, WittFrame, act, metric_det, metric_lower, metric_upper,
    q_plus_minus, sample_point, sample_vector,
)
from .kernels import (
    KernelSingularity, dbar_image_reference, form_slash, omega_kernel,
    p_tilde_components, xi_image_reference,
)
from .quadratic import lattice_from_config, standard_lattice, vec_float
from .series import (
    SeriesSpec, eval_Omega_class, eval_omega, modularity_check,
    sum_Omega,
)
from .special import limit_constant, radial_integral

__all__ = [
    "CheckRecord", "ConfigError", "RunConfig", "RunParams", "Report",
    "SUITES", "load_frame", "parse_config", "run",
]


class ConfigError(ValueError):
    """A configuration problem, naming the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    inputs_digest: str
    value: object
    reference: object
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    diagnostic: bool = False
    note: str = ""

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "inputs_digest": self.inputs_digest,
            "value": _serialize(self.value),
            "reference": _serialize(self.reference),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "diagnostic": self.diagnostic,
            "note": self.note,
        }


def _serialize(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _magnitude(x) -> float:
    """|x|, the max-norm for arrays."""
    if isinstance(x, np.ndarray):
        return float(np.max(np.abs(x)))
    return abs(x)  # np.abs of a complex scalar can differ in the last bit


def _error(value, reference, scale=None, floor: float = 1.0) -> tuple:
    """The error rule of every check: (|value - reference|, that deviation
    divided by max(floor, |scale|)); the scale defaults to the reference."""
    abs_err = _magnitude(value - reference)
    scale = reference if scale is None else scale
    return abs_err, abs_err / max(floor, _magnitude(scale))


def _record(check_id: str, anchor: str, inputs: dict, value, reference,
            tolerance: float, diagnostic: bool = False, note: str = "",
            scale=None, floor: float = 1.0) -> CheckRecord:
    abs_err, rel_err = _error(value, reference, scale, floor)
    return CheckRecord(check_id, anchor, _digest(inputs), value, reference,
                       float(abs_err), float(rel_err), float(tolerance),
                       bool(rel_err <= tolerance), diagnostic, note)


class _Sweep:
    """The worst scaled deviation of one check over a sample sweep.  ``add``
    scores a sample (``scale`` defaults to the reference; ``scale=0`` makes
    the deviation absolute) and ``skip`` counts a kernel-singular one."""

    def __init__(self, floor: float = 1.0):
        self.floor = floor
        self.worst = 0.0
        self.evaluated = self.skipped = 0

    def add(self, value, reference, scale=None) -> None:
        self.evaluated += 1
        _, dev = _error(value, reference, scale, self.floor)
        if math.isnan(dev) or dev > self.worst:  # a NaN sample sticks
            self.worst = dev

    def skip(self) -> None:
        self.skipped += 1

    def record(self, check_id: str, anchor: str, inputs: dict,
               tolerance: float, unit: str = "points") -> CheckRecord:
        note = ""
        if self.skipped:
            note = (f"{self.skipped} of {self.evaluated + self.skipped} "
                    f"{unit} skipped: kernel singular")
        worst = self.worst if self.evaluated else math.inf
        return _record(check_id, anchor, inputs, worst, 0.0, tolerance,
                       note=note)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunParams:
    n_values: tuple[int, ...] = (1, 2, 3, 4)
    kappa_values: tuple[int, ...] = (3, 4)
    samples: int = 20
    eps_schedule: tuple[float, ...] = (0.1, 0.05, 0.025)
    bound: float = 12.0
    seed: int = 20240811


@dataclass(frozen=True)
class RunConfig:
    suite: str
    lattice: dict = field(default_factory=lambda: {"standard": 2})
    params: RunParams = field(default_factory=RunParams)
    output: str | None = None
    extra: dict = field(default_factory=dict)


def _integer(raw) -> int:
    """An integral config number; a fractional one is refused, not cut."""
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(raw)


def parse_params(data: dict) -> RunParams:
    kinds = {f.name: f.type for f in fields(RunParams)}  # annotation text
    kwargs = {}
    for key, raw in data.items():
        if key not in kinds:
            raise ConfigError(f"parameters.{key}", "unknown parameter")
        one = _integer if "int" in kinds[key] else float
        try:
            kwargs[key] = (tuple(one(v) for v in raw)
                           if kinds[key].startswith("tuple") else one(raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"parameters.{key}", str(exc)) from exc
    params = RunParams(**kwargs)
    if params.samples < 0:
        raise ConfigError("parameters.samples", "must be >= 0")
    if not 0 < params.bound < math.inf:
        raise ConfigError("parameters.bound", "must be positive and finite")
    if any(n < 1 or n > 4 for n in params.n_values):
        raise ConfigError("parameters.n_values", "entries must be in 1..4")
    if params.seed < 0 or params.seed >= 2 ** 64:
        raise ConfigError("parameters.seed", "must fit in u64")
    return params


def check_config_fields(data: dict) -> None:
    """Reject the first top-level field that is not a RunConfig field."""
    for key in data:
        if key not in ("suite", "lattice", "parameters", "output", "duality"):
            raise ConfigError(key, "unknown field")


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    check_config_fields(data)
    suite = data.get("suite")
    if suite is None:
        raise ConfigError("suite", "missing")
    if suite not in SUITES:
        raise ConfigError("suite",
                          f"unknown suite {suite!r}; expected one of "
                          f"{sorted(SUITES)}")
    lattice = data.get("lattice", {"standard": 2})
    _check_lattice_block(lattice)
    params = parse_params(data.get("parameters", {}))
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", "must be a path string")
    extra = {}
    if "duality" in data:
        if not isinstance(data["duality"], dict):
            raise ConfigError("duality", "must be a mapping")
        for key in data["duality"]:
            if key not in _DUALITY_KEYS:
                raise ConfigError(f"duality.{key}", "unknown field")
        extra["duality"] = data["duality"]
    return RunConfig(suite=suite, lattice=lattice, params=params,
                     output=output, extra=extra)


# ---------------------------------------------------------------------------
# shared context


_LATTICE_KEYS = ("gram", "e", "e_prime", "k_basis", "group_generators")
# the first five are required
_DUALITY_KEYS = ("mu", "nu", "window_C", "window_T", "kappa", "eps", "nodes",
                 "nodes_T")


def _check_lattice_block(cfg) -> None:
    """Accept {"standard": n} alone, for an integral n >= 1, or explicit
    data with the required gram, e, e_prime and the optional k_basis,
    group_generators."""
    if not isinstance(cfg, dict):
        raise ConfigError("lattice", "must be a mapping")
    known = ("standard",) if "standard" in cfg else _LATTICE_KEYS
    for key in cfg:
        if key not in known:
            raise ConfigError(f"lattice.{key}", "unknown field")
    for key in known[:3]:  # standard, or gram, e and e_prime
        if key not in cfg:
            raise ConfigError(f"lattice.{key}", "missing")
    rank = cfg.get("standard", 1)
    if type(rank) not in (int, float) or rank % 1 or rank < 1:
        raise ConfigError("lattice.standard", "must be an integer >= 1")


def load_frame(cfg) -> tuple:
    """(lattice, frame, group) of a lattice config block."""
    _check_lattice_block(cfg)
    lattice, data, group = lattice_from_config(cfg)
    return lattice, WittFrame.build(lattice, data["e"], data["e_prime"]), group


class SuiteContext:
    def __init__(self, config: RunConfig):
        self.config = config
        self.params = config.params
        self.rng = np.random.default_rng(config.params.seed)
        self._frames: dict[int, tuple] = {}

    def standard(self, n: int):
        """(lattice, frame, group) for the standard signature (2, n) family."""
        if n not in self._frames:
            self._frames[n] = load_frame(standard_lattice(n))
        return self._frames[n]


# ---------------------------------------------------------------------------
# geometry suite


def suite_geometry(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    if p.samples == 0:
        return out
    for n in p.n_values:
        lattice, frame, group = ctx.standard(n)
        inputs = {"n": n, "samples": p.samples, "seed": p.seed}
        sweeps = {anchor: _Sweep() for anchor in (
            "psi-null", "psi-conjugate-pairing", "psi-real-imaginary-norms",
            "pairing-equivariance", "imaginary-norm-automorphy")}
        pairs = [(gamma, gamma.inverse()) for gamma in group]
        for _ in range(p.samples):
            point = sample_point(frame, ctx.rng)
            lam = sample_vector(frame, ctx.rng)
            psi = point.psi
            g = frame.gram_float
            sweeps["psi-null"].add(psi @ g @ psi / 2.0, 0.0)
            sweeps["psi-conjugate-pairing"].add(
                psi @ g @ np.conj(psi), 4.0 * point.q_y, scale=0.0)
            for part in (point.psi_x, point.psi_y):
                sweeps["psi-real-imaginary-norms"].add(
                    float(part @ g @ part) / 2.0, point.q_y, scale=0.0)
            fc = frame.frame_coords(lam)
            for gamma, inverse in pairs:
                moved, j = act(frame, gamma, point)
                back = frame.frame_coords(inverse.apply(lam))
                sweeps["pairing-equivariance"].add(point.pair(back),
                                                   moved.pair(fc) * j)
                sweeps["imaginary-norm-automorphy"].add(
                    moved.q_y * abs(j) ** 2, point.q_y, scale=0.0)
        for anchor, sweep in sweeps.items():
            out.append(sweep.record(f"geometry/{anchor}/n{n}", anchor,
                                    inputs, 1e-10))
    return out


# ---------------------------------------------------------------------------
# metric suite


def suite_metric(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    if p.samples == 0:
        return out
    for n in p.n_values:
        _, frame, _ = ctx.standard(n)
        inputs = {"n": n, "samples": p.samples, "seed": p.seed}
        inverse, volume = _Sweep(), _Sweep()
        eye = np.eye(n)
        for _ in range(p.samples):
            point = sample_point(frame, ctx.rng)
            up = metric_upper(frame.eps, point.y, point.q_y)
            low = metric_lower(frame.eps, point.y, point.q_y)
            inverse.add(up @ low, eye, scale=0.0)
            volume.add(np.linalg.det(low) / metric_det(n, point.q_y), 1.0)
        out.append(inverse.record(f"metric/metric-inverse/n{n}",
                                  "metric-inverse", inputs, 1e-10))
        out.append(volume.record(f"metric/metric-volume/n{n}",
                                 "metric-volume", inputs, 1e-10))
    return out


# ---------------------------------------------------------------------------
# identity battery suite


def suite_identities(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    if p.samples == 0:
        return out
    for n in p.n_values:
        lattice, frame, _ = ctx.standard(n)
        inputs = {"n": n, "samples": p.samples, "seed": p.seed}
        sweeps = {anchor: _Sweep() for anchor in (
            "gradient-pairing-i", "gradient-pairing-ii",
            "gradient-pairing-iii", "ratio-gradient-norm",
            "gradient-recombination")}
        for _ in range(p.samples):
            point = sample_point(frame, ctx.rng)
            lam = sample_vector(frame, ctx.rng)
            fc = frame.frame_coords(lam)
            eps, y, qy = frame.eps, point.y, point.q_y
            g = lattice.gram_float()
            lamf = vec_float(lam)
            pair = point.pair(fc)
            lpx = float(lamf @ g @ point.psi_x)
            lpy = float(lamf @ g @ point.psi_y)
            lam_ep = float(fc[1])
            q_lam = float(lattice.q(lam))
            f_pb = pair_bar_dbar(fc, point)
            f_qy = q_y_dbar(point)
            f_u = ratio_dbar(fc, point, point.pair_bar(fc))

            val_i = star_pair(f_pb, f_pb, eps, y, qy)
            ref_i = 2.0 * lpy ** 2 - 4.0 * qy * q_lam + 4.0 * lpx * qy * lam_ep
            sweeps["gradient-pairing-i"].add(val_i, ref_i)

            val_ii = star_pair(f_qy, f_qy, eps, y, qy)
            sweeps["gradient-pairing-ii"].add(val_ii, qy ** 2)

            val_iii = -2.0 * (pair * star_pair(f_pb, f_qy, eps, y, qy)
                              / qy).real
            ref_iii = -2.0 * lpy ** 2 - 4.0 * lpx * qy * lam_ep
            sweeps["gradient-pairing-iii"].add(val_iii, ref_iii)

            _, q_minus = q_plus_minus(frame, fc, point)
            val_iv = star_pair(f_u, f_u, eps, y, qy)
            ref_iv = -4.0 * q_minus / qy
            sweeps["ratio-gradient-norm"].add(val_iv, ref_iv)

            recombined = (ref_i + abs(pair) ** 2 + ref_iii) / qy ** 2
            sweeps["gradient-recombination"].add(recombined, ref_iv)
        for anchor, sweep in sweeps.items():
            out.append(sweep.record(f"identities/{anchor}/n{n}", anchor,
                                    inputs, 1e-9))
    return out


# ---------------------------------------------------------------------------
# kernel suite


def _offcycle_sample(frame, rng, sign=0):
    """A (point, lam) pair bounded away from both kernel singular loci:
    |q_minus| and q_plus above 0.05, |(lambda, psi(Zbar))| above 0.3.

    sign > 0 (< 0) forces a positive-norm (negative-norm) vector; sign == 0
    accepts any nonzero norm.
    """
    for _ in range(500):
        point, lam = sample_point(frame, rng), sample_vector(frame, rng)
        fc = frame.frame_coords(lam)
        q_lam = float(frame.lattice.q(lam))
        if q_lam == 0.0 or q_lam * sign < 0:
            continue
        q_plus, q_minus = q_plus_minus(frame, fc, point)
        if (abs(q_minus) > 0.05 and q_plus > 0.05
                and abs(point.pair_bar(fc)) > 0.3):
            return point, lam, fc
    raise RuntimeError("sampler failed to leave the singular loci")


def suite_kernel(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    if p.samples == 0:
        return out
    points = max(1, p.samples // 4)
    for n in p.n_values:
        lattice, frame, group = ctx.standard(n)
        inputs = {"n": n, "samples": points, "seed": p.seed}

        lap = _Sweep()
        for _ in range(points):
            point, lam, fc = _offcycle_sample(frame, ctx.rng)
            u = ratio_field(fc)
            lap.add(laplace_scalar(u, 1, point), 0.5 * n * u.value(point))
        out.append(lap.record(f"kernel/laplace-eigenvalue/n{n}",
                              "laplace-eigenvalue", inputs, 1e-5))

        dbar_dev, homog = _Sweep(), _Sweep()
        kappa = n + 2
        for _ in range(points):
            point, lam, fc = _offcycle_sample(frame, ctx.rng)
            field_fn = lambda pt: p_tilde_components(fc, kappa, pt)
            try:
                top = dbar_top(field_fn, point)
                scaled = p_tilde_components(3.0 * fc, kappa, point)
                base = p_tilde_components(fc, kappa, point)
            except KernelSingularity:
                dbar_dev.skip()
                homog.skip()
                continue
            dbar_dev.add(top, dbar_image_reference(fc, kappa, point))
            homog.add(scaled, 3.0 ** (-kappa) * base, scale=base)
        out.append(dbar_dev.record(f"kernel/dbar-coefficient/n{n}",
                                   "dbar-coefficient", inputs, 1e-5))
        out.append(homog.record(f"kernel/kernel-homogeneity/n{n}",
                                "kernel-homogeneity", inputs, 1e-9))

        if n in (2, 4):
            for kappa in p.kappa_values:
                if kappa <= n:
                    continue
                for sign, tag in ((+1, "pos"), (-1, "neg")):
                    pre = _Sweep(floor=1e-6)
                    ins = dict(inputs, kappa=kappa, sign=tag)
                    for _ in range(points):
                        point, lam, fc = _offcycle_sample(frame, ctx.rng,
                                                          sign)
                        field_fn = lambda pt: p_tilde_components(fc, kappa,
                                                                 pt)
                        try:
                            val = xi_top(field_fn, kappa, point)
                        except KernelSingularity:
                            pre.skip()
                            continue
                        pre.add(val, xi_image_reference(fc, kappa, point))
                    out.append(pre.record(
                        f"kernel/xi-preimage/n{n}-kappa{kappa}-{tag}",
                        "xi-preimage", ins, 1e-6))

        slash = _Sweep()
        kappa = n + 2
        pairs = [(gamma, gamma.inverse()) for gamma in (group[0], group[-1])]
        for _ in range(points):
            point, lam, fc = _offcycle_sample(frame, ctx.rng)
            for gamma, inverse in pairs:
                fc_back = frame.frame_coords(inverse.apply(lam))
                try:
                    left = p_tilde_components(fc_back, kappa, point)
                    right = form_slash(
                        gamma, lambda pt: p_tilde_components(fc, kappa, pt),
                        -kappa, point)
                except KernelSingularity:
                    slash.skip()
                    continue
                slash.add(right, left)
        out.append(slash.record(f"kernel/slash-equivariance/n{n}",
                                "slash-equivariance", inputs, 1e-6,
                                unit="(point, generator) pairs"))
    return out


# ---------------------------------------------------------------------------
# constants suite


def _trapezoid_radial(n: int) -> float:
    r = np.linspace(0.0, 1.0, 200001)
    f = r ** (n - 2) * (r * r + 1.0) ** (-n / 2.0)
    return float(np.trapezoid(f, r))


def suite_constants(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    closed = {2: math.pi / 4.0, 3: 1.0 - 1.0 / math.sqrt(2.0),
              4: math.pi / 8.0 - 0.25}
    for n, ref in closed.items():
        out.append(_record(f"constants/radial-integral/n{n}",
                           "radial-integral", {"n": n}, radial_integral(n),
                           ref, 1e-10))
    for kappa in (3, 4, 5):
        ref = -math.pi / (2.0 * 4.0 ** kappa * (kappa - 1.0))
        val = limit_constant(2, kappa)
        out.append(_record(f"constants/limit-constant/n2-kappa{kappa}",
                           "limit-constant", {"n": 2, "kappa": kappa},
                           complex(val), complex(ref), 1e-10))
    for kappa in (5, 6):
        # independently assembled: gamma prefactor x (n - 1) x area of the
        # unit 2-sphere x a dense-trapezoid radial integral
        pref = (math.gamma(kappa - 1.0) * math.gamma(2.0)
                / (4.0 ** kappa * (kappa - 2.0) * math.gamma(kappa)))
        oracle = complex(pref * 3.0 * (4.0 * math.pi) * _trapezoid_radial(4))
        val = limit_constant(4, kappa)
        out.append(_record(f"constants/limit-constant/n4-kappa{kappa}",
                           "limit-constant", {"n": 4, "kappa": kappa},
                           complex(val), oracle, 1e-9))
    return out


# ---------------------------------------------------------------------------
# series suite


def _series_point(frame, n):
    z = np.full(n, 0.17 + 0.29j, dtype=complex)
    z[0] = 0.31 + 1.27j
    return DomainPoint(frame, z)


def suite_series(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    kappa = 4
    for n in (1, 2):
        if n not in p.n_values:
            continue
        lattice, frame, group = ctx.standard(n)
        point = _series_point(frame, n)
        coset = tuple(Fraction(0) for _ in range(lattice.dim))
        for m in (1, 2):
            ins = {"n": n, "m": m, "kappa": kappa, "bound": p.bound,
                   "seed": p.seed}
            spec = SeriesSpec.create(frame, coset, Fraction(m), kappa,
                                     p.bound, group)
            wide = spec.rescale(2.0 * p.bound)
            r1 = eval_omega(spec, point)
            r2 = eval_omega(wide, point)
            out.append(_record(
                f"series/series-doubling/n{n}-m{m}", "series-doubling", ins,
                complex(r2.value), complex(r1.value),
                max(1e-12, 2.0 * r1.tail)))
            r1b = eval_omega(spec, point)
            out.append(_record(
                f"series/series-determinism/n{n}-m{m}", "series-determinism",
                ins, abs(r1b.value - r1.value) + abs(r1b.tail - r1.tail)
                + abs(r1b.count - r1.count), 0.0, 0.0))
            for idx, gamma in enumerate(group):
                defect, far = modularity_check(spec, r1, point, gamma)
                tol = r1.tail + far.tail + 1e-12
                out.append(_record(
                    f"series/series-modularity/n{n}-m{m}-g{idx}",
                    "series-modularity", dict(ins, generator=idx), defect,
                    0.0, tol))
            try:
                form_res, found = eval_Omega_class(spec, point)
                vectors = found.vectors()
                field_fn = lambda pt: sum_Omega(frame, vectors, kappa, pt)
                xi_val = xi_top(field_fn, kappa, point)
                tol = r1.tail + form_res.tail + 1e-5
                out.append(_record(
                    f"series/series-xi-compatibility/n{n}-m{m}",
                    "series-xi-compatibility", ins, complex(xi_val),
                    complex(r1.value), tol))
            except KernelSingularity as exc:
                out.append(_record(
                    f"series/series-xi-compatibility/n{n}-m{m}",
                    "series-xi-compatibility", ins, math.inf, 0.0, 1e-5,
                    note=f"singular term: {exc}"))
    return out


# ---------------------------------------------------------------------------
# tube limit suite


def _collar_chart(frame: WittFrame) -> CycleChart:
    """The collar suites' chart of (0, 0, 1) or (0, 0, 1, 1), n <= 2."""
    n = frame.n
    mu = (0, 0, 1) if n == 1 else (0, 0, 1, 1)
    if frame.lattice.q(mu) <= 0:
        raise ConfigError("lattice", "expected a positive-norm model vector")
    window = [(0.9, 1.9)] + [(-0.5, 0.5)] * (n - 1)
    return CycleChart.create(frame, mu, window, [8] * n, collar_nodes=8)


def suite_tube_limit(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    if not p.eps_schedule or not all(0 < e < 1 for e in p.eps_schedule):
        raise ConfigError("parameters.eps_schedule", "need radii in (0, 1)")
    if not p.kappa_values or min(p.kappa_values) <= 2:
        raise ConfigError("parameters.kappa_values", "need weights kappa > 2")
    _, frame, _ = load_frame(ctx.config.lattice)
    if frame.n != 2:
        raise ConfigError("lattice", "tube_limit needs a rank (2, 2) lattice")
    chart = _collar_chart(frame)
    mu = chart.vector
    h = WindowBump(chart)
    fc = frame.frame_coords(mu)
    for kappa in p.kappa_values:
        H = lambda pt, kappa=kappa: p_tilde_components(fc, kappa, pt)
        ins = {"kappa": kappa, "eps": list(p.eps_schedule), "seed": p.seed}
        delta = cycle_integral_C(mu, h, kappa, chart, target=1e-9)
        c_lim = limit_constant(2, kappa)
        values = []
        target = 1e-4
        # eps -> the unconfirmed node doubling whose fine value is used
        unsettled: dict[float, QuadratureError] = {}
        for eps in p.eps_schedule:
            try:
                values.append(tube_boundary_integral(mu, h, H, eps, chart,
                                                     target=target))
            except QuadratureError as exc:
                values.append(complex(exc.fine))
                unsettled[eps] = exc
        extrapolated = (richardson(values[-2], values[-1])
                        if len(values) >= 2 else values[-1])

        def unconfirmed(eps) -> str:
            exc = unsettled[eps]
            return (f"quadrature unconfirmed at eps={eps}: coarse = "
                    f"{complex(exc.coarse)}, fine = {complex(exc.fine)} (fine "
                    f"value used)")

        def noted(text: str, at) -> str:
            return text + "".join(f"; {unconfirmed(e)}" for e in at
                                  if e in unsettled)

        stated = -c_lim * delta
        out.append(_record(
            f"tube_limit/printed-constant/kappa{kappa}",
            "tube-limit-printed-constant", ins, complex(extrapolated),
            complex(stated), 1e-3,
            note=noted("boundary integral vs minus the printed constant "
                       "times the windowed density", p.eps_schedule[-2:])))
        out.append(_record(
            f"tube_limit/doubled-constant/kappa{kappa}",
            "tube-limit-doubled-constant", ins, complex(extrapolated),
            complex(2.0 * stated), 1e-3, diagnostic=True,
            note=noted("both collar face families carry equal limiting flux; "
                       "the observed limit is twice the printed constant",
                       p.eps_schedule[-2:])))
        for eps, val in zip(p.eps_schedule, values):
            out.append(_record(
                f"tube_limit/curve/kappa{kappa}-eps{eps}",
                "tube-limit-curve", dict(ins, at=eps), complex(val),
                complex(2.0 * stated), 1.0, diagnostic=True,
                note=noted("convergence curve sample", [eps])))
        for eps, exc in unsettled.items():
            fine = complex(exc.fine)
            _, gap = _error(fine, complex(exc.coarse), fine, floor=1e-14)
            out.append(_record(
                f"tube_limit/quadrature-gap/kappa{kappa}-eps{eps}",
                "tube-limit-quadrature-gap", dict(ins, at=eps), gap, 0.0,
                target, diagnostic=True, note=unconfirmed(eps)))
    return out


# ---------------------------------------------------------------------------
# restriction suite


def suite_restrict(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    lattice, frame, _ = load_frame(ctx.config.lattice)
    if frame.n != 2:
        raise ConfigError("lattice", "restrict needs a rank (2, 2) lattice")
    nu = (0, 0, -1, 1)
    kappa = 4
    chart = CycleChart.create(frame, nu, [(-0.4, 0.4), (0.8, 1.6)], [4, 4])
    ins = {"kappa": kappa, "seed": p.seed}

    def H_res(pt):
        z = pt.z
        return np.array([0.0j, z[1] ** (kappa - 1) * (1.0 + z[0] ** 2)])

    residue = _Sweep()
    for s in restrict_samples(nu, H_res, kappa, 0.05, chart):
        z1 = complex(s.params[0], s.params[1])
        residue.add(s.extrapolated,
                    (1.0 + z1 ** 2) * 2j * math.pi / 2 ** kappa)
    out.append(residue.record("restrict/residue-oracle", "restriction-residue",
                              ins, 1e-10))

    def H_dec(pt):
        z = pt.z
        return np.array([z[1] ** kappa + z[0] * z[1] ** kappa,
                         z[1] ** (kappa + 1)
                         + z[1] ** (kappa + 2) * np.conj(z[1])])

    eps_list = [float(e) for e in np.geomspace(1e-3, 1e-1, 5)]
    mags = []
    extr = None
    for i, eps in enumerate(eps_list):
        ss = restrict_samples(nu, H_dec, kappa, eps, chart,
                              sector="conjugate")
        mags.append(max(float(np.max(np.abs(s.all_slots))) for s in ss))
        if i == 0:
            extr = max(abs(s.extrapolated) for s in ss)
    slope = float(np.polyfit(np.log(eps_list), np.log(mags), 1)[0])
    out.append(_record("restrict/decay-slope", "restriction-decay-slope",
                       dict(ins, eps=eps_list), max(0.0, 0.9 - slope), 0.0,
                       0.0, note=f"fitted log-log slope {slope:.6f}"))
    out.append(_record("restrict/extrapolated-vanishing",
                       "restriction-extrapolation", ins, extr, 0.0, 1e-6))
    for eps, mag in zip(eps_list, mags):
        out.append(_record(f"restrict/curve/eps{eps:.6g}",
                           "restriction-curve", dict(ins, at=eps), mag, 0.0,
                           1.0, diagnostic=True,
                           note="convergence curve sample"))
    return out


# ---------------------------------------------------------------------------
# current equation suite


def suite_current_eq(ctx: SuiteContext) -> list[CheckRecord]:
    out = []
    p = ctx.params
    _, frame, _ = load_frame(ctx.config.lattice)
    n = frame.n
    if n > 2:
        raise ConfigError("lattice", "current_eq needs rank (2, 1) or (2, 2)")
    kappa = n + 2
    chart = _collar_chart(frame)
    h = WindowBump(chart)
    fc = frame.frame_coords(chart.vector)
    p_field = lambda pt: p_tilde_components(fc, kappa, pt)
    dbar_coeff = lambda pt: dbar_image_reference(fc, kappa, pt)
    ins = {"n": n, "kappa": kappa, "seed": p.seed}
    try:
        shell = shell_stokes(chart, h, p_field, dbar_coeff, (0.05, 0.1),
                             boundary_target=1e-3)
        _, residual = _error(shell["residual"], 0.0,
                             max(abs(shell["outer"]), abs(shell["volume"])),
                             floor=1e-3)
        out.append(_record("current_eq/stokes-shell-residual",
                           "stokes-shell-residual", ins, residual, 0.0, 5e-6))
    except QuadratureError as exc:
        out.append(_record("current_eq/stokes-shell-residual",
                           "stokes-shell-residual", ins, math.inf, 0.0, 5e-6,
                           note=str(exc)))

    rng = np.random.default_rng(p.seed)
    bridge = _Sweep()
    eps_vec = frame.eps
    for _ in range(5):
        y = np.abs(rng.normal(size=n)) * 0.3
        y[0] = 1.0 + abs(rng.normal())
        q_y = float(eps_vec @ (y * y))
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        G = rng.normal(size=n) + 1j * rng.normal(size=n)
        direct = -measure_factor(n, q_y) * complex(f @ G)
        bridge.add(star_pair(f, star_nn1(G, eps_vec, y, q_y), eps_vec, y, q_y),
                   direct)
    out.append(bridge.record("current_eq/wedge-pairing-bridge",
                             "wedge-pairing-bridge", ins, 1e-10))
    return out


# ---------------------------------------------------------------------------
# duality suite (requires supplied cycle data)


def suite_duality(ctx: SuiteContext) -> list[CheckRecord]:
    data = ctx.config.extra.get("duality")
    if not data:
        raise ConfigError(
            "duality",
            "this suite needs supplied cycle data: mu, nu, window_C, "
            "window_T, nodes, kappa, eps")
    for key in _DUALITY_KEYS[:5]:
        if key not in data:
            raise ConfigError(f"duality.{key}", "missing")
    lattice, frame, _ = load_frame(ctx.config.lattice)
    n = frame.n

    def entry(key, parse, default=None):
        """duality.<key> read by parse, or default when absent; a value that
        parse refuses is a ConfigError naming the key."""
        try:
            return parse(data[key]) if key in data else default
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"duality.{key}", str(exc)) from exc

    def list_of(count, one):
        def parse(raw):
            if not isinstance(raw, (list, tuple)) or len(raw) != count:
                raise ValueError(f"must be a list of {count} entries")
            return tuple(one(v) for v in raw)
        return parse

    mu = entry("mu", list_of(lattice.dim, _integer))
    nu = entry("nu", list_of(lattice.dim, _integer))
    if not lattice.q(mu) > 0:
        raise ConfigError("duality.mu", "must have positive norm")
    if not lattice.q(nu) < 0:
        raise ConfigError("duality.nu", "must have negative norm")
    kappa = entry("kappa", _integer)
    if kappa <= n:
        raise ConfigError("duality.kappa", "must exceed n")
    eps = entry("eps", float, 0.05)
    if not 0 < eps < 1:
        raise ConfigError("duality.eps", "must lie in (0, 1)")
    axes_T = 2 * (n - 1)
    interval = list_of(2, float)
    window_C = entry("window_C", list_of(n, interval))
    window_T = entry("window_T", list_of(axes_T, interval))
    nodes = entry("nodes", list_of(n, _integer), (8,) * n)
    nodes_T = entry("nodes_T", list_of(axes_T, _integer), (8,) * axes_T)
    fc_mu = frame.frame_coords(mu)
    fc_nu = frame.frame_coords(nu)
    omega_mero = lambda pt: omega_kernel(fc_nu, kappa, pt)
    Omega_cusp = lambda pt: p_tilde_components(fc_mu, kappa, pt)
    ins = {"mu": list(mu), "nu": list(nu), "kappa": kappa, "eps": eps,
           "window_C": window_C, "window_T": window_T, "nodes": nodes,
           "nodes_T": nodes_T}
    try:
        chart_C = CycleChart.create(frame, mu, window_C, nodes)
        # refuses n = 1, where limit_constant is undefined
        chart_T = CycleChart.create(frame, nu, window_T, nodes_T)
        # tube_limit's limit_constant; chart_C's dZ carries j(gamma, Z')^-n
        lhs = limit_constant(n, kappa) * cycle_integral_C(
            mu, omega_mero, kappa, chart_C, target=1e-7)
        rhs = cycle_integral_T(nu, Omega_cusp, kappa, eps, chart_T,
                               target=1e-6)
    except CycleError as exc:
        # cycle data the charts or integrals refuse (a window, the rank)
        raise ConfigError("duality", str(exc)) from exc
    except QuadratureError as exc:
        return [_record("duality/cycle-density-pairing",
                        "cycle-density-duality", ins, math.inf, 0.0, 5e-2,
                        note=f"quadrature did not settle: {exc}")]
    # scale by the densities themselves: unmatched window data must not
    # slip through on account of both sides being small
    return [_record(
        "duality/cycle-density-pairing", "cycle-density-duality", ins,
        complex(lhs), complex(rhs), 5e-2,
        note="windowed density of the scalar kernel over the positive "
             "cycle vs the restriction density of the form kernel over "
             "the negative cycle; deviation scaled by the larger density",
        scale=max(abs(lhs), abs(rhs)), floor=1e-30)]


# ---------------------------------------------------------------------------
# the registry and runner


SUITES: dict[str, Callable[[SuiteContext], list[CheckRecord]]] = {
    "geometry": suite_geometry,
    "metric": suite_metric,
    "identities": suite_identities,
    "kernel": suite_kernel,
    "constants": suite_constants,
    "series": suite_series,
    "tube_limit": suite_tube_limit,
    "restrict": suite_restrict,
    "current_eq": suite_current_eq,
    "duality": suite_duality,
}


@dataclass(frozen=True)
class Report:
    header: dict
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records if not r.diagnostic)

    def to_lines(self) -> list[str]:
        lines = [json.dumps({"header": self.header}, sort_keys=True)]
        lines.extend(json.dumps(r.to_json(), sort_keys=True)
                     for r in self.records)
        return lines

    def render(self) -> str:
        return "\n".join(self.to_lines()) + "\n"

    def summary_table(self) -> str:
        rows = [f"{'check':52} {'rel_err':>12} {'tol':>9} verdict"]
        for r in self.records:
            verdict = "pass" if r.passed else "FAIL"
            if r.diagnostic:
                verdict = f"({verdict})"
            rows.append(f"{r.check_id:52} {r.rel_err:12.3e} "
                        f"{r.tolerance:9.1e} {verdict}")
        checked = [r for r in self.records if not r.diagnostic]
        good = sum(1 for r in checked if r.passed)
        rows.append(f"{good}/{len(checked)} checks passed"
                    f" ({len(self.records) - len(checked)} diagnostic)")
        return "\n".join(rows)

    def to_csv(self) -> str:
        rows = ["check_id,anchor,value,reference,abs_err,rel_err,tolerance,"
                "pass"]
        for r in self.records:
            val = _csv_number(r.value)
            ref = _csv_number(r.reference)
            rows.append(f"{r.check_id},{r.anchor},{val},{ref},"
                        f"{r.abs_err!r},{r.rel_err!r},{r.tolerance!r},"
                        f"{int(r.passed)}")
        return "\n".join(rows) + "\n"


def _csv_number(v) -> str:
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j".replace(" ", "")
    return repr(float(v))


def run(config: RunConfig) -> Report:
    ctx = SuiteContext(config)
    records = sorted(SUITES[config.suite](ctx), key=lambda r: r.check_id)
    header = {
        "tool": "orthoforms",
        "version": __version__,
        "suite": config.suite,
        "seed": config.params.seed,
        "rng": "numpy PCG64",
        "config_digest": _digest({
            "suite": config.suite,
            "lattice": config.lattice,
            "parameters": asdict(config.params),
            **config.extra,  # the duality block, when there is one
        }),
    }
    return Report(header, tuple(records))
