"""Command line interface: verification suites and point evaluators.

``verify <suite>`` runs one named suite and reports machine-readable check
records (NDJSON) plus a human summary table; the exit status is 0 exactly
when every non-diagnostic check passes.  The evaluator subcommands
(``eval-kernel``, ``eval-series``, ``constant``) print single values, and
``tube-limit`` / ``restrict`` / ``duality`` are shortcuts for their suites
with CSV export of the convergence curves.

Configuration files are JSON with the fields of
:class:`orthoforms.suites.RunConfig`; unknown or ill-typed fields are
rejected with a message naming the field.  Reports for a fixed seed and
configuration are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import __version__
from .domain import BoundaryError, ComponentError, DomainPoint, WittFrame
from .kernels import omega_kernel, p_components, p_tilde_components
from .quadratic import LatticeError
from .series import SeriesError, SeriesSpec, eval_Omega, eval_omega
from .special import limit_constant
from .suites import (
    ConfigError, RunConfig, check_config_fields, load_frame, parse_config,
    run,
)

__all__ = ["main"]


def _read_config(path: str | None) -> dict:
    """The JSON object of a --config file, or {} without one."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("--config", f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("--config", f"{path} does not hold a JSON object")
    return data


def _load_config(path: str | None, suite: str | None,
                 seed: int | None, out: str | None) -> RunConfig:
    data = _read_config(path)
    if suite is not None:
        data["suite"] = suite
    if "suite" not in data:
        raise ConfigError("suite", "missing (give a suite name or a config)")
    if seed is not None:
        data.setdefault("parameters", {})["seed"] = seed
    if out is not None:
        data["output"] = out
    return parse_config(data)


def _emit_report(report, config, args) -> int:
    text = report.render()
    out_path = getattr(args, "out", None) or config.output
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    if getattr(args, "csv", None):
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    if args.json:
        sys.stdout.write(text)
    else:
        print(report.summary_table())
        if out_path:
            print(f"report written to {out_path}")
    return 0 if report.passed else 1


def _run_suite(args, suite: str | None = None,
               tweak=None) -> int:
    config = _load_config(args.config, suite, args.seed,
                          getattr(args, "out", None))
    if tweak is not None:
        config = tweak(config)
    report = run(config)
    return _emit_report(report, config, args)


def cmd_verify(args) -> int:
    return _run_suite(args, args.suite)


def cmd_tube_limit(args) -> int:
    def tweak(config: RunConfig) -> RunConfig:
        changes = {}
        if args.kappa is not None:
            changes["kappa_values"] = (args.kappa,)
        if args.eps is not None:
            changes["eps_schedule"] = tuple(args.eps)
        return replace(config, params=replace(config.params, **changes))
    return _run_suite(args, "tube_limit", tweak)


def cmd_restrict(args) -> int:
    return _run_suite(args, "restrict")


def cmd_duality(args) -> int:
    return _run_suite(args, "duality")


def _frame_from_args(args) -> tuple:
    data = _read_config(args.config)
    check_config_fields(data)
    return load_frame(data.get("lattice", {"standard": args.n}))


def _parse_vec(text: str, dim: int, name: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise ConfigError(name, f"expected {dim} comma-separated entries, "
                          f"got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(name, str(exc))


def _parse_point(text: str, frame: WittFrame) -> DomainPoint:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != frame.n:
        raise ConfigError("--z", f"expected {frame.n} comma-separated "
                          f"complex entries, got {len(parts)}")
    try:
        z = np.array([complex(p) for p in parts])
    except ValueError as exc:
        raise ConfigError("--z", str(exc))
    try:
        return DomainPoint(frame, z)
    except (ComponentError, BoundaryError) as exc:
        raise ConfigError("--z", str(exc))


def _print_value(payload: dict, args) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def _fmt_complex(c: complex):
    return [float(c.real), float(c.imag)]


def cmd_eval_kernel(args) -> int:
    lattice, frame, _ = _frame_from_args(args)
    lam = _parse_vec(args.lam, lattice.dim, "--lam")
    point = _parse_point(args.z, frame)
    fc = frame.frame_coords(lam)
    if args.kind == "ptilde":
        if 2 * args.kappa <= frame.n:
            raise ConfigError("--kappa", f"ptilde needs kappa > n/2 = "
                              f"{frame.n / 2}, got {args.kappa}")
        if lattice.q(lam) == 0:
            raise ConfigError("--lam", "ptilde needs q(lambda) != 0")
    try:
        if args.kind == "omega":
            value = omega_kernel(fc, args.kappa, point)
            payload = {"kind": "omega", "value": _fmt_complex(value)}
        elif args.kind == "p":
            comps = p_components(fc, point)
            payload = {"kind": "p",
                       "components": [_fmt_complex(c) for c in comps]}
        else:
            comps = p_tilde_components(fc, args.kappa, point)
            payload = {"kind": "ptilde",
                       "components": [_fmt_complex(c) for c in comps]}
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload.update({"kappa": args.kappa, "lam": [str(c) for c in lam]})
    _print_value(payload, args)
    return 0


def cmd_eval_series(args) -> int:
    lattice, frame, group = _frame_from_args(args)
    if args.coset is None:
        coset = tuple(Fraction(0) for _ in range(lattice.dim))
    else:
        coset = _parse_vec(args.coset, lattice.dim, "--coset")
    point = _parse_point(args.z, frame)
    try:
        spec = SeriesSpec.create(frame, coset, Fraction(args.m), args.kappa,
                                 args.bound, group)
    except SeriesError as exc:
        raise ConfigError(f"--{exc.field}", str(exc)) from exc
    try:
        scalar = eval_omega(spec, point)
        payload = {
            "value": _fmt_complex(scalar.value),
            "tail": scalar.tail,
            "count": scalar.count,
            "m": args.m, "kappa": args.kappa, "bound": args.bound,
        }
        if args.form:
            form = eval_Omega(spec, point)
            payload["form_components"] = [_fmt_complex(c)
                                          for c in form.value]
            payload["form_tail"] = form.tail
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_value(payload, args)
    return 0


def cmd_constant(args) -> int:
    try:
        value = limit_constant(args.n, args.kappa)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"n": args.n, "kappa": args.kappa,
               "value": _fmt_complex(complex(value))}
    _print_value(payload, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoforms",
        description="verification suites and evaluators for hermitian "
                    "symmetric domain kernels of orthogonal type")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="RNG seed (u64)")
        p.add_argument("--out", help="write the NDJSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the NDJSON report instead of the table")
        if csv:
            p.add_argument("--csv", help="write records as CSV here")

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", nargs="?",
                   help="suite name (or set it in the config)")
    common(p, csv=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tube-limit",
                       help="boundary integrals of shrinking tubes around "
                            "a positive-norm cycle")
    common(p, csv=True)
    p.add_argument("--kappa", type=int, help="restrict to one weight")
    p.add_argument("--eps", type=lambda s: [float(x) for x in s.split(",")],
                   help="comma-separated radius schedule")
    p.set_defaults(func=cmd_tube_limit)

    p = sub.add_parser("restrict",
                       help="circle-fiber restriction samples near a "
                            "negative-norm cycle")
    common(p, csv=True)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("duality",
                       help="pair the two cycle densities (needs supplied "
                            "cycle data in the config)")
    common(p)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("eval-kernel", help="evaluate a kernel at a point")
    p.add_argument("--n", type=int, default=2,
                   help="rank of the standard lattice (no --config)")
    p.add_argument("--config", help="JSON config with a lattice block")
    p.add_argument("--lam", required=True,
                   help="lattice vector, comma-separated")
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--z", required=True,
                   help="domain point, comma-separated complex numbers")
    p.add_argument("--kind", choices=["omega", "p", "ptilde"],
                   default="omega")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_kernel)

    p = sub.add_parser("eval-series",
                       help="evaluate the truncated norm-class series")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--config", help="JSON config with a lattice block")
    p.add_argument("--m", type=int, required=True,
                   help="norm class (positive cusp family, negative "
                        "meromorphic family)")
    p.add_argument("--coset", help="coset representative, comma-separated")
    p.add_argument("--kappa", type=int, default=4)
    p.add_argument("--bound", type=float, default=12.0)
    p.add_argument("--z", required=True)
    p.add_argument("--form", action="store_true",
                   help="also evaluate the form-valued series")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_series)

    p = sub.add_parser("constant",
                       help="the tube-limit constant for given (n, kappa)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constant)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LatticeError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
