"""Check that this checkout computes the benchmark outputs of another one.

    python3 tools/same_outputs.py PARENT_CHECKOUT

Runs the operation lists that ``benchmark/freeze.py`` freezes (series,
collar, fiber) and the first 600 ``pointwise`` operations of seeds 1, 2
and 3 in both checkouts, each checkout in its own subprocess with its own
``src/`` and ``benchmark/``, and compares every operation's observed output
as JSON text, so two floats compare equal only when their bits do.  Then
runs ``orthoforms verify <suite> --json`` at the default configuration for
each of the nine suites, and ``verify duality`` on the settled cycle data
of ``tests/test_cli.py`` (its config written to a temporary directory), in
both checkouts, one process each, and compares the stdout bytes and the
exit codes (``tube_limit`` and ``duality`` exit 1 by design, in both).
Last, runs the point evaluators the same way and compares their stdout
bytes and exit codes: ``eval-kernel --json`` for each ``--kind`` and
``eval-series --form --json`` at an integral norm, at n = 1..4.  Prints
one line per workload, per report and per evaluator run and exits 1 when
any output differs.  Nothing is written to either checkout (no frozen files, no
bytecode).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series", "collar", "fiber", "pointwise")
POINTWISE_SEEDS = (1, 2, 3)
POINTWISE_OPS = 600
SUITES = ("geometry", "metric", "identities", "kernel", "constants", "series",
          "restrict", "tube_limit", "current_eq")
DUALITY = {"mu": [0, 0, 1, 1], "nu": [0, 0, -1, 1],
           "window_C": [[0.9, 1.9], [0.2, 0.6]],
           "window_T": [[-0.4, 0.4], [0.8, 1.6]], "kappa": 4,
           "nodes": [16, 16], "nodes_T": [4, 4]}
# the point evaluators at n = 1..4: a point of the fixed component and a
# vector of nonzero norm off the kernels' singular loci, at weight n + 2
POINTS = {1: "0.3+1.2j", 2: "0.3+1.2j,0.1+0.2j",
          3: "0.3+1.2j,0.1+0.2j,-0.2+0.1j",
          4: "0.3+1.2j,0.1+0.2j,-0.2+0.1j,0.05-0.3j"}
VECTORS = {1: "1,2,1", 2: "1,2,1,1", 3: "1,2,1,1,0", 4: "1,2,1,1,0,-1"}
EVALUATORS = tuple(
    run for n in POINTS for run in [
        *((f"eval-kernel n={n} {kind}",
           ["eval-kernel", "--n", str(n), "--kind", kind, "--lam",
            VECTORS[n], "--kappa", str(n + 2), "--z", POINTS[n], "--json"])
          for kind in ("omega", "p", "ptilde")),
        (f"eval-series n={n} --form",
         ["eval-series", "--n", str(n), "--m", "1", "--kappa", str(n + 2),
          "--bound", "12", "--z", POINTS[n], "--form", "--json"])])
SHOWN = 3

# run in a checkout: the orthoforms command line on that checkout's src/
CLI = ("import sys; sys.path[:0] = ['src']; from orthoforms.cli import main; "
       "sys.exit(main())")

# run in a checkout: print {workload: {op key: observed output}} as JSON
PROBE = """
import json, sys, traceback
sys.path[:0] = ["src", "benchmark"]
import workloads
from freeze import frozen_ops

def ops(name):
    if name != "pointwise":
        return frozen_ops(workloads, name)
    ctx = workloads.setup(name)
    return [op for seed in {seeds!r}
            for op in workloads.Workload(name, seed, ctx).smoke_ops({count})]

out = {{}}
for name in {names!r}:
    seen = out[name] = {{}}
    for op in ops(name):
        try:
            seen[op.key] = op.observe(op.run(lambda fn, suffix: fn))
        except Exception as exc:
            seen[op.key] = {{"raised": traceback.format_exception_only(exc)}}
print(json.dumps(out, sort_keys=True))
"""


def observe(checkout: Path) -> dict:
    code = PROBE.format(names=WORKLOADS, seeds=POINTWISE_SEEDS,
                        count=POINTWISE_OPS)
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=checkout,
                          capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"{checkout}: probe failed\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(checkout: Path, argv: list[str]) -> tuple[bytes, int]:
    """The stdout bytes and exit code of ``orthoforms <argv>`` run in a
    checkout."""
    done = subprocess.run([sys.executable, "-B", "-c", CLI, *argv],
                          cwd=checkout, capture_output=True, check=False)
    return done.stdout, done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path,
                        help="root of the checkout to compare against")
    args = parser.parse_args(argv)
    ours = observe(ROOT)
    theirs = observe(args.parent.resolve())
    same = True
    for name in WORKLOADS:
        mine, base = ours[name], theirs[name]
        differ = sorted(key for key in mine.keys() | base.keys()
                        if json.dumps(mine.get(key), sort_keys=True)
                        != json.dumps(base.get(key), sort_keys=True))
        if differ:
            same = False
            print(f"{name}: {len(differ)} of {len(base)} operations differ "
                  f"(first: {', '.join(differ[:SHOWN])})")
        else:
            print(f"{name}: all {len(base)} operations identical")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "duality.json"
        config.write_text(json.dumps({"suite": "duality", "duality": DUALITY}))
        runs = [(f"verify {suite}", "report", ["verify", suite, "--json"])
                for suite in SUITES]
        runs.append(("verify duality", "report",
                     ["verify", "--config", str(config), "--json"]))
        runs += [(label, "output", command) for label, command in EVALUATORS]
        for label, what, command in runs:
            (out, code), (base_out, base_code) = (
                report(ROOT, command), report(args.parent.resolve(), command))
            if (out, code) == (base_out, base_code):
                print(f"{label}: {what} identical, exit {code}")
            else:
                same = False
                print(f"{label}: {what} "
                      f"{'identical' if out == base_out else 'differs'}, "
                      f"exit {code} against {base_code}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
