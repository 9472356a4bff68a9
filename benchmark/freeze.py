"""Freeze the outputs of a workload's operations as its reference.

    python3 benchmark/freeze.py series collar fiber pointwise

series freezes every pinned point under every bound and kernel, and
collar both weights, so all seeds are covered; fiber freezes its single
pass; pointwise freezes the leading operations of the default and the
held-out seed.  The output goes to reference/<workload>.json.
"""
from __future__ import annotations

import json
import sys

from run import import_library


def frozen_ops(workloads, name: str) -> list:
    ctx = workloads.setup(name)
    if name == "series":
        return [op for shift in range(len(workloads.SERIES_SHIFTS))
                for op in workloads.series_ops(ctx, {2: shift, 3: shift})]
    if name == "collar":
        return workloads.collar_ops(ctx, (3, 4))
    if name == "pointwise":
        return [op for seed in (workloads.DEFAULT_SEED,
                                workloads.HELD_OUT_SEED)
                for op in workloads.Workload(name, seed, ctx).smoke_ops(
                    workloads.POINTWISE_FROZEN)]
    return workloads.Workload(name, workloads.DEFAULT_SEED, ctx).pool


def freeze(name: str) -> None:
    import workloads
    entries = {}
    for op in frozen_ops(workloads, name):
        raw = op.run(lambda fn, suffix: fn)
        violations = op.oracle(raw)
        if violations:
            raise SystemExit(f"{op.label}: {'; '.join(violations)}")
        entries[op.key] = {"label": op.label, "inputs": op.inputs,
                           "output": op.observe(raw)}
    head = {"workload": name, "default_seed": workloads.DEFAULT_SEED,
            "held_out_seed": workloads.HELD_OUT_SEED}
    # one entry per line keeps the file small and its diffs readable
    lines = [f" {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
             for key, entry in sorted(entries.items())]
    with open(workloads.reference_path(name), "w") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1] + ', "entries": {\n')
        fh.write(",\n".join(lines) + "\n}}\n")
    print(f"{name}: {len(entries)} operations frozen")


if __name__ == "__main__":
    import_library()
    for workload_name in sys.argv[1:]:
        freeze(workload_name)
