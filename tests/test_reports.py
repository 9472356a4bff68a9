"""Frozen reports: every default-config record of the fast suites, byte for
byte, failing records included (tube_limit's printed-constant comparison
fails by design), and the duality report on fixed cycle data.

Each file ``tests/data/reports/<suite>.ndjson`` is the report of
``orthoforms verify <suite> --json`` at the default configuration; for
``duality``, which needs supplied cycle data, at the settled cycle data of
``tests/test_cli.py`` (``DUALITY``), the one frozen report of the
circle-fiber path (``cycle_integral_T``).  A change that moves a record on
purpose re-freezes the files with ``PYTHONPATH=src python
tests/test_reports.py`` and lists the moved records in CHANGES.md.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from orthoforms.suites import RunConfig, run

REPORTS = Path(__file__).parent / "data" / "reports"
SUITES = ("geometry", "metric", "identities", "kernel", "constants", "series",
          "restrict", "tube_limit", "current_eq")
DUALITY = {"mu": [0, 0, 1, 1], "nu": [0, 0, -1, 1],
           "window_C": [[0.9, 1.9], [0.2, 0.6]],
           "window_T": [[-0.4, 0.4], [0.8, 1.6]], "kappa": 4,
           "nodes": [16, 16], "nodes_T": [4, 4]}
CONFIGS = {**{suite: RunConfig(suite) for suite in SUITES},
           "duality": RunConfig("duality", extra={"duality": DUALITY})}


@pytest.mark.parametrize("suite", CONFIGS)
def test_default_report_is_frozen(suite):
    frozen = (REPORTS / f"{suite}.ndjson").read_text()
    assert run(CONFIGS[suite]).render() == frozen


if __name__ == "__main__":
    for suite, config in CONFIGS.items():
        (REPORTS / f"{suite}.ndjson").write_text(run(config).render())
