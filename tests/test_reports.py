"""Frozen reports: every default-config record of the fast suites, byte for
byte, failing records included (tube_limit's printed-constant comparison
fails by design).

Each file ``tests/data/reports/<suite>.ndjson`` is the report of
``orthoforms verify <suite> --json`` at the default configuration.  A change
that moves a record on purpose re-freezes the files with
``PYTHONPATH=src python tests/test_reports.py`` and lists the moved records
in CHANGES.md.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from orthoforms.suites import RunConfig, run

REPORTS = Path(__file__).parent / "data" / "reports"
SUITES = ("geometry", "metric", "identities", "kernel", "constants", "series",
          "restrict", "tube_limit", "current_eq")


@pytest.mark.parametrize("suite", SUITES)
def test_default_report_is_frozen(suite):
    frozen = (REPORTS / f"{suite}.ndjson").read_text()
    assert run(RunConfig(suite)).render() == frozen


if __name__ == "__main__":
    for suite in SUITES:
        (REPORTS / f"{suite}.ndjson").write_text(run(RunConfig(suite)).render())
