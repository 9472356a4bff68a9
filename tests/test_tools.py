"""tools/same_outputs.py: the bit-for-bit comparison of two checkouts'
benchmark outputs and verify reports."""
from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


@pytest.fixture
def same_outputs(monkeypatch):
    """The tool as a module, comparing the series workload and the series
    suite's report only."""
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "WORKLOADS", ("series",))
    monkeypatch.setattr(tool, "SUITES", ("series",))
    return tool


def test_same_outputs_finds_identical_and_differing_outputs(
        tmp_path, same_outputs, capsys):
    """A checkout matches itself; a copy whose series sums are one ulp off
    differs in series operations and in the series report, and the tool
    returns 1.  Neither run leaves a file in either checkout's benchmark
    directory."""
    before = sorted(p.name for p in (ROOT / "benchmark").iterdir())
    assert same_outputs.main([str(ROOT)]) == 0
    assert capsys.readouterr().out.strip().splitlines() == [
        "series: all 64 operations identical",
        "verify series: report identical, exit 0"]

    for part in ("src", "benchmark"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    series = tmp_path / "src" / "orthoforms" / "series.py"
    text = series.read_text()
    assert text.count("        total = s\n    return total\n") == 1
    series.write_text(text.replace(
        "        total = s\n    return total\n",
        "        total = s\n    return total * (1 + 2 ** -52)\n"))
    assert same_outputs.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("series: ") and " of 64 operations differ" in out
    assert out.splitlines()[-1] == "verify series: report differs, exit 0 " \
        "against 0"
    assert sorted(p.name for p in (ROOT / "benchmark").iterdir()) == before
    assert not (tmp_path / "benchmark" / "__pycache__").exists()


def test_same_outputs_compares_report_exit_codes(same_outputs, monkeypatch,
                                                  capsys):
    """A suite whose report is the same bytes but whose exit code differs
    counts as different; equal bytes and codes count as identical."""
    runs = iter([(b"{}\n", 1), (b"{}\n", 1), (b"{}\n", 0), (b"{}\n", 1)])
    monkeypatch.setattr(same_outputs, "observe",
                        lambda checkout: {"series": {}})
    monkeypatch.setattr(same_outputs, "report",
                        lambda checkout, suite: next(runs))
    assert same_outputs.main([str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "verify series: report identical, exit 1"
    assert same_outputs.main([str(ROOT)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "verify series: report identical, exit 0 against 1"
