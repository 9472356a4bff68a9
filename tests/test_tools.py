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
    """The tool as a module, comparing the series workload, the series
    suite's report and the n = 1 ptilde and form-series evaluators only."""
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "WORKLOADS", ("series",))
    monkeypatch.setattr(tool, "SUITES", ("series",))
    monkeypatch.setattr(tool, "EVALUATORS", tuple(
        run for run in tool.EVALUATORS
        if run[0] in ("eval-kernel n=1 ptilde", "eval-series n=1 --form")))
    return tool


def test_evaluators_cover_every_kind_and_rank():
    """Each kernel kind and the form series run at n = 1..4, each at the
    rank's point and vector, with --json."""
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    labels = [label for label, _ in tool.EVALUATORS]
    assert labels == [f"{verb} n={n} {what}" for n in (1, 2, 3, 4)
                      for verb, what in [("eval-kernel", "omega"),
                                         ("eval-kernel", "p"),
                                         ("eval-kernel", "ptilde"),
                                         ("eval-series", "--form")]]
    for label, argv in tool.EVALUATORS:
        n = int(label.split()[1][2:])
        assert argv[:3] == [label.split()[0], "--n", str(n)]
        assert argv[-1] == "--json"
        assert tool.POINTS[n] in argv
        assert (tool.VECTORS[n] in argv) == argv[0].endswith("kernel")


def test_same_outputs_finds_identical_and_differing_outputs(
        tmp_path, same_outputs, capsys):
    """A checkout matches itself; a copy whose series sums are one ulp off
    differs in series operations, in the series report and in the form
    series' output, not in the duality report or the kernel's output, and
    the tool returns 1.  Neither run leaves a file in
    either checkout."""
    before = sorted(p.name for p in (ROOT / "benchmark").iterdir())
    assert same_outputs.main([str(ROOT)]) == 0
    assert capsys.readouterr().out.strip().splitlines() == [
        "series: all 64 operations identical",
        "verify series: report identical, exit 0",
        "verify duality: report identical, exit 1",
        "eval-kernel n=1 ptilde: output identical, exit 0",
        "eval-series n=1 --form: output identical, exit 0"]

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
    assert out.splitlines()[-4:] == [
        "verify series: report differs, exit 0 against 0",
        "verify duality: report identical, exit 1",
        "eval-kernel n=1 ptilde: output identical, exit 0",
        "eval-series n=1 --form: output differs, exit 0 against 0"]
    assert sorted(p.name for p in (ROOT / "benchmark").iterdir()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["benchmark", "src"]
    assert not (tmp_path / "benchmark" / "__pycache__").exists()


def test_same_outputs_compares_report_exit_codes(same_outputs, monkeypatch,
                                                  capsys):
    """A suite or evaluator whose output is the same bytes but whose exit
    code differs counts as different; equal bytes and codes count as
    identical.  The duality report runs on a config file outside both
    checkouts."""
    monkeypatch.setattr(same_outputs, "EVALUATORS",
                        same_outputs.EVALUATORS[:1])
    runs = iter([(b"{}\n", 1), (b"{}\n", 1), (b"{}\n", 1), (b"{}\n", 1),
                 (b"{}\n", 0), (b"{}\n", 0),
                 (b"{}\n", 0), (b"{}\n", 1), (b"{}\n", 1), (b"{}\n", 1),
                 (b"{}\n", 2), (b"{}\n", 0)])
    argvs = []

    def report(checkout, argv):
        argvs.append(argv)
        return next(runs)

    monkeypatch.setattr(same_outputs, "observe",
                        lambda checkout: {"series": {}})
    monkeypatch.setattr(same_outputs, "report", report)
    assert same_outputs.main([str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "verify series: report identical, exit 1",
        "verify duality: report identical, exit 1",
        "eval-kernel n=1 ptilde: output identical, exit 0"]
    assert same_outputs.main([str(ROOT)]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "verify series: report identical, exit 0 against 1",
        "verify duality: report identical, exit 1",
        "eval-kernel n=1 ptilde: output identical, exit 2 against 0"]
    assert argvs[0] == argvs[1] == ["verify", "series", "--json"]
    verb, flag, config, json_flag = argvs[2]
    assert (verb, flag, json_flag) == ("verify", "--config", "--json")
    assert ROOT not in Path(config).parents
    assert argvs[4] == argvs[5] == same_outputs.EVALUATORS[0][1]
