"""Config parsing, report determinism, and exit-code contracts of the CLI."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from orthoforms import suites
from orthoforms.cli import main
from orthoforms.cycles import QuadratureError
from orthoforms.domain import DomainPoint, WittFrame
from orthoforms.kernels import KernelSingularity, p_components
from orthoforms.quadratic import lattice_from_config, standard_lattice
from orthoforms.special import limit_constant
from orthoforms.suites import (
    ConfigError, RunConfig, RunParams, parse_config, run,
)


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_unknown_top_level_field():
    with pytest.raises(ConfigError) as err:
        parse_config({"suite": "identities", "bogus": 1})
    assert err.value.field == "bogus"


def test_parse_config_unknown_parameter_named():
    with pytest.raises(ConfigError) as err:
        parse_config({"suite": "identities",
                      "parameters": {"not_a_knob": 3}})
    assert "not_a_knob" in err.value.field


def test_parse_config_unknown_suite():
    with pytest.raises(ConfigError) as err:
        parse_config({"suite": "nonsense"})
    assert err.value.field == "suite"
    assert "nonsense" in str(err.value)


def test_parse_config_bad_value_types():
    with pytest.raises(ConfigError) as err:
        parse_config({"suite": "identities",
                      "parameters": {"samples": "many"}})
    assert err.value.field == "parameters.samples"
    with pytest.raises(ConfigError) as err:
        parse_config({"suite": "identities",
                      "parameters": {"n_values": [7]}})
    assert err.value.field == "parameters.n_values"
    with pytest.raises(ConfigError) as err:
        parse_config({"suite": "identities", "output": 5})
    assert err.value.field == "output"


def test_parse_config_integral_floats_become_ints():
    params = parse_config({"suite": "identities", "parameters": {
        "n_values": [2.0], "samples": 4.0, "seed": 7}}).params
    assert params.n_values == (2,) and params.samples == 4
    assert all(type(v) is int for v in (*params.n_values, params.samples))


def test_parse_config_defaults():
    cfg = parse_config({"suite": "metric"})
    assert cfg.params.seed == RunParams().seed
    assert cfg.lattice == {"standard": 2}


# ---------------------------------------------------------------------------
# report invariants


def test_report_byte_identical_for_fixed_seed(tmp_path):
    cfg = _write_config(tmp_path, {
        "suite": "geometry", "parameters": {"samples": 6, "seed": 31}})
    out1, out2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_records_sorted_and_well_formed(tmp_path):
    cfg = _write_config(tmp_path, {
        "suite": "metric", "parameters": {"samples": 4}})
    out = tmp_path / "r.ndjson"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["suite"] == "metric"
    assert header["rng"] == "numpy PCG64"
    records = [json.loads(line) for line in lines[1:]]
    ids = [r["check_id"] for r in records]
    assert ids == sorted(ids)
    for r in records:
        assert set(r) >= {"check_id", "anchor", "inputs_digest", "value",
                          "reference", "abs_err", "rel_err", "tolerance",
                          "pass"}


def test_empty_identities_suite_passes_with_empty_report(tmp_path):
    cfg = _write_config(tmp_path, {
        "suite": "identities", "parameters": {"samples": 0}})
    out = tmp_path / "r.ndjson"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only, no records
    assert "header" in json.loads(lines[0])


def test_csv_export_shape(tmp_path):
    cfg = _write_config(tmp_path, {
        "suite": "identities", "parameters": {"samples": 3,
                                              "n_values": [1, 2]}})
    csv_path = tmp_path / "r.csv"
    assert main(["verify", "--config", cfg, "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("check_id,anchor,")
    assert len(rows) == 1 + 10  # 5 battery checks x 2 ranks
    assert all(row.count(",") == rows[0].count(",") for row in rows)


def test_constants_suite_record_matches_closed_form(tmp_path):
    report = run(RunConfig(suite="constants"))
    by_id = {r.check_id: r for r in report.records}
    rec = by_id["constants/limit-constant/n2-kappa3"]
    closed = -math.pi / (2.0 * 4.0 ** 3 * 2.0)
    assert rec.passed
    assert abs(rec.value - closed) < 1e-12
    assert report.passed


# ---------------------------------------------------------------------------
# exit codes


def test_bad_config_exits_2_naming_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "suite": "identities", "parameters": {"wrong": 1}})
    assert main(["verify", "--config", cfg]) == 2
    assert "parameters.wrong" in capsys.readouterr().err


@pytest.mark.parametrize("suite,block,field", [
    ("geometry", {"parameters": {"n_values": [2.5]}}, "parameters.n_values"),
    ("tube_limit", {"parameters": {"kappa_values": [3.5]}},
     "parameters.kappa_values"),
    ("metric", {"parameters": {"samples": 2.5}}, "parameters.samples"),
    ("metric", {"parameters": {"seed": 0.5}}, "parameters.seed"),
    ("metric", {"parameters": {"tolerance_scale": 1.0}},
     "parameters.tolerance_scale"),
    ("restrict", {"lattice": {"standard": 2, "bogus": 1,
                              "cosets": [[0, 0, 0, 0]]}}, "lattice.bogus"),
    ("geometry", {"lattice": {"standard": 2, "cosets": [[0, 0, 0, 0]]}},
     "lattice.cosets"),
    ("restrict", {"lattice": {"gram": [[0, 1], [1, 0]], "e": [1, 0]}},
     "lattice.e_prime"),
    ("geometry", {"lattice": {"standard": "two"}}, "lattice.standard"),
    ("geometry", {"lattice": {"standard": 2.5}}, "lattice.standard"),
    ("geometry", {"lattice": {"standard": 0}}, "lattice.standard"),
    ("geometry", {"lattice": {"standard": True}}, "lattice.standard"),
], ids=["n-fractional", "kappa-fractional", "samples-fractional",
        "seed-fractional", "tolerance-scale", "lattice-unknown",
        "lattice-cosets", "lattice-missing-key", "standard-string",
        "standard-fractional", "standard-zero", "standard-bool"])
def test_bad_config_field_exits_2(tmp_path, capsys, suite, block, field):
    cfg = _write_config(tmp_path, dict(block, suite=suite))
    assert main(["verify", "--config", cfg]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["-1", "0", '"inf"', "1e400"],
                         ids=["negative", "zero", "inf-string", "overflow"])
def test_series_bad_bound_exits_2_naming_it(tmp_path, capsys, bound):
    """A bound that is not positive and finite is a config error naming
    parameters.bound; 1e400 is read from the JSON text as inf."""
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "series", "parameters": {"bound": %s}}'
                    % bound)
    assert main(["verify", "--config", str(path)]) == 2
    assert "config field 'parameters.bound'" in capsys.readouterr().err


def test_generator_of_wrong_size_exits_2(tmp_path, capsys):
    """A 3x3 generator on the rank-4 lattice U + U is refused."""
    cfg = _write_config(tmp_path, {"suite": "restrict", "lattice": {
        "gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        "e": [1, 0, 0, 0], "e_prime": [0, 1, 0, 0],
        "k_basis": [[0, 0, 1, 0], [0, 0, 0, 1]],
        "group_generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}})
    assert main(["verify", "--config", cfg]) == 2
    assert "isometry of size 3 on rank 4" in capsys.readouterr().err


def test_missing_suite_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"parameters": {"samples": 2}})
    assert main(["verify", "--config", cfg]) == 2
    assert "suite" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["verify", "identities", "--config",
                 str(tmp_path / "missing.json")]) == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["eval-kernel", "--lam", "0,0,1,1", "--z", "0.3+1.2j,0.1+0.2j"],
    ["eval-series", "--m", "1", "--z", "0.3+1.2j,0.1+0.2j"],
], ids=["eval-kernel", "eval-series"])
@pytest.mark.parametrize("content,field", [
    (None, "--config"),
    ("{not json", "--config"),
    ("[1, 2]", "--config"),
    ('{"latice": {"standard": 3}, "bogus": 1}', "latice"),
    ('{"lattice": 3}', "lattice"),
    ('{"lattice": {"standard": 2, "bogus": 1}}', "lattice.bogus"),
    ('{"lattice": {"standard": "two"}}', "lattice.standard"),
    ('{"lattice": {"standard": 2.5}}', "lattice.standard"),
], ids=["missing", "invalid-json", "not-an-object", "unknown-field",
        "lattice-not-an-object", "lattice-unknown-key", "standard-string",
        "standard-fractional"])
def test_evaluator_bad_config_exits_2(tmp_path, capsys, command, content,
                                      field):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    assert main(command + ["--config", str(path)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def test_evaluator_config_reads_lattice_beside_run_fields(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"suite": "series",
                                   "lattice": {"standard": 3},
                                   "parameters": {"seed": 1}})
    # the configured rank-3 lattice has dimension 5, not the default 4
    assert main(["eval-kernel", "--config", cfg, "--lam", "0,0,1,1,0",
                 "--z", "0.3+1.2j,0.1+0.2j,0.05+0.1j", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "omega"


def test_tube_limit_notes_unconfirmed_quadrature(monkeypatch):
    """A boundary integral whose node doubling fails keeps its fine value,
    and every record built on it names eps and the coarse/fine pair."""
    def unconfirmed(mu, h, H, eps, chart, target):
        raise QuadratureError("tube boundary integral did not converge",
                              1.0 + 0j, 2.0 + eps * 1j)

    monkeypatch.setattr(suites, "tube_boundary_integral", unconfirmed)
    report = run(RunConfig(suite="tube_limit", params=RunParams(
        kappa_values=(3,), eps_schedule=(0.1, 0.05, 0.025))))
    records = {r.check_id: r for r in report.records}
    curve = records["tube_limit/curve/kappa3-eps0.05"]
    assert curve.value == 2.0 + 0.05j
    assert "eps=0.05:" in curve.note
    assert "coarse = (1+0j), fine = (2+0.05j)" in curve.note
    assert "eps=0.1:" not in curve.note
    for kind in ("printed-constant", "doubled-constant"):
        note = records[f"tube_limit/{kind}/kappa3"].note
        assert "eps=0.05:" in note and "eps=0.025:" in note
        assert "eps=0.1:" not in note
    # each substituted value leaves a diagnostic record of its doubling gap
    for eps in (0.1, 0.05, 0.025):
        gap = records[f"tube_limit/quadrature-gap/kappa3-eps{eps}"]
        fine = 2.0 + eps * 1j
        assert gap.diagnostic and not gap.passed
        assert gap.value == abs(fine - 1.0) / abs(fine)
        assert gap.tolerance == 1e-4
        assert f"eps={eps}:" in gap.note
    # a confirmed doubling leaves none
    monkeypatch.setattr(suites, "tube_boundary_integral",
                        lambda mu, h, H, eps, chart, target: 1.0 + 0j)
    report = run(RunConfig(suite="tube_limit", params=RunParams(
        kappa_values=(3,), eps_schedule=(0.1, 0.05, 0.025))))
    assert not any("quadrature-gap" in r.check_id for r in report.records)


@pytest.mark.parametrize("singular_every", [2, 1], ids=["some", "all"])
def test_kernel_suite_counts_skipped_slash_pairs(monkeypatch, singular_every):
    """Slash pairs skipped as singular are counted in the note, and the
    record fails when no pair was evaluated at all."""
    calls = []
    form_slash = suites.form_slash

    def sometimes_singular(gamma, vec_func, weight, point):
        calls.append(gamma)
        if len(calls) % singular_every == 0:
            raise KernelSingularity("forced", None, "test", 0.0)
        return form_slash(gamma, vec_func, weight, point)

    monkeypatch.setattr(suites, "form_slash", sometimes_singular)
    report = run(RunConfig(suite="kernel", params=RunParams(
        n_values=(1,), samples=8)))
    record = {r.check_id: r for r in report.records}[
        "kernel/slash-equivariance/n1"]
    skipped = 4 // singular_every
    assert record.note == (f"{skipped} of 4 (point, generator) pairs "
                           f"skipped: kernel singular")
    if singular_every == 1:
        assert record.value == math.inf and not record.passed
        assert not report.passed
    else:
        assert record.passed and report.passed


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_suite_reports_singular_pointwise_loops(tmp_path, capsys,
                                                       monkeypatch, n):
    """A kernel that is singular at every sample point gives a report, not
    a traceback: each pointwise record counts its skipped points and fails,
    and the run exits 1."""
    def singular(lam, kappa, point, rep="auto"):
        raise KernelSingularity("forced", lam, "test", 0.0)

    monkeypatch.setattr(suites, "p_tilde_components", singular)
    cfg = _write_config(tmp_path, {"suite": "kernel", "parameters": {
        "n_values": [n], "samples": 8}})
    assert main(["verify", "--config", cfg, "--json"]) == 1
    records = {r["check_id"]: r for r in map(
        json.loads, capsys.readouterr().out.splitlines()[1:])}
    pointwise = [f"kernel/dbar-coefficient/n{n}",
                 f"kernel/kernel-homogeneity/n{n}"]
    if n == 2:
        pointwise += [f"kernel/xi-preimage/n2-kappa{k}-{tag}"
                      for k in (3, 4) for tag in ("pos", "neg")]
    for check_id in pointwise:
        assert records[check_id]["note"] == (
            "2 of 2 points skipped: kernel singular")
        assert records[check_id]["value"] == math.inf
        assert not records[check_id]["pass"]
    assert records[f"kernel/laplace-eigenvalue/n{n}"]["pass"]


def test_metric_suite_catches_rescaled_metric(monkeypatch):
    """Scaling h^{ij} by 2 and h_{ij} by 1/2 keeps them inverse to each
    other, so only a determinant of h_{ij} against its closed form can
    catch it."""
    upper, lower = suites.metric_upper, suites.metric_lower
    monkeypatch.setattr(suites, "metric_upper",
                        lambda *args: 2.0 * upper(*args))
    monkeypatch.setattr(suites, "metric_lower",
                        lambda *args: 0.5 * lower(*args))
    report = run(RunConfig(suite="metric"))
    failed = {r.check_id for r in report.records if not r.passed}
    assert failed == {f"metric/metric-volume/n{n}" for n in (1, 2, 3, 4)}


def test_sweep_fails_on_a_nan_sample(monkeypatch):
    """A NaN deviation at one sample fails the sweep record instead of
    losing to the running maximum."""
    metric_det = suites.metric_det
    calls = []

    def nan_once(n, q_y):
        calls.append(n)
        return math.nan if len(calls) == 2 else metric_det(n, q_y)

    monkeypatch.setattr(suites, "metric_det", nan_once)
    report = run(RunConfig(suite="metric", params=RunParams(
        n_values=(2,), samples=3)))
    record = {r.check_id: r for r in report.records}["metric/metric-volume/n2"]
    assert math.isnan(record.value) and not record.passed
    assert not report.passed


def test_series_suite_evaluates_each_series_once(monkeypatch):
    """A default series run enumerates each (class, point) once per use:
    per (n, m) the bound B and 2B series, the determinism re-run, one
    series per generator image, and the form series, whose enumeration
    also gives the vector list of its xi check."""
    from orthoforms import series
    calls = []
    majorant_points = series.majorant_points

    def counted(*args):
        calls.append(args)
        return majorant_points(*args)

    monkeypatch.setattr(series, "majorant_points", counted)
    assert run(RunConfig(suite="series")).passed
    generators = sum(len(list(lattice_from_config(standard_lattice(n))[2]))
                     for n in (1, 2))
    assert len(calls) == 2 * (2 * 4 + generators) == 28


def test_geometry_suite_inverts_each_generator_once(monkeypatch):
    """A default geometry run inverts each generator once per rank, not
    once per sample."""
    from orthoforms.quadratic import Isometry
    calls = []
    inverse = Isometry.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Isometry, "inverse", counted)
    assert run(RunConfig(suite="geometry")).passed
    generators = [g for n in RunParams().n_values
                  for g in lattice_from_config(standard_lattice(n))[2]]
    assert calls == generators
    assert len(calls) == 20


def test_tube_limit_overrides_match_config_file(tmp_path, monkeypatch):
    """tube-limit --kappa/--eps build the config the equivalent file does."""
    seen = []

    def capture(config):
        seen.append(config)
        return suites.Report({}, ())

    monkeypatch.setattr("orthoforms.cli.run", capture)
    assert main(["tube-limit", "--kappa", "3", "--eps", "0.1,0.05"]) == 0
    cfg = _write_config(tmp_path, {
        "suite": "tube_limit",
        "parameters": {"kappa_values": [3], "eps_schedule": [0.1, 0.05]}})
    assert main(["tube-limit", "--config", cfg]) == 0
    assert seen[0] == seen[1]
    assert seen[0].params.kappa_values == (3,)
    assert seen[0].params.eps_schedule == (0.1, 0.05)


@pytest.mark.parametrize("schedule", [[1.5], [0.1, -0.1], []],
                         ids=["above-one", "negative", "empty"])
def test_tube_limit_bad_eps_schedule_exits_2(tmp_path, capsys, schedule):
    cfg = _write_config(tmp_path, {"suite": "tube_limit",
                                   "parameters": {"eps_schedule": schedule}})
    assert main(["verify", "--config", cfg]) == 2
    assert "config field 'parameters.eps_schedule'" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1.5", "0.1,-0.1"])
def test_tube_limit_bad_eps_override_exits_2(capsys, eps):
    assert main(["tube-limit", "--eps", eps]) == 2
    assert "config field 'parameters.eps_schedule'" in capsys.readouterr().err


@pytest.mark.parametrize("kappas", [[2], [3, 2], [1], []],
                         ids=["two", "mixed", "one", "empty"])
def test_tube_limit_bad_kappa_values_exit_2(tmp_path, capsys, kappas):
    """A weight kappa <= 2 has no tube limit check: refused, not skipped
    into a report of 0/0 checks."""
    cfg = _write_config(tmp_path, {"suite": "tube_limit",
                                   "parameters": {"kappa_values": kappas}})
    assert main(["verify", "--config", cfg]) == 2
    assert "config field 'parameters.kappa_values'" in capsys.readouterr().err


def test_tube_limit_kappa_two_override_exits_2(capsys):
    assert main(["tube-limit", "--kappa", "2"]) == 2
    assert "config field 'parameters.kappa_values'" in capsys.readouterr().err


def test_duality_without_cycle_data_exits_2(capsys):
    assert main(["verify", "duality"]) == 2
    err = capsys.readouterr().err
    assert "duality" in err and "mu" in err


_DUALITY = {"mu": [0, 0, 1, 1], "nu": [0, 0, -1, 1],
            "window_C": [[0.9, 1.9], [-0.5, 0.5]],
            "window_T": [[-0.4, 0.4], [0.8, 1.6]], "kappa": 4}


@pytest.mark.parametrize("change,field", [
    ({"mu": [0, 0, 1.5, 1]}, "duality.mu"),
    ({"mu": [0, 0, -1, 1]}, "duality.mu"),
    ({"eps": 1.5}, "duality.eps"),
    ({"nodez": [4, 4]}, "duality.nodez"),
    ({"window_C": [[0.9, 1.9]]}, "duality.window_C"),
    ({"window_T": [[-0.4, 0.4], [0.8]]}, "duality.window_T"),
    ({"nodes_T": "44"}, "duality.nodes_T"),
    ({"kappa": 2}, "duality.kappa"),
], ids=["mu-fractional", "mu-negative", "eps-out-of-range", "unknown-key",
        "window-length", "interval-length", "nodes-not-a-list",
        "kappa-too-small"])
def test_duality_bad_block_exits_2_naming_key(tmp_path, capsys, change,
                                              field):
    cfg = _write_config(tmp_path, {"suite": "duality",
                                   "duality": dict(_DUALITY, **change)})
    assert main(["verify", "--config", cfg]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("lattice,change,message", [
    ({"standard": 2}, {"window_C": [[0.9, 1.9], [0.5, -0.5]]},
     "nondegenerate"),
    ({"standard": 1}, {"mu": [0, 0, 1], "nu": [1, -1, 0],
                       "window_C": [[0.9, 1.9]], "window_T": []}, "n >= 2"),
], ids=["window-reversed", "rank-1"])
def test_duality_refused_cycle_data_exits_2(tmp_path, capsys, lattice,
                                            change, message):
    cfg = _write_config(tmp_path, {"suite": "duality", "lattice": lattice,
                                   "duality": dict(_DUALITY, **change)})
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config field 'duality'" in err and message in err


@pytest.mark.parametrize("nodes, settled", [([16, 16], True),
                                           ([8, 8], False)],
                         ids=["settled", "unsettled"])
def test_duality_suite_evaluates_the_pairing(tmp_path, capsys, nodes,
                                             settled):
    """The suite's evaluation path on cycle data off the divisor z2 = 0 of
    nu: one pairing record, finite when both quadratures settle, noting
    the unsettled one otherwise.  These windows are not fundamental
    domains, so no verdict is asserted, only that the exit code follows
    the record."""
    cfg = _write_config(tmp_path, {"suite": "duality", "duality": dict(
        _DUALITY, window_C=[[0.9, 1.9], [0.2, 0.6]], nodes=nodes,
        nodes_T=[4, 4])})
    code = main(["verify", "--config", cfg, "--json"])
    header, *records = map(json.loads, capsys.readouterr().out.splitlines())
    assert header["header"]["suite"] == "duality"
    record, = records
    assert record["check_id"] == "duality/cycle-density-pairing"
    assert record["anchor"] == "cycle-density-duality"
    assert code == (0 if record["pass"] else 1)
    if settled:
        assert all(map(math.isfinite, record["value"] + record["reference"]))
    else:
        assert record["note"].startswith("quadrature did not settle")


def test_duality_digests_cover_the_cycle_data():
    """Two duality configs that differ only in their node counts give
    different config and inputs digests."""
    reports = [run(RunConfig(suite="duality", extra={"duality": dict(
        _DUALITY, window_C=[[0.9, 1.9], [0.2, 0.6]], nodes=nodes,
        nodes_T=[4, 4])})) for nodes in ([16, 16], [8, 8])]
    configs = {report.header["config_digest"] for report in reports}
    inputs = {report.records[0].inputs_digest for report in reports}
    assert len(configs) == len(inputs) == 2


@pytest.mark.parametrize("command", ["tube_limit", "restrict", "current_eq"])
def test_suite_refuses_a_rank_three_lattice(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, {"suite": command,
                                   "lattice": {"standard": 3}})
    assert main(["verify", "--config", cfg]) == 2
    assert "config field 'lattice'" in capsys.readouterr().err


def test_seed_flag_matches_the_config_seed(tmp_path):
    """verify geometry --seed 7 writes the report of a config whose
    parameters.seed is 7, byte for byte, and not the default seed's."""
    cfg = _write_config(tmp_path, {"suite": "geometry",
                                   "parameters": {"seed": 7}})
    outs = [tmp_path / f"{name}.ndjson" for name in ("flag", "cfg", "dflt")]
    assert main(["verify", "geometry", "--seed", "7",
                 "--out", str(outs[0])]) == 0
    assert main(["verify", "--config", cfg, "--out", str(outs[1])]) == 0
    assert main(["verify", "geometry", "--out", str(outs[2])]) == 0
    flag, config, default = (out.read_bytes() for out in outs)
    assert flag == config != default


@pytest.mark.parametrize("command", ["restrict", "duality"])
def test_suite_subcommand_prints_the_verify_report(tmp_path, capsys,
                                                   command):
    """The restrict and duality subcommands print the NDJSON report of
    verify on the same suite."""
    cfg = _write_config(tmp_path, {"duality": dict(
        _DUALITY, window_C=[[0.9, 1.9], [0.2, 0.6]], nodes=[16, 16],
        nodes_T=[4, 4])})
    args = ["--config", cfg, "--json"] if command == "duality" else ["--json"]
    outputs = []
    for argv in ([command], ["verify", command]):
        outputs.append((main(argv + args), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    header = json.loads(outputs[0][1].splitlines()[0])["header"]
    assert header["suite"] == command


def test_verify_failure_exits_1(tmp_path, capsys):
    # the collar-limit comparison against the printed constant is a known
    # honest failure: the measured limit is twice that value
    cfg = _write_config(tmp_path, {
        "suite": "tube_limit",
        "parameters": {"kappa_values": [3],
                       "eps_schedule": [0.1, 0.05]}})
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "doubled-constant" in out


# ---------------------------------------------------------------------------
# evaluator subcommands


def test_eval_kernel_json(capsys):
    code = main(["eval-kernel", "--n", "2", "--lam", "0,0,1,1",
                 "--kappa", "3", "--z", "0.3+1.2j,0.1+0.2j", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "omega"
    re, im = payload["value"]
    assert math.isfinite(re) and math.isfinite(im)


def test_eval_kernel_p_json(capsys):
    """--kind p returns the form p(lambda) at the point, component by
    component."""
    code = main(["eval-kernel", "--n", "2", "--lam", "0,0,1,1", "--kind",
                 "p", "--z", "0.3+1.2j,0.1+0.2j", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    lattice, data, _ = lattice_from_config({"standard": 2})
    frame = WittFrame.build(lattice, data["e"], data["e_prime"])
    point = DomainPoint(frame, np.array([0.3 + 1.2j, 0.1 + 0.2j]))
    comps = p_components(frame.frame_coords((0, 0, 1, 1)), point)
    assert payload["kind"] == "p"
    assert payload["components"] == [[c.real, c.imag] for c in comps]


def test_eval_kernel_singular_point_exits_1(capsys):
    # lam = e' pairs with psi(Z) as 1, but the positive-cone condition for
    # ptilde fails for a vector of zero norm
    code = main(["eval-kernel", "--n", "1", "--lam", "0,0,1",
                 "--kappa", "3", "--z", "0.0+1.0j", "--kind", "ptilde"])
    assert code == 1
    assert "singular" in capsys.readouterr().err


def test_eval_series_singular_point_exits_1(capsys):
    # (1, -1, 0) has norm -1 and (lambda, psi(Z)) = 1 - y^2 = 0 at y = 1
    code = main(["eval-series", "--n", "1", "--m", "-1", "--kappa", "4",
                 "--bound", "8", "--z", "1.0j"])
    assert code == 1
    assert "kernel pole" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval-kernel", "--lam=0,0,1,-1"],
    ["eval-series", "--m", "-1", "--bound", "12"],
], ids=["eval-kernel", "eval-series"])
def test_eval_overflow_exits_1(capsys, argv):
    """At kappa = 30 the pairing 2e-11 of (0, 0, 1, -1) passes the pole
    guard but its power overflows: exit 1 with one error line."""
    code = main(argv + ["--n", "2", "--kappa", "30",
                        "--z=0.3+1.1j,1e-11j"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "complex exponentiation" in err and "Traceback" not in err


# within 1e-5 of the positive-norm cycle of (-1, -1, 1), where the n = 1
# "plus" hypergeometric factor has argument z = 0.999996
NEAR_CYCLE = "-0.13488983175517144+1.121540087097482j"


@pytest.mark.parametrize("argv, key", [
    (["eval-kernel", "--lam=-1,-1,1", "--kind", "ptilde"], "components"),
    (["eval-series", "--m", "2", "--bound", "160", "--form"],
     "form_components"),
], ids=["eval-kernel", "eval-series"])
def test_eval_near_positive_cycle_exits_0(capsys, argv, key):
    code = main(argv + ["--n", "1", "--kappa", "6", f"--z={NEAR_CYCLE}",
                        "--json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    (re, im), = json.loads(captured.out)[key]
    assert math.isfinite(re) and math.isfinite(im) and (re or im)


def test_eval_kernel_bad_vector_exits_2(capsys):
    assert main(["eval-kernel", "--n", "2", "--lam", "1,2",
                 "--z", "0.3+1.2j,0.1+0.2j"]) == 2
    assert "--lam" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["eval-kernel", "--n", "2", "--lam", "0,0,1,1", "--kind", "ptilde",
      "--z", "0.3+nanj,0.1+0.2j"], "--z"),
    (["eval-series", "--n", "2", "--m", "1", "--kappa", "4", "--bound", "12",
      "--z", "0.3+1.2j,nan+0.2j"], "--z"),
    (["eval-kernel", "--n", "2", "--lam", "0,0,1,1", "--kind", "ptilde",
      "--kappa", "1", "--z", "0.3+1.2j,0.1+0.2j"], "--kappa"),
    (["eval-kernel", "--n", "2", "--lam", "0,0,0,0", "--kind", "ptilde",
      "--z", "0.3+1.2j,0.1+0.2j"], "--lam"),
    (["eval-series", "--n", "2", "--m", "1", "--kappa", "1", "--bound", "12",
      "--z", "0.3+1.2j,0.1+0.2j"], "--kappa"),
    (["eval-series", "--n", "2", "--m", "0", "--kappa", "4", "--bound", "12",
      "--z", "0.3+1.2j,0.1+0.2j"], "--m"),
    (["eval-series", "--n", "2", "--m", "1", "--kappa", "4", "--bound", "inf",
      "--z", "0.3+1.2j,0.1+0.2j"], "--bound"),
])
def test_evaluator_bad_argument_exits_2_naming_it(capsys, argv, field):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    if field == "--z":
        assert "is not finite" in err


def test_eval_series_bound_beyond_exact_range_exits_2(capsys):
    """A finite bound too large for the exact integer search is refused by
    the enumeration's range guard, naming the bound, not wrapped."""
    assert main(["eval-series", "--n", "2", "--m", "1", "--kappa", "4",
                 "--bound", "1e30", "--z", "0.3+1.2j,0.1+0.2j"]) == 2
    assert "majorant bound 1e+30 is too large" in capsys.readouterr().err


def test_eval_series_reports_value_tail_count(capsys):
    code = main(["eval-series", "--n", "1", "--m", "1", "--kappa", "4",
                 "--bound", "10", "--z", "0.2+1.1j", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] > 0
    assert payload["tail"] >= 0.0


def test_constant_matches_library(capsys):
    assert main(["constant", "--n", "2", "--kappa", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lib = limit_constant(2, 4)
    assert abs(complex(*payload["value"]) - lib) < 1e-15


def test_constant_bad_domain_exits_2(capsys):
    assert main(["constant", "--n", "4", "--kappa", "3"]) == 2
