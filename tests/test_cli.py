"""Command-line surface: subcommands, formats, and exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import truthfit
from truthfit import (
    AffineResponse,
    AgentPartition,
    DataSet,
    GenMedParams,
    GrlParams,
    ImpartialConfig,
    InputError,
    MechanismKind,
    MechanismSpec,
    QuantileConfig,
    L1Config,
    PhantomTerm,
    PwlResponse,
    CrmConfig,
    fit_l1erm,
    fit_mechanism,
    fit_ols,
    l1_risk,
    mechanism_jsonable,
    parse_mechanism,
    preset_partition,
    read_dataset,
    resolve_mechanism,
    write_dataset,
)
from truthfit.audit import BUILTIN_NAMES, builtin_instance
from truthfit.cli import build_parser, main
from truthfit.datafiles import extended_jsonable, parse_extended

LINE_POINTS = np.array([[0.0], [1.0], [2.0], [4.0]])
LINE_VALUES = np.array([1.0, 3.0, -1.0, 0.5])


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    write_dataset(path, DataSet(LINE_POINTS, LINE_VALUES))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- fit ---------------------------------------------------------------------------


def test_fit_prints_sorted_json(line_csv, capsys):
    code, out, _ = run(capsys, "fit", "--data", line_csv, "--mechanism", "ols")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    expected = fit_ols(DataSet(LINE_POINTS, LINE_VALUES))
    npt.assert_allclose(payload["beta1"], expected.beta1, atol=1e-12)
    assert payload["beta0"] == pytest.approx(expected.beta0, abs=1e-12)
    assert payload["mechanism"] == {"kind": "ols"}
    assert len(payload["predictions"]) == len(payload["residuals"]) == 4


def test_fit_builtin_reproduces_the_documented_line(capsys):
    code, out, _ = run(capsys, "fit", "--builtin", "quantile04")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta1"][0] == pytest.approx(0.5518672199170125, abs=1e-12)
    assert payload["beta0"] == pytest.approx(-6.0929460580912895, abs=1e-12)


def test_fit_with_config_file(line_csv, tmp_path, capsys):
    cfg = tmp_path / "quantile.json"
    cfg.write_text(json.dumps({"kind": "quantile", "q": 0.4}))
    code, out, _ = run(capsys, "fit", "--data", line_csv, "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["mechanism"] == {"kind": "quantile", "q": 0.4}


def test_fit_brown_mood_on_collinear_data_at_large_scale(tmp_path, capsys):
    xs = np.arange(8.0).reshape(-1, 1)
    path = tmp_path / "collinear.csv"
    write_dataset(path, DataSet(xs, 0.37e6 * xs[:, 0] + 0.7e6))
    code, out, _ = run(capsys, "fit", "--data", str(path), "--mechanism", "brown-mood")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta1"][0] == pytest.approx(0.37e6, rel=1e-12)
    assert payload["beta0"] == pytest.approx(0.7e6, rel=1e-12)


# -- audit -------------------------------------------------------------------------


def test_builtin_choices_are_the_catalogued_instances(capsys):
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    choices = [action.choices for sub in commands.values() for action in sub._actions
               if action.dest == "builtin"]
    assert choices and all(list(c) == list(BUILTIN_NAMES) for c in choices)
    for name in BUILTIN_NAMES:
        assert builtin_instance(name).name == name
        code, out, _ = run(capsys, "fit", "--builtin", name)
        assert code == 0 and json.loads(out)


def test_audit_sp_reports_the_builtin_violation(capsys):
    code, out, _ = run(capsys, "audit", "sp", "--builtin", "crm-disjoint",
                       "--agent", "4")
    assert code == 0
    payload = json.loads(out)
    cert = payload["violation"]
    assert cert["coalition"] == [4]
    assert cert["misreports"] == {"4": 1.8}
    npt.assert_allclose([cert["truthful"]["beta0"], *cert["truthful"]["beta1"]],
                        [1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("agent", ["-1", "6"])
def test_audit_sp_of_an_agent_out_of_range_exits_three(capsys, agent):
    code, out, err = run(capsys, "audit", "sp", "--builtin", "crm-disjoint", "--agent", agent)
    assert code == 3 and out == ""
    assert err.splitlines() == [f"contract violation: agent index {agent} out of range"]


def test_audit_gsp_clean_mechanism_returns_null(line_csv, tmp_path, capsys):
    cfg = tmp_path / "grl.json"
    cfg.write_text(json.dumps({
        "kind": "grl", "s": [0, 1], "sprime": [2, 3], "k": 1, "kprime": 1,
    }))
    code, out, _ = run(capsys, "audit", "gsp", "--data", line_csv,
                       "--config", str(cfg), "--max-coalition", "2",
                       "--max-evals", "200", "--seed", "3")
    assert code == 0
    assert json.loads(out) == {"violation": None}


@pytest.mark.parametrize("mechanism, violation", [("ols", True), ("l1erm", False)])
def test_audit_sp_on_a_constant_x_column_exits_zero(tmp_path, capsys, mechanism, violation):
    # every crossing system is singular there; the audit once ended in a
    # LinAlgError from the condition gate and exited 1
    csv = tmp_path / "constant.csv"
    write_dataset(csv, DataSet(np.ones((4, 1)), np.arange(4.0)))
    code, out, err = run(capsys, "audit", "sp", "--mechanism", mechanism, "--agent", "0",
                         "--data", str(csv))
    assert code == 0 and err == ""
    assert (json.loads(out)["violation"] is not None) == violation


@pytest.mark.parametrize("mode", ["sp", "gsp"])
def test_audit_over_overflowing_candidates_exits_three(tmp_path, capsys, mode):
    # it once printed overflow warnings and then {"violation": null}
    csv = tmp_path / "huge.csv"
    write_dataset(csv, DataSet(np.arange(4.0).reshape(-1, 1),
                               np.array([-1e308, 1e308, 0.0, 1.0])))
    code, out, err = run(capsys, "audit", mode, "--mechanism", "ols", "--data", str(csv))
    assert code == 3 and out == ""
    assert err == ("contract violation: misreport candidates overflow: "
                   "the reports span too wide a range\n")


def _limit_csv(tmp_path, ys) -> str:
    """A CSV at x = 0..3 with reports near the float limit."""
    csv = tmp_path / "limit.csv"
    write_dataset(csv, DataSet(np.arange(4.0).reshape(-1, 1), np.array(ys)))
    return str(csv)


# under pytest a warning is an error, so each of these also pins that the
# command prints none


@pytest.mark.parametrize("mechanism", ["brown-mood", "tukey"])
def test_fit_with_overflowing_predictions_exits_three(tmp_path, capsys, mechanism):
    # it once printed four overflow warnings and ended in a traceback on
    # the inf in its JSON (exit 1)
    csv = _limit_csv(tmp_path, [1e308, -1e308, 0.0, 5.0])
    code, out, err = run(capsys, "fit", "--mechanism", mechanism, "--data", csv)
    assert code == 3 and out == ""
    assert err == ("contract violation: predictions or residuals overflow: "
                   "the reports span too wide a range\n")


def test_l1_fit_near_the_float_limit_is_the_fit_of_scaled_reports(tmp_path, capsys):
    # it once printed the simplex's overflow warnings beside its JSON
    ys = np.array([1e308, -1e308, 0.0, 5.0])
    code, out, err = run(capsys, "fit", "--mechanism", "l1erm", "--data", _limit_csv(tmp_path, ys))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    small = fit_mechanism(MechanismSpec(MechanismKind.L1ERM, L1Config()),
                          DataSet(np.arange(4.0).reshape(-1, 1), 2.0 ** -1000 * ys))
    assert payload["beta1"] + [payload["beta0"]] == (2.0 ** 1000 * small.coefficients()).tolist()


def _fit_l1_of_tiny_x(tmp_path, capsys, xs, ys):
    csv = tmp_path / "tiny-x.csv"
    write_dataset(csv, DataSet(1e-12 * np.array(xs).reshape(-1, 1), np.array(ys)))
    code, out, err = run(capsys, "fit", "--mechanism", "l1erm", "--data", str(csv))
    assert (code, err) == (0, "")
    return json.loads(out)


def test_l1_fit_of_tiny_x_is_the_fit_at_unit_x(tmp_path, capsys):
    # the x row of the dual LP once read as zero pivots and was dropped:
    # beta = (1.0000889e-12, 1.0), risk 7, where x = 0..4 gives y = 0.5 x, risk 5
    payload = _fit_l1_of_tiny_x(tmp_path, capsys, [0.0, 1.0, 2.0, 3.0, 4.0],
                                [0.0, 1.0, 0.0, 5.0, 2.0])
    assert (payload["beta1"], payload["beta0"]) == ([5e11], 0.0)


def test_l1_fit_of_tiny_x_has_the_optimal_risk(tmp_path, capsys):
    # once exit 3: "risk is unbounded below; the drift coefficient exceeds..."
    xs, ys = [-1.9, -1.6, 2.5, -3.3, 0.8, 1.8], [-1.0, 2.0, 1.0, -1.0, 2.0, -1.0]
    payload = _fit_l1_of_tiny_x(tmp_path, capsys, xs, ys)
    unit = DataSet(np.array(xs).reshape(-1, 1), np.array(ys))
    optimum = l1_risk(unit, L1Config(), fit_l1erm(unit))
    assert sum(abs(r) for r in payload["residuals"]) == pytest.approx(optimum, rel=1e-12)


@pytest.mark.parametrize("mechanism", ["l1erm", "brown-mood"])
def test_audit_of_overflowing_candidates_prints_no_warning(tmp_path, capsys, mechanism):
    # the truthful fits once printed overflow warnings before the one line
    csv = _limit_csv(tmp_path, [-1e308, 1e308, 0.0, 1.0])
    code, out, err = run(capsys, "audit", "sp", "--mechanism", mechanism, "--agent", "0",
                         "--data", csv)
    assert code == 3 and out == ""
    assert err == ("contract violation: misreport candidates overflow: "
                   "the reports span too wide a range\n")


@pytest.mark.parametrize("mode", [["sp"], ["gsp", "--max-coalition", "2", "--max-evals", "200"]],
                         ids=["sp", "gsp"])
def test_audit_of_brown_mood_in_large_units_finds_no_violation(tmp_path, capsys, mode):
    # margins in the units of y once certified agent 6 with a "gain" of
    # 6.1e-5 on reports near 5e11: rounding, not strategy
    rng = np.random.default_rng(4)
    xs = np.sort(rng.uniform(0.0, 10.0, 7))
    csv = tmp_path / "scaled.csv"
    write_dataset(csv, DataSet(xs.reshape(-1, 1), 2.0 ** 40 * rng.normal(0.0, 1.0, 7)))
    code, out, err = run(capsys, "audit", *mode, "--mechanism", "brown-mood", "--data", str(csv))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"violation": None}


# -- influence ----------------------------------------------------------------------


def test_influence_serializes_infinities_as_strings(line_csv, tmp_path, capsys):
    cfg = tmp_path / "grl.json"
    cfg.write_text(json.dumps({
        "kind": "grl", "s": [0], "sprime": [1, 2, 3], "k": 1, "kprime": 2,
    }))
    code, out, _ = run(capsys, "influence", "--data", line_csv,
                       "--config", str(cfg), "--agent", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounds"] == [{"agent": 0, "lower": "-inf", "upper": "inf"}]


def test_influence_covers_all_agents_by_default(line_csv, tmp_path, capsys):
    cfg = tmp_path / "grl.json"
    cfg.write_text(json.dumps({
        "kind": "grl", "s": [0], "sprime": [1, 2, 3], "k": 1, "kprime": 2,
    }))
    code, out, _ = run(capsys, "influence", "--data", line_csv, "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert [b["agent"] for b in payload["bounds"]] == [0, 1, 2, 3]


def test_influence_on_a_prediction_not_of_clamp_form_exits_three(capsys):
    code, out, err = run(capsys, "influence", "--builtin", "crm-subset")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("contract violation: influence bounds need a prediction of clamp "
                          "form med(y, l, h), which crm does not guarantee")


# -- efficiency ----------------------------------------------------------------------


def test_efficiency_reports_the_rss_ratio(line_csv, capsys):
    code, out, _ = run(capsys, "efficiency", "--data", line_csv,
                       "--mechanism", "l1erm")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"mechanism_rss", "ols_rss", "ratio"}
    assert payload["ratio"] >= 1.0 - 1e-9
    assert payload["ratio"] == pytest.approx(
        payload["mechanism_rss"] / payload["ols_rss"], rel=1e-12)


def test_efficiency_of_an_overflowing_rss_exits_three_with_one_line(tmp_path, capsys):
    # squaring the exactness scale 1e-12 * max|y| once raised OverflowError (exit 1)
    csv = tmp_path / "wide.csv"
    write_dataset(csv, DataSet(np.arange(4.0).reshape(-1, 1),
                               np.array([1e200, -1e200, 1e-200, 5e199])))
    code, out, err = run(capsys, "efficiency", "--data", str(csv), "--mechanism", "l1erm")
    assert code == 3 and out == ""
    assert err == ("contract violation: residual sums of squares overflow: "
                   "the reports span too wide a range\n")


# -- plot ---------------------------------------------------------------------------


def test_plot_is_byte_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    code1, _, _ = run(capsys, "plot", "--builtin", "crm-disjoint", "--out", out1)
    code2, _, _ = run(capsys, "plot", "--builtin", "crm-disjoint", "--out", out2)
    assert code1 == code2 == 0
    first = Path(out1).read_bytes()
    assert first == Path(out2).read_bytes()
    text = first.decode()
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text
    assert "truthful fit" in text
    assert "after deviation" in text


def test_plot_custom_deviation_needs_both_flags(line_csv, tmp_path, capsys):
    out = str(tmp_path / "c.svg")
    code, _, err = run(capsys, "plot", "--data", line_csv, "--mechanism", "ols",
                       "--deviate-agent", "1", "--out", out)
    assert code == 2
    assert "deviate" in err
    code, printed, _ = run(capsys, "plot", "--data", line_csv, "--mechanism", "ols",
                           "--deviate-agent", "1", "--deviate-value", "9.0",
                           "--out", out)
    assert code == 0
    assert printed.strip() == out
    assert "after deviation" in Path(out).read_text()


def test_plot_escapes_the_data_path_in_its_title(tmp_path, capsys):
    data = tmp_path / "a&b<c.csv"
    write_dataset(data, DataSet(LINE_POINTS, LINE_VALUES))
    out = tmp_path / "e.svg"
    code, _, _ = run(capsys, "plot", "--data", str(data), "--mechanism", "l1erm",
                     "--out", str(out))
    assert code == 0
    texts = [el.text for el in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
    assert str(data) in texts


def test_unwritable_plot_output_exits_two_with_one_line(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.svg", tmp_path):
        code, printed, err = run(capsys, "plot", "--builtin", "crm-disjoint",
                                 "--out", str(out))
        assert code == 2, out
        assert printed == ""
        assert err.startswith(f"input error: cannot write {out}: "), err
        assert err.count("\n") == 1, err


# -- reproduce ------------------------------------------------------------------------


def test_reproduce_exit_codes_and_report_lines(capsys):
    code, out, _ = run(capsys, "reproduce", "fig1a")
    assert code == 0
    assert all(line.startswith(("PASS", "FAIL", "INFO")) for line in out.splitlines())
    code, out, _ = run(capsys, "reproduce", "quantile")
    assert code == 0
    assert "FAIL" not in out
    for label in ("truthful line", "misreport leaves the fit unchanged",
                  "figure deviated line is suboptimal",
                  "audit finds no profitable misreport"):
        assert f"PASS quantile {label}" in out
    code, out, _ = run(capsys, "reproduce", "all")
    assert code == 0
    assert "FAIL" not in out


def test_reproduce_into_a_closed_pipe_ends_quietly_with_code_141():
    # the reader is gone before the command starts (as under `| head -1`
    # once head has its line), so the first write of the report fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(truthfit.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "truthfit.cli", "reproduce", "all"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_reproduce_lowerbound_with_explicit_size(capsys):
    code, out, _ = run(capsys, "reproduce", "lowerbound", "--n", "4")
    assert code == 0
    assert "lowerbound n=4 ratio" in out
    assert "n=5" not in out


def test_reproduce_all_sizes_its_lowerbound_part(capsys):
    code, out, _ = run(capsys, "reproduce", "all", "--n", "4")
    assert code == 0
    assert "PASS fig1a truthful line" in out and "PASS quantile truthful line" in out
    assert "lowerbound n=4 ratio" in out
    assert "n=3" not in out and "n=5" not in out


@pytest.mark.parametrize("target", ["fig1a", "fig1b", "quantile"])
def test_reproduce_size_on_a_target_without_one_exits_two(capsys, target):
    code, out, err = run(capsys, "reproduce", target, "--n", "4")
    assert code == 2 and out == ""
    assert err.startswith("input error: --n") and err.count("\n") == 1, err


# -- exit code 2: malformed input ------------------------------------------------------


def test_input_errors_exit_two(line_csv, tmp_path, capsys):
    cases = [
        ("fit", "--mechanism", "ols"),                       # no data source
        ("fit", "--data", line_csv, "--mechanism", "nope"),  # unknown mechanism
        ("fit", "--data", line_csv),                         # no mechanism at all
        ("fit", "--data", line_csv, "--mechanism", "quantile"),  # needs config
        ("fit", "--data", str(tmp_path / "missing.csv"), "--mechanism", "ols"),
        ("fit", "--builtin", "quantile04", "--data", line_csv),  # both sources
        ("fit", "--builtin", "quantile04", "--mechanism", "ols"),
        ("plot", "--builtin", "crm-disjoint", "--data", line_csv,
         "--out", str(tmp_path / "both.svg")),
        ("plot", "--builtin", "crm-disjoint", "--deviate-agent", "1",  # a second deviation
         "--out", str(tmp_path / "deviation.svg")),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("input error:") and err.count("\n") == 1, argv
    assert list(tmp_path.glob("*.svg")) == []


def test_malformed_files_exit_two(tmp_path, capsys):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b\n1,2\n")
    code, _, err = run(capsys, "fit", "--data", str(bad_header),
                       "--mechanism", "ols")
    assert code == 2 and "header" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    csv_path = tmp_path / "ok.csv"
    write_dataset(csv_path, DataSet(LINE_POINTS, LINE_VALUES))
    code, _, err = run(capsys, "fit", "--data", str(csv_path),
                       "--config", str(bad_json))
    assert code == 2 and "JSON" in err

    conflicted = tmp_path / "quantile.json"
    conflicted.write_text(json.dumps({"kind": "quantile", "q": 0.4}))
    code, _, err = run(capsys, "fit", "--data", str(csv_path),
                       "--mechanism", "ols", "--config", str(conflicted))
    assert code == 2 and "conflicts" in err


@pytest.mark.parametrize("config, key", [
    ({"kind": "l1erm", "phantoms": [{"target": 1}]}, "anchor"),
    ({"kind": "impartial", "g": [{"type": "affine"}], "c": 0}, "needs a"),
    ({"kind": "impartial", "g": [3], "c": 0}, "g[0]"),
    ({"kind": "impartial", "g": [{"type": "pwl", "breakpoints": [0], "values": [[1]],
                                  "a": [1]}], "c": 0}, "'a'"),
    ({"kind": "grh", "sets": [[0, 1], [2, 3]], "ranks": [1, 1], "extra": 1}, "'extra'"),
    ({"kind": "l1erm", "drfit": 0.5}, "'drfit'"),
    ({"kind": "l1erm", "traversal_flag": True}, "'traversal_flag'"),
    ({"kind": "ols", "q": 0.5}, "'q'"),
    ({"kind": "tukey"}, "--mechanism tukey"),
    ({"kind": "grl", "s": [0, 1], "sprime": [2, 3], "k": 1.7, "kprime": 1}, "'k'"),
    ({"kind": "grh", "sets": [[0, 1.9], [2, 3]], "ranks": [1, 1]}, "'sets'"),
    ({"kind": "grh", "sets": [[0, 1], [2, 3]], "ranks": [1, True]}, "'ranks'"),
    ({"kind": "l1erm", "weights": [1, 1, 1, True]}, "'weights'"),
    ({"kind": "l1erm", "drift": True}, "'drift'"),
])
def test_malformed_mechanism_configs_exit_two_naming_the_key(line_csv, tmp_path, capsys,
                                                            config, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, printed, err = run(capsys, "fit", "--data", line_csv, "--config", str(cfg))
    assert code == 2
    assert printed == ""
    assert err.startswith("input error:") and key in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--candidates", "--max-evals"])
def test_negative_audit_budgets_exit_two(line_csv, capsys, flag):
    code, printed, err = run(capsys, "audit", "gsp", "--data", line_csv,
                             "--mechanism", "ols", flag, "-3")
    assert code == 2
    assert printed == ""
    assert err == f"input error: {flag} must be nonnegative, got -3\n"


# -- exit code 3: contract violations ---------------------------------------------------


def test_contract_violations_exit_three(line_csv, tmp_path, capsys):
    cfg = tmp_path / "grh.json"
    cfg.write_text(json.dumps({
        "kind": "grh", "sets": [[0, 2], [1, 3]], "ranks": [1, 1],
    }))
    code, _, err = run(capsys, "fit", "--data", line_csv, "--config", str(cfg))
    assert code == 3
    assert err.startswith("contract violation:")

    grl = tmp_path / "grl.json"
    grl.write_text(json.dumps({
        "kind": "grl", "s": [0], "sprime": [1, 2, 3], "k": 1, "kprime": 2,
    }))
    code, _, err = run(capsys, "influence", "--data", line_csv,
                       "--config", str(grl), "--agent", "7")
    assert code == 3 and "out of range" in err


@pytest.mark.parametrize("xs", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]],
                         ids=["touching", "interleaved"])
def test_unseparated_line_sets_exit_three_for_grh_and_grl(tmp_path, capsys, xs):
    csv = tmp_path / "line.csv"
    write_dataset(csv, DataSet(np.reshape(xs, (-1, 1)), np.arange(4.0)))
    cfg = tmp_path / "cfg.json"
    for spec in (MechanismSpec(MechanismKind.GRH, AgentPartition(((0, 1), (2, 3)), (1, 1))),
                 MechanismSpec(MechanismKind.GRL, GrlParams((0, 1), (2, 3), 1, 1))):
        cfg.write_text(json.dumps(mechanism_jsonable(spec)))
        code, out, err = run(capsys, "fit", "--data", str(csv), "--config", str(cfg))
        assert code == 3 and out == "", spec
        assert err == "contract violation: S and S' are not separated by a vertical line\n"


def test_inseparable_plane_sets_exit_three_with_one_line(tmp_path, capsys):
    # agent 3 lies inside the triangle of set 0
    csv = tmp_path / "plane.csv"
    xs = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0], [2.0, 1.0], [6.0, 6.0], [7.0, 5.0]])
    write_dataset(csv, DataSet(xs, np.arange(6.0)))
    cfg = tmp_path / "grh.json"
    cfg.write_text(json.dumps({"kind": "grh", "sets": [[0, 1, 2], [3], [4, 5]],
                               "ranks": [1, 1, 1]}))
    code, out, err = run(capsys, "fit", "--data", str(csv), "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == ("contract violation: partition is not publicly separable; "
                   "rejected before solving\n")


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1.0, 1e6])
def test_line_fits_agree_bitwise_at_any_scale_of_x(tmp_path, capsys, scale):
    # at scale 1e-10, an absolute separation margin of 1e-9 once refused
    # --mechanism brown-mood with exit 3 while the matching grl config fitted
    ys = np.random.default_rng(12).normal(0.0, 2.0, 10)
    base = DataSet(np.arange(10.0).reshape(-1, 1), ys)
    data = DataSet(scale * base.xs, ys)
    csv = tmp_path / "scaled.csv"
    write_dataset(csv, data)
    for preset in ("brown-mood", "tukey"):
        part = preset_partition(data, preset)
        fits = []
        for spec in (MechanismSpec(MechanismKind.GRH, part),
                     MechanismSpec(MechanismKind.GRL, GrlParams(*part.sets, *part.ranks))):
            cfg = tmp_path / f"{spec.kind.value}.json"
            cfg.write_text(json.dumps(mechanism_jsonable(spec)))
            fits.append(("--config", str(cfg)))
        lines = []
        for source in (("--mechanism", preset), *fits):
            code, out, err = run(capsys, "fit", "--data", str(csv), *source)
            assert code == 0, (preset, source, err)
            payload = json.loads(out)
            lines.append((payload["beta1"][0], payload["beta0"]))
        assert lines[0] == lines[1] == lines[2], preset
        unscaled = fit_mechanism(MechanismSpec(MechanismKind.GRH, part), base)
        assert lines[0][0] == pytest.approx(unscaled.beta1[0] / scale, rel=1e-12), preset


# -- exit code 4: a guarantee of the method failed numerically --------------------------


def test_internal_inconsistency_exits_four_with_one_line(tmp_path, capsys):
    # a near tie in d = 2: two distinct hyperplanes pass the rank conditions
    # within their tolerance, 1e-9 of max |y|
    path = tmp_path / "near_tie.csv"
    write_dataset(path, DataSet(np.array([[0.0, 0.0], [0.1, 0.0], [6.0, 0.0], [0.0, 6.0]]),
                                np.array([1.0, 1.0 + 1e-10, 1.0, 1.0])))
    cfg = tmp_path / "grh.json"
    cfg.write_text(json.dumps({"kind": "grh", "sets": [[0, 1], [2], [3]],
                               "ranks": [1, 1, 1]}))
    code, printed, err = run(capsys, "fit", "--data", str(path), "--config", str(cfg))
    assert code == 4
    assert printed == ""
    assert err.startswith("internal inconsistency:") and "rank conditions" in err, err
    assert err.count("\n") == 1, err


# -- file formats -----------------------------------------------------------------------


def test_dataset_round_trip_is_bit_exact(tmp_path):
    xs = np.array([[1.0 / 3.0], [math.sqrt(2.0)], [-2.5e-7]])
    ys = np.array([math.pi, -1.0 / 7.0, 1e17])
    path = tmp_path / "exact.csv"
    write_dataset(path, DataSet(xs, ys))
    back = read_dataset(path)
    npt.assert_array_equal(back.xs, xs)
    npt.assert_array_equal(back.ys, ys)


def test_dataset_round_trip_d0(tmp_path):
    path = tmp_path / "d0.csv"
    write_dataset(path, DataSet(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0])))
    assert path.read_text().splitlines()[0] == "y"
    back = read_dataset(path)
    assert back.d == 0 and back.n == 3


def test_dataset_reader_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        read_dataset(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("x1,y\n")
    with pytest.raises(InputError):
        read_dataset(header_only)
    short_row = tmp_path / "short.csv"
    short_row.write_text("x1,y\n1.0\n")
    with pytest.raises(InputError, match="line 2"):
        read_dataset(short_row)
    not_numbers = tmp_path / "text.csv"
    not_numbers.write_text("x1,y\n1.0,apple\n")
    with pytest.raises(InputError, match="line 2"):
        read_dataset(not_numbers)


def test_mechanism_config_round_trips():
    specs = [
        MechanismSpec(MechanismKind.OLS),
        MechanismSpec(MechanismKind.L1ERM, L1Config(
            weights=(1.0, 2.0, 1.0),
            phantoms=(PhantomTerm(anchor=(0.5,), target=1.0, weight=2.0),),
            drift=-1.5)),
        MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.25)),
        MechanismSpec(MechanismKind.CRM, CrmConfig(s=(1, 3, 5), sprime=(0, 2, 4))),
        MechanismSpec(MechanismKind.GRL, GrlParams((0, 1), (2, 3), 1, 2)),
        MechanismSpec(MechanismKind.GRH,
                      AgentPartition(((0, 1), (2, 3, 4)), (1, 2))),
        MechanismSpec(MechanismKind.IMPARTIAL, ImpartialConfig(
            g=(AffineResponse(a=(1.0,), b=(-0.5,)),
               PwlResponse(breakpoints=(0.0, 1.0), values=((0.0,), (2.0,)))),
            c=0.5)),
        MechanismSpec(MechanismKind.GENERALIZED_MEDIAN,
                      GenMedParams((-math.inf, 0.0, math.inf))),
    ]
    # every kind has a codec row, so a kind added without one fails here
    assert {spec.kind for spec in specs} == set(MechanismKind)
    for spec in specs:
        shape = mechanism_jsonable(spec)
        json.dumps(shape, allow_nan=False)  # must be plain JSON
        back = parse_mechanism(shape)
        assert back.kind is spec.kind
        assert mechanism_jsonable(back) == shape


def test_generalized_median_config_uses_infinity_strings():
    spec = MechanismSpec(MechanismKind.GENERALIZED_MEDIAN,
                         GenMedParams((-math.inf, 2.0, math.inf)))
    shape = mechanism_jsonable(spec)
    assert shape["phantoms"] == ["-inf", 2.0, "inf"]
    back = parse_mechanism(shape)
    assert back.params.phantoms == (-math.inf, 2.0, math.inf)


def test_extended_value_parsing():
    assert parse_extended("inf") == math.inf
    assert parse_extended("+Inf") == math.inf
    assert parse_extended("-infinity") == -math.inf
    assert parse_extended("2.5") == 2.5
    assert parse_extended(3) == 3.0
    with pytest.raises(InputError):
        parse_extended("seven")
    assert extended_jsonable(math.inf) == "inf"
    assert extended_jsonable(-math.inf) == "-inf"
    assert extended_jsonable(1.5) == 1.5


def test_resolve_mechanism_names_and_presets():
    data = DataSet(np.array([[float(i)] for i in range(5)]),
                   np.array([0.0, 1.0, 0.5, 2.0, 1.5]))
    assert resolve_mechanism("ols", None, data).kind is MechanismKind.OLS
    assert resolve_mechanism("l1erm", None, data).kind is MechanismKind.L1ERM
    assert resolve_mechanism("brown-mood", None, data).kind is MechanismKind.GRH
    pair = DataSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    swap = resolve_mechanism("impartial-swap", None, pair)
    assert swap.kind is MechanismKind.IMPARTIAL
    with pytest.raises(InputError):
        resolve_mechanism("brown-mood", None, None)
    with pytest.raises(InputError):
        resolve_mechanism(None, None, data)
    with pytest.raises(InputError):
        resolve_mechanism("quantile", None, data)
    with pytest.raises(InputError):
        parse_mechanism({"kind": "impartial-swap"})
    with pytest.raises(InputError):
        parse_mechanism([1, 2, 3])
    with pytest.raises(InputError):
        parse_mechanism({"kind": "quantile"})


def test_fit_round_trip_through_serialized_config(line_csv, tmp_path, capsys):
    # a config written by the library is accepted back by the CLI unchanged
    spec = MechanismSpec(MechanismKind.GRL, GrlParams((0, 1), (2, 3), 1, 2))
    cfg = tmp_path / "grl.json"
    cfg.write_text(json.dumps(mechanism_jsonable(spec)))
    code, out, _ = run(capsys, "fit", "--data", line_csv, "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    direct = fit_mechanism(spec, DataSet(LINE_POINTS, LINE_VALUES))
    npt.assert_allclose([*payload["beta1"], payload["beta0"]],
                        direct.coefficients(), atol=1e-12)
