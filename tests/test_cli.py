import dataclasses
import inspect
import json
import math
import subprocess
import sys
import xml.dom.minidom
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from gwflow import checks, cli, flows
from gwflow.checks import CheckResult, run_invariant_checks
from gwflow.experiment import ExperimentConfig, run_theorem_experiment
from gwflow.flows import SYSTEMS, submersion_fixed_points
from gwflow.integrate import IntegratorConfig, Termination, integrate
from gwflow.portrait import render_portrait
from gwflow.spaces import (
    Metric,
    RicciSpectrum,
    _chart_values,
    _phase_ricci_values,
    _x3_values,
    make_pn,
    negative_count,
    ricci_coefficients,
    volume,
    x3_from_volume_one,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestFlowCommand:
    def test_einstein_phase_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "flow", "--n", "2", "--system", "phase",
            "--phi", "2", "--psi", "0", "--t-max", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == "t,x1,x2,x3,phi,psi,r1,r2,r3,S,V,neg_count"
        assert len(rows) >= 2
        for row in rows:
            for col in ("r1", "r2", "r3"):
                assert abs(float(row[col]) - 0.4375) < 1e-9
            assert float(row["psi"]) == 0.0
            assert row["neg_count"] == "0"

    def test_reparam_phi_is_linear(self, capsys):
        code, out, _ = run_cli(
            capsys, "flow", "--n", "2", "--system", "reparam",
            "--phi", "10", "--psi", "-0.001", "--t-max", "5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(float(row["phi"]) - (float(row["t"]) + 10.0)) < 1e-9
            assert float(row["psi"]) < 0

    def test_volume_beyond_the_float_range_reads_inf(self, capsys):
        # the rhs guard admits scale factors of 1e20, where log V is about 1105
        code, out, err = run_cli(
            capsys, "flow", "--system", "full", "--n", "2",
            "--x1", "1e20", "--x2", "1e20", "--x3", "1e20", "--t-max", "0.05",
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) >= 2 and {row["V"] for row in rows} == {"inf"}

    def test_axis_stays_on_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "flow", "--n", "2", "--system", "phase",
            "--phi", "1.8", "--psi", "0.0", "--t-max", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(abs(float(row["psi"])) < 1e-10 for row in rows)

    def test_full_system_volume_column_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "flow", "--n", "3", "--system", "full",
            "--x1", "0.8", "--x2", "0.8", "--x3", "2.44140625", "--t-max", "20",
        )
        assert code == 0
        _, rows = parse_csv(out)
        v0 = float(rows[0]["V"])
        assert all(abs(float(row["V"]) - v0) / v0 < 1e-8 for row in rows)

    def test_csv_round_trips_at_full_precision(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys, "flow", "--n", "2", "--system", "phase",
            "--phi", "3.7", "--psi", "-0.25", "--t-max", "0.2",
            "--output", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        header, rows = parse_csv(text)
        # re-serializing the parsed floats reproduces the file exactly
        for line, row in zip(text.strip().splitlines()[1:], rows):
            cells = [f"{float(row[col]):.17g}" for col in header[:-1]]
            cells.append(row["neg_count"])
            assert ",".join(cells) == line

    def test_integrator_error_exit_code(self, capsys):
        # the original-time system blows up long before t_max; the CSV holds
        # the run up to there, and stderr says why it stopped
        code, out, err = run_cli(
            capsys, "flow", "--n", "2", "--system", "phase",
            "--phi", "4", "--psi", "-0.001", "--t-max", "10",
        )
        assert code == 2
        _, rows = parse_csv(out)
        assert all(float(row["psi"]) < 0 for row in rows)
        assert err == (
            f"gwflow flow: run ended in StepUnderflow at t={rows[-1]['t']}; "
            "the CSV holds the samples up to there\n"
        )
        assert 0.5 < float(rows[-1]["t"]) < 0.6

    def test_reparam_run_ends_where_phi_speed_vanishes(self, capsys):
        # the start is admissible (phi' = 0.73); the run climbs the axis to the
        # lower fixed point, where phi' = 0 and the time change ends
        code, out, err = run_cli(
            capsys, "flow", "--n", "2", "--system", "reparam", "--phi", "1.0", "--psi", "0",
        )
        assert code == 2
        _, rows = parse_csv(out)
        assert err == (
            f"gwflow flow: run ended in StepUnderflow at t={rows[-1]['t']}; "
            "the CSV holds the samples up to there\n"
        )
        assert len(rows) > 1
        assert abs(float(rows[-1]["phi"]) - submersion_fixed_points(2)[0]) < 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", "--system", "phase", "--phi", "2", "--psi", "0"),
            ("flow", "--n", "2", "--phi", "2", "--psi", "0"),
            ("flow", "--n", "2", "--system", "phase", "--phi", "2"),
            ("flow", "--n", "1", "--system", "phase", "--phi", "2", "--psi", "0"),
            ("flow", "--n", "2", "--system", "full", "--x1", "1", "--x2", "1"),
            ("flow", "--n", "2", "--system", "phase", "--phi", "1", "--psi", "2"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "phase", "phi": 3.0, "psi": 0.0, "t_max": 0.5}))
        code, out, _ = run_cli(capsys, "flow", "--n", "2", "--config", str(cfg), "--phi", "2.0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["phi"]) == 2.0  # flag beats config file
        assert float(rows[-1]["t"]) == 0.5

    def test_config_file_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = run_cli(capsys, "flow", "--n", "2", "--config", str(cfg))
        assert code == 1
        assert "frobnicate" in err


def reference_csv_lines(system, n, traj):
    """``cli._csv_lines`` as a per-cell writer: each float through its own
    ``f"{v:.17g}"``, the cells joined with commas."""

    def g17(v):
        return f"{v:.17g}"

    space = make_pn(n)
    cols = traj.y.T.tolist()
    if SYSTEMS[system].state[0] == "x1":
        if len(cols) == 2:
            cols.append([_x3_values(n, x1, x2) for x1, x2 in zip(*cols)])
        rows = [(Metric(*xs), xs[0] + xs[1], xs[0] - xs[1]) for xs in zip(*cols)]
        spectra = [ricci_coefficients(space, m) for m, _, _ in rows]
    else:
        if len(cols) == 1:
            cols.append([0.0] * len(traj))
        rows = [(Metric(*_chart_values(n, phi, psi)), phi, psi) for phi, psi in zip(*cols)]
        spectra = [
            RicciSpectrum(*_phase_ricci_values(n, phi, psi), *space.dims) for _, phi, psi in rows
        ]
    yield cli.CSV_HEADER
    for t, (m, phi, psi), spec in zip(traj.t.tolist(), rows, spectra):
        x1, x2, x3 = m.xs
        cells = [
            g17(float(t)), g17(x1), g17(x2), g17(x3), g17(phi), g17(psi),
            g17(spec.r1), g17(spec.r2), g17(spec.r3), g17(spec.scalar),
            g17(volume(space, m)), str(negative_count(spec)),
        ]
        yield ",".join(cells)


def _csv_start(system, n):
    """A start ``psi = phi / 10`` from which every system runs at ``n``.  At
    n = 503 the phase guard keeps ``phi`` below 1.9, where the flow is so fast
    that most runs end at the range guard after their first row."""
    phi = {2: 1.2, 3: 1.2, 41: 2.15, 300: 2.0, 503: 1.8}[n]
    psi = 0.1 * phi
    x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
    return {"full": [x1, x2, x3_from_volume_one(n, x1, x2)], "reduced": [x1, x2],
            "phase": [phi, psi], "reparam": [phi, psi], "submersion": [phi]}[system]


@pytest.mark.parametrize("n", [2, 3, 41, 300, 503])
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_csv_rows_match_the_per_cell_writer(system, n):
    traj = integrate(SYSTEMS[system].field(n), _csv_start(system, n),
                     IntegratorConfig(t_max=0.5, max_step=0.05))
    assert len(traj) >= (1 if n == 503 else 10)
    assert list(cli._csv_lines(system, n, traj)) == list(reference_csv_lines(system, n, traj))


def test_csv_rows_of_a_capped_run_match_the_per_cell_writer():
    traj = integrate(SYSTEMS["phase"].field(3), _csv_start("phase", 3),
                     IntegratorConfig(t_max=0.5, max_steps=3))
    assert traj.termination is Termination.MAX_STEPS
    assert list(cli._csv_lines("phase", 3, traj)) == list(reference_csv_lines("phase", 3, traj))


def _last_kept(keep, a, b):
    """The largest float in ``[a, b)`` that ``keep`` accepts, given ``keep(a)``
    and a ``keep`` that turns false once, above ``a``."""
    while (m := 0.5 * (a + b)) not in (a, b):
        a, b = (m, b) if keep(m) else (a, m)
    return a


def test_guarded_states_have_positive_finite_scale_factors():
    # The flow CSV builds no Metric per row, whose check refused a scale
    # factor that is not positive and finite.  Every row is a state the guard
    # accepted; x3 = (x1*x2)**-(n-1) is largest where x1*x2 is least, at the
    # guard's lower bound, and must stay finite there for each n the phase
    # systems take.  The reduced system keeps x1*x2 >= lo and x_i**2 <= hi.
    for n in range(2, 504):
        c = flows._pn(n)
        phi = _last_kept(lambda p: p * p < c.lo, 0.0, 2 * math.sqrt(c.lo))
        phi = math.nextafter(phi, math.inf)  # the least phi the guard keeps on the axis
        top = _last_kept(lambda p: p * p <= c.hi, 0.0, 2 * math.sqrt(c.hi))
        edge = _last_kept(lambda q: top * top - q * q >= c.lo, 0.0, top)
        lo, hi = flows._reduced_bounds(n)
        x = math.nextafter(_last_kept(lambda v: v * v < lo, 0.0, 2 * math.sqrt(lo)), math.inf)
        states = [_chart_values(n, phi, 0.0), _chart_values(n, top, edge),
                  _chart_values(n, top, -edge), (x, x, _x3_values(n, x, x))]
        for xs in states:
            assert all(0.0 < v < math.inf for v in xs), (n, xs)


PHASE_FLOW = ("flow", "--n", "2", "--system", "phase", "--phi", "2", "--psi", "0")
PORTRAIT = ("portrait", "--n", "2", "--phi-range", "1:3", "--psi-range", "-1:1")


@pytest.mark.parametrize(
    "argv,code,reason",
    [
        (("flow", "--n", "2", "--system", "full", "--x1", "1e200", "--x2", "1", "--x3", "1"),
         1, "range"),
        (("flow", "--n", "2", "--system", "phase", "--phi", "1e100", "--psi", "0"), 1, "range"),
        (("flow", "--n", "2", "--system", "submersion", "--phi", "1e100"), 1, "range"),
        (("flow", "--n", "2", "--system", "reduced", "--x1", "1e100", "--x2", "1"), 1, "range"),
        (("experiment", "--n", "2", "--rel-tol", "-1"), 1, "rel_tol must be positive"),
        (("experiment", "--n", "2", "--abs-tol", "0"), 1, "abs_tol must be positive"),
        (("experiment", "--n", "2", "--N", "1e100", "--epsilon", "0"), 3, "out of range"),
        (("experiment", "--n", "2", "--N", "1e200"), 3, "out of range"),
        (("experiment", "--n", "8", "--N", "1e18", "--epsilon", "0"), 3, "out of range"),
        (("experiment", "--n", "200"), 3, "no candidate"),
        # non-finite numbers; an infinite t_max used to hang the integrator
        ((*PHASE_FLOW, "--t-max", "inf", "--max-steps", "1000"), 1, "t_max must be"),
        (("experiment", "--n", "2", "--t-max", "inf"), 1, "t_max must be"),
        (("experiment", "--n", "2", "--epsilon", "nan"), 1, "epsilon must be finite"),
        (("experiment", "--n", "2", "--N", "nan"), 1, "N must be finite"),
        (("experiment", "--n", "2", "--N=-inf"), 1, "N must be finite"),
        (("portrait", "--n", "2", "--phi-range", "0:inf", "--psi-range", "-1:1"), 1, "finite"),
        (("portrait", "--n", "2", "--phi-range", "1:3", "--psi-range", "nan:1"), 1, "finite"),
        ((*PORTRAIT, "--start", "nan,0.5"), 1, "start (nan, 0.5) must be finite"),
        ((*PORTRAIT, "--start", "2,inf"), 1, "start (2.0, inf) must be finite"),
        ((*PORTRAIT, "--traj-t-max", "inf"), 1, "traj_t_max must be positive and finite"),
        # every missing required option is named in one error
        (("flow", "--phi", "2"), 1, "flow requires --n, --system"),
        (("portrait", "--n", "2"), 1, "portrait requires --phi-range, --psi-range"),
        (("portrait", "--n", "1", "--phi-range", "1:3", "--psi-range", "-1:1"), 1,
         "n must be an integer >= 2, got 1"),
        # the library's own check of n, and of n_max, is the reason given
        (("flow", "--n", "1", "--system", "phase", "--phi", "2", "--psi", "0"), 1,
         "n must be an integer >= 2, got 1"),
        (("flow", "--n", "1", "--system", "full", "--x1", "1", "--x2", "1", "--x3", "1"), 1,
         "n must be an integer >= 2, got 1"),
        (("check", "--n-max", "1"), 1, "n_max must be an integer >= 2, got 1"),
        ((*PORTRAIT, "--grid", "15by9"), 1, "--grid must look like NXxNY, got '15by9'"),
        # a step cap or first step below MIN_STEP would end the run at t = 0
        ((*PHASE_FLOW, "--max-step", "1e-20"), 1, "max_step must be at least 1e-14, got 1e-20"),
        ((*PHASE_FLOW, "--initial-step", "1e-20"), 1,
         "initial_step must be at least 1e-14, got 1e-20"),
    ],
)
def test_bad_input_gets_a_reason(capsys, argv, code, reason):
    # exit 1 is a usage error, exit 3 a refused start; neither writes output
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("gwflow")
    assert reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [300, 505, 509, 512, 600, pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize(
    "argv",
    [
        ("flow", "--system", "phase", "--phi", "2", "--psi", "-0.1"),
        ("flow", "--system", "reparam", "--phi", "2", "--psi", "-0.1"),
        ("flow", "--system", "submersion", "--phi", "2"),
        ("flow", "--system", "reduced", "--x1", "0.7", "--x2", "0.6"),
        ("flow", "--system", "full", "--x1", "0.7", "--x2", "0.6", "--x3", "1"),
        ("portrait", "--phi-range", "1:3", "--psi-range", "-1:1"),
        ("experiment",),
    ],
    ids=["phase", "reparam", "submersion", "reduced", "full", "portrait", "experiment"],
)
def test_large_n_gets_an_answer_or_a_reason(capsys, tmp_path, argv, n):
    # no traceback: an exception escaping main fails the test
    out_path = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--n", str(n), "--output", str(out_path))
    if code in (0, 2):  # 2: a flow run that ended at the range guard
        assert code == 0 or argv[0] == "flow"
        text = out_path.read_text().lower()
        assert text and "nan" not in text and "inf" not in text
    else:
        assert code in (1, 3) and str(n) in err
        assert not out_path.exists()


class TestConfigFileValueTypes:
    @pytest.mark.parametrize(
        "argv,values",
        [
            (PHASE_FLOW, {"t_max": "abc"}),
            (PHASE_FLOW, {"max_steps": 2.5}),
            (("flow", "--n", "2", "--system", "phase", "--psi", "0"), {"phi": [2.0]}),
            (("experiment", "--n", "2"), {"epsilon": "x"}),
            (("experiment",), {"n": True}),
            (("portrait", "--n", "2", "--psi-range", "-1:1"), {"phi_range": 5}),
            (PORTRAIT, {"traj_t_max": "x"}),
            (PORTRAIT, {"start": "1.5,0.3"}),
            (PORTRAIT, {"grid": [6, 4]}),
            (("check",), {"n_max": "6"}),
        ],
    )
    def test_wrong_type_is_a_usage_error_naming_the_key(self, capsys, tmp_path, argv, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        (key,) = values
        assert err.startswith("gwflow: error:") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["[2.0]", '"flow"', "4"])
    def test_config_file_must_hold_an_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, *PHASE_FLOW, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"gwflow: error: config file {cfg} must hold a JSON object\n"

    def test_unknown_system_in_the_config_file_is_a_usage_error(self, capsys, tmp_path):
        # a flag is checked against SYSTEMS by argparse, a config-file entry by cmd_flow
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "ricci"}))
        code, out, err = run_cli(capsys, "flow", "--n", "2", "--phi", "2", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "gwflow: error: unknown system 'ricci'\n"

    def test_integer_for_a_float_option_gives_the_flag_report(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"N": 4, "t_max": 1000}))
        from_file = run_cli(capsys, "experiment", "--n", "2", "--config", str(cfg))
        from_flags = run_cli(capsys, "experiment", "--n", "2", "--N", "4", "--t-max", "1000")
        assert from_file == from_flags
        assert json.loads(from_file[1])["N"] == 4.0
        assert '"N": 4.0' in from_file[1]

    @pytest.mark.parametrize("text", ['{"t_max": 1' + "0" * 400 + "}", '{"t_max": ' + "9" * 5000 + "}"])
    def test_integer_beyond_float_range_is_a_usage_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, *PHASE_FLOW, "--config", str(cfg))
        assert code == 1
        assert err.startswith("gwflow: error:")
        assert "Traceback" not in err and len(err) < 400

    def test_start_list_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"start": ["2,0.2"], "traj_t_max": 1}))
        code, out, err = run_cli(capsys, *PORTRAIT, "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out.count("<polyline") == 1

    def test_null_keeps_the_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"t_max": None, "rel_tol": None}))
        code, out, err = run_cli(capsys, *PHASE_FLOW, "--max-step", "1", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert float(parse_csv(out)[1][-1]["t"]) == cli._COMMANDS["flow"]["t_max"][1]


def _subparser(command):
    return cli._build_parser().commands[command]


def _field_values(cls, **overrides):
    values = {f.name: f.default for f in dataclasses.fields(cls)}
    values.update(overrides)
    return values


def _set_option(tmp_path, name, value, how):
    if how == "flag":  # a list option repeats its flag
        return [a for v in (value if isinstance(value, list) else [value])
                for a in (f"--{name.replace('_', '-')}", str(v))]
    path = tmp_path / "opts.json"
    path.write_text(json.dumps({name: value}))
    return ["--config", str(path)]


START = {"x1": 1.1, "x2": 0.9, "x3": 1.3, "phi": 2.5, "psi": -0.2}
INTEGRATOR_VALUES = _field_values(IntegratorConfig, t_max=0.5, max_step=1.0)
EXPERIMENT_VALUES = _field_values(ExperimentConfig, n=2, N=4.0, t_max=1e6)
# a value for every option of every command
OPTION_VALUES = {
    "flow": {"n": 2, "system": "phase", "phi": 2.0, "psi": 0.0, "x1": 1.1, "x2": 0.9, "x3": 1.3,
             **INTEGRATOR_VALUES},
    "experiment": EXPERIMENT_VALUES,
    "portrait": {"n": 2, "phi_range": "1:3", "psi_range": "-1:1",
                 "grid": "6x4", "start": ["2,0.2", "2.5,-0.1"], "traj_t_max": 1.0},
    "check": {"n_max": 2},
}
# the options every run of a command is given, unless that option is the one
# tested; a flow run is given its system's state too, and a t_max short enough
# for a full-system run off the axis to end before it blows up
BASE_OPTIONS = {
    "flow": ("n", "system", "t_max"),
    "experiment": ("n",),
    "portrait": ("n", "phi_range", "psi_range"),
    "check": (),
}


def _run_with_option(capsys, monkeypatch, tmp_path, command, name, how, **overrides):
    """Run ``command`` with option ``name`` set by flag or config file, and
    check that its handler gets the option's value from either."""
    seen = []
    handler = getattr(cli, f"cmd_{command}")
    monkeypatch.setattr(cli, f"cmd_{command}", lambda opts, out: seen.append(opts) or handler(opts, out))
    values = {**OPTION_VALUES[command], **overrides}
    base = BASE_OPTIONS[command] + (SYSTEMS[values["system"]].state if command == "flow" else ())
    argv = [command]
    for key in base:
        if key != name:
            argv += _set_option(tmp_path, key, values[key], "flag")
    argv += _set_option(tmp_path, name, values[name], how)
    result = run_cli(capsys, *argv)
    (opts,) = seen
    assert (type(opts[name]), opts[name]) == (type(values[name]), values[name])
    return result


class TestSystemRegistry:
    def test_system_choices(self):
        system = next(a for a in _subparser("flow")._actions if a.dest == "system")
        assert system.choices == list(SYSTEMS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_flags_are_the_table_options(self, command):
        flags = {s for a in _subparser(command)._actions for s in a.option_strings}
        expected = {f"--{name.replace('_', '-')}" for name in cli._COMMANDS[command]}
        expected |= {"-h", "--help", "--config"}
        if command != "check":  # the commands that write a file
            expected |= {"--output", "-o"}
        assert flags == expected

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_missing_last_state_flag_is_named(self, capsys, system):
        *given, last = SYSTEMS[system].state
        argv = ["flow", "--n", "2", "--system", system]
        for name in given:
            argv += [f"--{name}", str(START[name])]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert f"--{last}" in err

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_first_row_is_the_start_state(self, capsys, system):
        argv = ["flow", "--n", "2", "--system", system, "--t-max", "0.1"]
        for name in SYSTEMS[system].state:
            argv += [f"--{name}", str(START[name])]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert {name: float(rows[0][name]) for name in SYSTEMS[system].state} == {
            name: START[name] for name in SYSTEMS[system].state
        }

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("name", list(OPTION_VALUES["flow"]))
    def test_flow_accepts_integrator_field(self, capsys, monkeypatch, tmp_path, name, how):
        # a scale factor is a state option of the full system, not of the phase system
        system = "full" if name in SYSTEMS["full"].state else "phase"
        code, _, err = _run_with_option(capsys, monkeypatch, tmp_path, "flow", name, how,
                                        system=system)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv,name,value",
        [
            (("--system", "phase", "--phi", "2", "--psi", "0.1"), "x1", 5.0),
            (("--system", "submersion", "--phi", "2.5"), "psi", 0.3),
            (("--system", "reduced", "--x1", "0.7", "--x2", "0.6"), "x3", 1.3),
        ],
        ids=["phase-x1", "submersion-psi", "reduced-x3"],
    )
    def test_flow_refuses_a_state_option_its_system_does_not_take(
        self, capsys, tmp_path, argv, name, value, how
    ):
        option = _set_option(tmp_path, name, value, how)
        code, out, err = run_cli(capsys, "flow", "--n", "2", *argv, *option)
        assert (code, out) == (1, "")
        assert err == f"gwflow: error: system {argv[1]!r} does not take --{name}\n"

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_flow_has_no_event_tol(self, capsys, tmp_path, how):
        # the event tolerance is a constant of the integrator, and flow runs no monitors
        option = _set_option(tmp_path, "event_tol", 1e-9, how)
        code, out, err = run_cli(capsys, *PHASE_FLOW, *option)
        assert (code, out) == (1, "")
        reason = {"flag": "unrecognized arguments: --event-tol",
                  "config": "unknown config key 'event_tol'"}
        assert reason[how] in err

    @pytest.mark.parametrize(
        "how,name", [("flag", "psi_phi_threshold"), ("config", "r1_phi_threshold")]
    )
    def test_experiment_has_no_threshold_options(self, capsys, tmp_path, how, name):
        # the divergence levels are criterion 8's constants, not settings
        option = _set_option(tmp_path, name, -5.0, how)
        code, out, err = run_cli(capsys, "experiment", "--n", "2", *option)
        assert (code, out) == (1, "")
        reason = {"flag": f"unrecognized arguments: --{name.replace('_', '-')}",
                  "config": f"unknown config key {name!r}"}
        assert reason[how] in err

    # the experiment's fields, then the portrait and check options
    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,name",
        [
            pytest.param(command, name, id=name if command == "experiment" else f"{command}-{name}")
            for command in ("experiment", "portrait", "check")
            for name in OPTION_VALUES[command]
        ],
    )
    def test_experiment_accepts_experiment_field(
        self, capsys, monkeypatch, tmp_path, command, name, how
    ):
        code, out, err = _run_with_option(capsys, monkeypatch, tmp_path, command, name, how)
        assert (code, err) == (0, "")
        if command == "experiment":
            assert json.loads(out)["n"] == 2


class TestExperimentCommand:
    def test_report_written_and_exit_matches_count(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "experiment", "--n", "2", "--t-max", "1e6", "--output", str(out_path)
        )
        report = json.loads(out_path.read_text())
        assert code == (0 if report["final_negative_count"] == report["expected_negative_count"] else 1)
        assert report["n"] == 2
        # d1 = 4(n-1): only the r1 block turns negative, since
        # r1 + r2 = 2*phi/p2 - 2*4^(n-1)/((n+2)*p2^n) > 0 along the run
        # (proved in tests/test_symbolic.py)
        assert report["expected_negative_count"] == 4
        assert report["t_r1_negative"] is not None
        assert report["termination"] == "ReachedTmax"

    def test_report_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run_cli(capsys, "experiment", "--n", "2", "--t-max", "100", "--output", str(out_path))
        text = out_path.read_text()
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed, indent=2)) == parsed
        assert json.dumps(parsed, indent=2) + "\n" == text

    def test_small_N_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--n", "2", "--N", "2")
        assert code == 3
        assert "N is not large enough" in err or "not positive" in err

    def test_error_termination_exits_2(self, capsys, monkeypatch, tmp_path):
        # the report is still written; a step cap ends this run early
        monkeypatch.setattr(
            ExperimentConfig, "integrator_config",
            lambda self: IntegratorConfig(t_max=self.t_max, max_steps=5),
        )
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "experiment", "--n", "2", "--output", str(out_path))
        assert code == 2
        assert err == ("gwflow experiment: run ended in MaxSteps; "
                       "the report holds it up to there\n")
        assert json.loads(out_path.read_text())["termination"] == "MaxSteps"

    def test_step_underflow_exit_2_names_the_termination(self, capsys, monkeypatch):
        report = run_theorem_experiment(ExperimentConfig(n=2, t_max=100.0))
        monkeypatch.setattr(cli, "run_theorem_experiment", lambda cfg: dataclasses.replace(
            report, termination=Termination.STEP_UNDERFLOW))
        code, out, err = run_cli(capsys, "experiment", "--n", "2")
        assert code == 2
        assert json.loads(out)["termination"] == "StepUnderflow"
        assert err == ("gwflow experiment: run ended in StepUnderflow; "
                       "the report holds it up to there\n")

    def test_count_mismatch_exit_1_names_both_counts(self, capsys):
        # the default t_max = 1e4 ends this run before r1 turns negative
        code, out, err = run_cli(capsys, "experiment", "--n", "2", "--epsilon", "1e-4")
        report = json.loads(out)
        assert code == 1
        assert (report["t_r1_negative"], report["final_negative_count"]) == (None, 0)
        assert err == ("gwflow experiment: final negative-eigenvalue count 0, expected 4; "
                       "r1 did not turn negative by t_max=10000\n")

    def test_missing_n_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "experiment")
        assert code == 1


class TestPortraitCommand:
    def test_deterministic_and_well_formed(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "portrait", "--n", "2",
                "--phi-range", "1:8", "--psi-range", "-2:2", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        xml.dom.minidom.parse(str(a))  # raises on malformed output

    def test_axis_arrows_are_horizontal(self, capsys, tmp_path):
        path = tmp_path / "p.svg"
        run_cli(
            capsys, "portrait", "--n", "2",
            "--phi-range", "1:8", "--psi-range", "-2:2", "--output", str(path),
        )
        svg = path.read_text()
        vectors = svg.split('<g id="vectors">')[1].split("</g>")[0]
        axis_y = None
        for line in vectors.splitlines():
            if line.startswith("<line"):
                attrs = dict(
                    part.split("=") for part in line[6:].rstrip("/>").split() if "=" in part
                )
                y1, y2 = attrs["y1"].strip('"'), attrs["y2"].strip('"')
                mid_y = (float(y1) + float(y2)) / 2
                # arrows centered on the psi = 0 row must be horizontal
                if abs(mid_y - 280.0) < 1e-9:
                    axis_y = mid_y
                    assert y1 == y2
        assert axis_y is not None

    def test_einstein_marker_present(self, capsys, tmp_path):
        path = tmp_path / "p.svg"
        run_cli(
            capsys, "portrait", "--n", "2",
            "--phi-range", "1:8", "--psi-range", "-2:2", "--output", str(path),
        )
        svg = path.read_text()
        assert '<g id="fixed-points">' in svg
        assert "<circle" in svg

    def test_trajectory_overlay(self, capsys, tmp_path):
        path = tmp_path / "p.svg"
        code, _, _ = run_cli(
            capsys, "portrait", "--n", "2",
            "--phi-range", "1:8", "--psi-range", "-2:2",
            "--start", "3.0,0.5", "--output", str(path),
        )
        assert code == 0
        assert "<polyline" in path.read_text()

    @pytest.mark.parametrize(
        "phi_range,psi_range",
        [("8:1", "-2:2"), ("1:8", "2:-2"), ("-5:-1", "-8:8"), ("0.1:0.2", "3:4")],
    )
    def test_invalid_boxes(self, capsys, phi_range, psi_range):
        code, _, err = run_cli(
            capsys, "portrait", "--n", "2",
            "--phi-range", phi_range, "--psi-range", psi_range,
        )
        assert code == 1
        assert "error" in err


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_do_not_share_values(self, capsys, tmp_path, monkeypatch):
        calls = []

        def recorder(n, phi_range, psi_range, **kwargs):
            calls.append((n, kwargs))
            return "<svg/>\n"

        monkeypatch.setattr(cli, "render_portrait", recorder)
        first = tmp_path / "first.json"
        first.write_text(json.dumps({"n": 3, "grid": "6x4", "traj_t_max": 5.0}))
        second = tmp_path / "second.json"
        second.write_text(json.dumps({"psi_range": "-1:1"}))
        assert run_cli(
            capsys, "portrait", "--phi-range", "1:8", "--psi-range", "-2:2",
            "--start", "3,0.5", "--start", "4,0.1", "--config", str(first),
        )[0] == 0
        assert run_cli(
            capsys, "portrait", "--n", "2", "--phi-range", "1:8",
            "--start", "2,0.2", "--config", str(second),
        )[0] == 0
        (n1, kw1), (n2, kw2) = calls
        assert (n1, kw1) == (
            3, {"grid": (6, 4), "starts": ((3.0, 0.5), (4.0, 0.1)), "traj_t_max": 5.0}
        )
        # the second call sees none of the first call's starts or file values
        defaults = inspect.signature(render_portrait).parameters
        assert (n2, kw2) == (
            2,
            {
                "grid": defaults["grid"].default,
                "starts": ((2.0, 0.2),),
                "traj_t_max": defaults["traj_t_max"].default,
            },
        )

    def test_check_default_n_max_is_the_library_default(self, capsys, monkeypatch):
        seen = []

        def recorder(n_max):
            seen.append(n_max)
            return [CheckResult("stub", 2, True, "")]

        monkeypatch.setattr(checks, "run_invariant_checks", recorder)
        assert run_cli(capsys, "check")[0] == 0
        assert seen == [inspect.signature(run_invariant_checks).parameters["n_max"].default]


def reference_main(argv):
    """``cli.main`` as it was before the direct route: every command line
    through the top-level parser, which hands the command's tokens to its
    subparser."""
    argv = cli._merge_negative_values(list(argv))
    try:
        args = cli._build_parser().parse_args(argv)
        opts = cli._merge_config(args, cli._COMMANDS[args.command])
        return getattr(cli, f"cmd_{args.command}")(opts, getattr(args, "output", None))
    except cli._UsageError as exc:
        print(f"gwflow: error: {exc}", file=sys.stderr)
        return 1


_PHASE_RUN = ["--n", "2", "--system", "phase", "--phi", "2", "--t-max", "0.1"]
_ROUTE_ARGVS = [
    # help, from the top-level parser and from a subparser
    [], ["--help"], ["-h"], ["flow", "--help"], ["check", "-h"],
    # errors about the command, its flags and their values
    ["bogus"], ["--n", "3", "flow"], ["flow", "--n", "abc"],
    ["flow", "--n", "2", "--system", "sideways", "--phi", "2", "--psi", "0"],
    ["check", "--n-max", "3", "extra"], ["flow", "--n"], ["flow"],
    # abbreviations and --flag=value
    ["check", "--n-m", "3"], ["check", "--n-max=3"],
    # a negative value, -o, a repeated flag, and --
    ["flow", *_PHASE_RUN, "--psi", "-0.5", "-o", "-"],
    ["portrait", "--n", "2", "--phi-range", "1:3", "--psi-range", "-1:1", "--grid", "3x2",
     "--start", "2,0.5", "--start", "2.5,-0.5", "--traj-t-max", "0.1"],
    ["flow", "--", "--n", "2"],
]


@pytest.mark.parametrize("argv", _ROUTE_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_direct_subparser_route_matches_the_top_level_parser(capsys, argv):
    def outcome(main):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert outcome(cli.main) == outcome(reference_main)


class TestCheckCommand:
    def test_passes_on_correct_build(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "3")
        assert code == 0
        assert "spectrum-agreement" in out
        assert "FAIL" not in out

    def test_usage_error_for_small_n_max(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--n-max", "1")
        assert code == 1

    def test_injected_sign_error_is_caught(self, capsys, monkeypatch):
        import gwflow.spaces as spaces_mod

        true_values = spaces_mod._phase_ricci_values

        def broken(n, phi, psi):
            r1, r2, r3 = true_values(n, phi, psi)
            odd = r2 - r1  # twice the term that is odd in psi
            return r1, r1 + (-odd), r3

        monkeypatch.setattr(spaces_mod, "_phase_ricci_values", broken)
        code, out, _ = run_cli(capsys, "check", "--n-max", "2")
        assert code == 4
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert any("spectrum-agreement" in line for line in failing)

    def test_injected_rhs_sign_error_is_caught(self, capsys, monkeypatch):
        import gwflow.flows as flows_mod

        true_values = flows_mod._phase_values

        def broken(n, phi, psi):
            dphi, dpsi = true_values(n, phi, psi)
            return dphi, -dpsi

        monkeypatch.setattr(flows_mod, "_phase_values", broken)
        code, out, _ = run_cli(capsys, "check", "--n-max", "2")
        assert code == 4
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert [line.split()[0] for line in failing] == ["rhs-consistency", "total"]


class TestConsoleScript:
    def test_installed_entry_point(self, capsys, monkeypatch):
        # the [project.scripts] target, loaded and called as a console script calls it
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gwflow"]
        entry = EntryPoint(name="gwflow", value=target, group="console_scripts").load()
        monkeypatch.setattr(sys, "argv", ["gwflow", "check", "--n-max", "2"])
        assert entry() == 0
        assert "PASS" in capsys.readouterr().out

    def test_module_runs_as_a_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gwflow.cli", "check", "--n-max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
