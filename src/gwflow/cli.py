"""Command-line front end.

Subcommands:

* ``flow``       -- integrate one of the systems, emit a CSV trajectory
* ``experiment`` -- run the long-time experiment, emit a JSON report
* ``portrait``   -- render an SVG phase portrait of the slice system
* ``check``      -- run the cross-formulation invariant checks

Exit codes: 0 success, 1 bad arguments (or an experiment whose final
negative-eigenvalue count differs from ``d1 = 4(n-1)``, the multiplicity of
the r1 block -- for example when ``--t-max`` ends the run before r1 turns
negative), 2 integrator error, 3 bad initial data, 4 failed invariant check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import checks as checks_mod
from .experiment import BadInitialDataError, ExperimentConfig, run_theorem_experiment
from .flows import (
    field_full,
    field_phase,
    field_reduced,
    field_reparam,
    field_submersion,
)
from .integrate import IntegratorConfig, Termination, Trajectory, integrate
from .portrait import render_portrait
from .spaces import (
    Metric,
    PhasePoint,
    make_pn,
    negative_count,
    ricci_coefficients,
    ricci_phase,
    volume,
    x3_from_volume_one,
)

CSV_HEADER = "t,x1,x2,x3,phi,psi,r1,r2,r3,S,V,neg_count"

_ERROR_TERMINATIONS = (
    Termination.STEP_UNDERFLOW,
    Termination.NON_FINITE,
    Termination.MAX_STEPS,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the documented exit code for bad arguments is 1, not argparse's 2
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gwflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser("flow", help="integrate a system and write a CSV trajectory")
    flow.add_argument("--n", type=int, default=None)
    flow.add_argument(
        "--system",
        choices=["full", "reduced", "phase", "reparam", "submersion"],
        default=None,
    )
    for name in ("x1", "x2", "x3", "phi", "psi"):
        flow.add_argument(f"--{name}", type=float, default=None)
    _add_integrator_args(flow)
    flow.add_argument("--config", default=None, help="JSON file with defaults for these flags")
    flow.add_argument("--output", "-o", default=None, help="CSV path (default: stdout)")

    exp = sub.add_parser("experiment", help="run the long-time experiment")
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--N", type=float, default=None)
    exp.add_argument("--epsilon", type=float, default=None)
    exp.add_argument("--t-max", type=float, default=None)
    exp.add_argument("--psi-phi-threshold", type=float, default=None)
    exp.add_argument("--r1-phi-threshold", type=float, default=None)
    exp.add_argument("--rel-tol", type=float, default=None)
    exp.add_argument("--abs-tol", type=float, default=None)
    exp.add_argument("--config", default=None)
    exp.add_argument("--output", "-o", default=None, help="JSON path (default: stdout)")

    por = sub.add_parser("portrait", help="render an SVG phase portrait")
    por.add_argument("--n", type=int, default=None)
    por.add_argument("--phi-range", default=None, metavar="LO:HI")
    por.add_argument("--psi-range", default=None, metavar="LO:HI")
    por.add_argument("--grid", default=None, metavar="NXxNY")
    por.add_argument(
        "--start",
        action="append",
        default=None,
        metavar="PHI,PSI",
        help="overlay the trajectory from this point until it leaves the window (repeatable)",
    )
    por.add_argument(
        "--traj-t-max",
        type=float,
        default=None,
        help="cap on each overlay's flow time (default 20)",
    )
    por.add_argument("--config", default=None)
    por.add_argument("--output", "-o", default=None, help="SVG path (default: stdout)")

    chk = sub.add_parser("check", help="run the invariant checks")
    chk.add_argument("--n-max", type=int, default=None)
    chk.add_argument("--config", default=None)
    return parser


def _add_integrator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument("--initial-step", type=float, default=None)
    p.add_argument("--max-step", type=float, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--event-tol", type=float, default=None)


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve option values: explicit flag > config file entry > default."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_values, dict):
            raise _UsageError(f"config file {args.config} must hold a JSON object")
        for key, value in file_values.items():
            if key not in defaults:
                raise _UsageError(f"unknown config key {key!r} in {args.config}")
            merged[key] = value
    for key in defaults:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _integrator_config(opts: dict) -> IntegratorConfig:
    return IntegratorConfig(
        t_max=opts["t_max"],
        rel_tol=opts["rel_tol"],
        abs_tol=opts["abs_tol"],
        initial_step=opts["initial_step"],
        max_step=opts["max_step"],
        max_steps=opts["max_steps"],
        event_tol=opts["event_tol"],
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _g17(v: float) -> str:
    return f"{v:.17g}"


def _csv_lines(system: str, n: int, traj: Trajectory) -> Iterable[str]:
    space = make_pn(n)
    yield CSV_HEADER
    for t, y in zip(traj.t, traj.y):
        if system == "full":
            x1, x2, x3 = (float(v) for v in y)
            phi, psi = x1 + x2, x1 - x2
            spec = ricci_coefficients(space, Metric(x1, x2, x3))
        elif system == "reduced":
            x1, x2 = (float(v) for v in y)
            x3 = x3_from_volume_one(n, x1, x2)
            phi, psi = x1 + x2, x1 - x2
            spec = ricci_coefficients(space, Metric(x1, x2, x3))
        else:
            if system == "submersion":
                phi, psi = float(y[0]), 0.0
            else:
                phi, psi = (float(v) for v in y)
            x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
            x3 = x3_from_volume_one(n, x1, x2)
            spec = ricci_phase(PhasePoint(phi, psi, n))
        v = volume(space, Metric(x1, x2, x3))
        cells = [
            _g17(float(t)), _g17(x1), _g17(x2), _g17(x3), _g17(phi), _g17(psi),
            _g17(spec.r1), _g17(spec.r2), _g17(spec.r3), _g17(spec.scalar),
            _g17(v), str(negative_count(spec)),
        ]
        yield ",".join(cells)


_FLOW_DEFAULTS = {
    "n": None,
    "system": None,
    "x1": None,
    "x2": None,
    "x3": None,
    "phi": None,
    "psi": None,
    "t_max": 10.0,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "initial_step": 1e-3,
    "max_step": float("inf"),
    "max_steps": 1_000_000,
    "event_tol": 1e-10,
}

_REQUIRED_STATE = {
    "full": ("x1", "x2", "x3"),
    "reduced": ("x1", "x2"),
    "phase": ("phi", "psi"),
    "reparam": ("phi", "psi"),
    "submersion": ("phi",),
}


def cmd_flow(args: argparse.Namespace) -> int:
    opts = _merge_config(args, _FLOW_DEFAULTS)
    n, system = opts["n"], opts["system"]
    if n is None or system is None:
        raise _UsageError("flow requires --n and --system")
    if not (isinstance(n, int) and n >= 2):
        raise _UsageError(f"--n must be an integer >= 2, got {n}")
    if system not in _REQUIRED_STATE:
        raise _UsageError(f"unknown system {system!r}")
    missing = [f"--{k}" for k in _REQUIRED_STATE[system] if opts[k] is None]
    if missing:
        raise _UsageError(f"system {system!r} requires {', '.join(missing)}")

    if system == "full":
        rhs = field_full(make_pn(n))
        y0 = [opts["x1"], opts["x2"], opts["x3"]]
    elif system == "reduced":
        rhs = field_reduced(n)
        y0 = [opts["x1"], opts["x2"]]
    elif system == "phase":
        rhs = field_phase(n)
        y0 = [opts["phi"], opts["psi"]]
    elif system == "reparam":
        rhs = field_reparam(n)
        y0 = [opts["phi"], opts["psi"]]
    else:
        rhs = field_submersion(n)
        y0 = [opts["phi"]]

    try:
        config = _integrator_config(opts)
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        traj = integrate(rhs, y0, config)
    except ValueError as exc:
        raise _UsageError(f"invalid initial state: {exc}")

    _write_text(getattr(args, "output", None), "\n".join(_csv_lines(system, n, traj)) + "\n")
    return 0 if traj.termination in (Termination.REACHED_TMAX, Termination.EVENT_STOP) else 2


_EXPERIMENT_DEFAULTS = {
    "n": None,
    "N": None,
    "epsilon": 1e-3,
    "t_max": 1e4,
    "psi_phi_threshold": -1e3,
    "r1_phi_threshold": -1e2,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
}


def cmd_experiment(args: argparse.Namespace) -> int:
    opts = _merge_config(args, _EXPERIMENT_DEFAULTS)
    if opts["n"] is None:
        raise _UsageError("experiment requires --n")
    try:
        cfg = ExperimentConfig(
            n=opts["n"],
            N=opts["N"],
            epsilon=opts["epsilon"],
            t_max=opts["t_max"],
            psi_phi_threshold=opts["psi_phi_threshold"],
            r1_phi_threshold=opts["r1_phi_threshold"],
            rel_tol=opts["rel_tol"],
            abs_tol=opts["abs_tol"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc))

    try:
        report = run_theorem_experiment(cfg)
    except BadInitialDataError as exc:
        print(f"gwflow experiment: {exc}", file=sys.stderr)
        return 3

    _write_text(
        getattr(args, "output", None),
        json.dumps(report.to_json_dict(), indent=2) + "\n",
    )
    if report.termination in _ERROR_TERMINATIONS:
        return 2
    return 0 if report.final_negative_count == report.expected_negative_count else 1


_PORTRAIT_DEFAULTS = {
    "n": None,
    "phi_range": None,
    "psi_range": None,
    "grid": "15x9",
    "start": None,
    "traj_t_max": 20.0,
}


def _parse_range(text: str, name: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise _UsageError(f"{name} must look like LO:HI, got {text!r}")
    return lo, hi


def cmd_portrait(args: argparse.Namespace) -> int:
    opts = _merge_config(args, _PORTRAIT_DEFAULTS)
    if opts["n"] is None or opts["phi_range"] is None or opts["psi_range"] is None:
        raise _UsageError("portrait requires --n, --phi-range and --psi-range")
    if not (isinstance(opts["n"], int) and opts["n"] >= 2):
        raise _UsageError(f"--n must be an integer >= 2, got {opts['n']}")
    phi_range = _parse_range(opts["phi_range"], "--phi-range")
    psi_range = _parse_range(opts["psi_range"], "--psi-range")
    try:
        nx, ny = (int(part) for part in str(opts["grid"]).lower().split("x"))
    except ValueError:
        raise _UsageError(f"--grid must look like NXxNY, got {opts['grid']!r}")
    starts = []
    for item in opts["start"] or ():
        try:
            phi0, psi0 = (float(part) for part in str(item).split(","))
        except ValueError:
            raise _UsageError(f"--start must look like PHI,PSI, got {item!r}")
        starts.append((phi0, psi0))

    try:
        svg = render_portrait(
            opts["n"],
            phi_range,
            psi_range,
            grid=(nx, ny),
            starts=tuple(starts),
            traj_t_max=opts["traj_t_max"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    _write_text(getattr(args, "output", None), svg)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    opts = _merge_config(args, {"n_max": 6})
    n_max = opts["n_max"]
    if not (isinstance(n_max, int) and n_max >= 2):
        raise _UsageError(f"--n-max must be an integer >= 2, got {n_max}")
    results = checks_mod.run_invariant_checks(n_max)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.name:<{width}}  n={r.n}  {status}  {r.detail}")
    print(f"{'total':<{width}}       {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 4


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -2:2`` into ``--flag=-2:2`` so argparse does not read
    leading-dash values (negative numbers, ranges) as option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        handler = {
            "flow": cmd_flow,
            "experiment": cmd_experiment,
            "portrait": cmd_portrait,
            "check": cmd_check,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"gwflow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
