"""Command-line front end.

Subcommands:

* ``flow``       -- integrate one of the systems, emit a CSV trajectory
* ``experiment`` -- run the long-time experiment, emit a JSON report
* ``portrait``   -- render an SVG phase portrait of the slice system
* ``check``      -- run the cross-formulation invariant checks

Each command's options are declared once, in ``_COMMANDS``: the parser's
flags, the config-file keys, their types and defaults, and the required
options all come from it.  An option's value is its flag's, else the
``--config`` file's entry, else the default.

A command line that starts with a command name is parsed by that command's
own subparser alone, taken from the one cached parser; any other (no
arguments, ``--help``, an unknown command, a flag before the command) goes
to the top-level parser, the only source of the top-level help and of the
errors about the command.  Either route gives the same namespace, output and
errors; the direct one skips the top-level parser's scan of every token.

A ``flow`` CSV row gives each float to 17 significant digits, so that it
reads back as the same float, and ``neg_count`` as an integer.  Each row
comes from its system's unguarded ``sample`` (``flows.SYSTEMS``), with no
``Metric`` or ``RicciSpectrum`` per row: every row is a state the system's
guard accepted, whose scale factors are positive and finite
(``notes/decisions.md``).

Exit codes: 0 success, 1 bad arguments (or an experiment whose final
negative-eigenvalue count differs from ``d1 = 4(n-1)``, the multiplicity of
the r1 block -- for example when ``--t-max`` ends the run before r1 turns
negative), 2 integrator error, 3 bad initial data, 4 failed invariant check.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import string
import sys
from typing import Iterable

from . import checks as checks_mod
from . import spaces
from .experiment import BadInitialDataError, ExperimentConfig, run_theorem_experiment
from .flows import RangeExceededError, SYSTEMS
from .integrate import IntegratorConfig, Termination, Trajectory, integrate
from .portrait import render_portrait

CSV_HEADER = "t,x1,x2,x3,phi,psi,r1,r2,r3,S,V,neg_count"

_ERROR_TERMINATIONS = (
    Termination.STEP_UNDERFLOW,
    Termination.NON_FINITE,
    Termination.MAX_STEPS,
)


def _param_default(fn, name: str):
    """The default value of parameter ``name`` in ``fn``'s signature."""
    return inspect.signature(fn).parameters[name].default


_TRAJ_T_MAX = _param_default(render_portrait, "traj_t_max")

# the state of every system, in first-use order (x1, x2, x3, phi, psi)
_STATE = tuple(dict.fromkeys(k for s in SYSTEMS.values() for k in s.state))

_REQUIRED = object()  # the default of an option the command cannot run without


def _options(cls) -> dict:
    """``{field: (type, default)}`` for a config dataclass: ``int`` fields
    take integers, the rest (``float | None`` too) floats; a field with no
    default is required."""
    return {
        f.name: (
            int if f.type in (int, "int") else float,
            _REQUIRED if f.default is dataclasses.MISSING else f.default,
        )
        for f in dataclasses.fields(cls)
    }


_INTEGRATOR_OPTIONS = _options(IntegratorConfig)

# {command: {option: (type, default[, argparse keywords])}}, the only
# declaration of each option: one flag each (a ``list`` option repeats), and
# the config-file keys, their types and their defaults
_COMMANDS = {
    "flow": {
        "n": (int, _REQUIRED),
        "system": (str, _REQUIRED, {"choices": list(SYSTEMS)}),
        **dict.fromkeys(_STATE, (float, None)),
        # the integrator's settings
        **_INTEGRATOR_OPTIONS,
        "t_max": (float, 10.0),
    },
    "experiment": _options(ExperimentConfig),
    "portrait": {
        "n": (int, _REQUIRED),
        "phi_range": (str, _REQUIRED, {"metavar": "LO:HI"}),
        "psi_range": (str, _REQUIRED, {"metavar": "LO:HI"}),
        "grid": (str, "x".join(map(str, _param_default(render_portrait, "grid"))),
                 {"metavar": "NXxNY"}),
        "start": (list, None, {"metavar": "PHI,PSI", "help": "overlay the trajectory from this"
                               " point until it leaves the window (repeatable)"}),
        "traj_t_max": (float, _TRAJ_T_MAX,
                       {"help": f"cap on each overlay's flow time (default {_TRAJ_T_MAX:g})"}),
    },
    "check": {"n_max": (int, _param_default(checks_mod.run_invariant_checks, "n_max"))},
}

# each command's one-line help, and what its --output file holds (None: no file)
_ABOUT = {
    "flow": ("integrate a system and write a CSV trajectory", "CSV"),
    "experiment": ("run the long-time experiment", "JSON"),
    "portrait": ("render an SVG phase portrait", "SVG"),
    "check": ("run the invariant checks", None),
}


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the documented exit code for bad arguments is 1, not argparse's 2
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process; every parse starts from a fresh namespace
    parser = _Parser(prog="gwflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMANDS.items():
        about, writes = _ABOUT[command]
        p = sub.add_parser(command, help=about)
        for option, (kind, _, *keywords) in options.items():
            how = {"action": "append"} if kind is list else {"type": kind}
            p.add_argument(_flag(option), default=None, **how, **dict(*keywords))
        p.add_argument("--config", default=None, help="JSON file with defaults for these flags")
        if writes:
            p.add_argument("--output", "-o", default=None, help=f"{writes} path (default: stdout)")
    parser.commands = sub.choices  # {command: its subparser}, for main's direct route
    return parser


# what a config-file value must be, by its option's type; ``list`` is a
# repeatable flag, given as a list of the strings the flag takes
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list of strings"}


def _is_kind(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    number = (int, float) if kind is float else kind
    return isinstance(value, number) and not isinstance(value, bool)


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Resolve option values: explicit flag > config file entry > default.

    ``options`` is a command's entry of :data:`_COMMANDS`.  A config-file
    value of another type is a usage error; ``null`` keeps the default.  A
    float option's value is read with ``float()``, as its flag is, so a JSON
    ``4`` and ``--flag 4`` give the same run and the same report.  Every
    required option left without a value is named in one usage error.
    """
    merged = {key: default for key, (_, default, *_) in options.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, int digit limit
            raise _UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_values, dict):
            raise _UsageError(f"config file {args.config} must hold a JSON object")
        for key, value in file_values.items():
            if key not in options:
                raise _UsageError(f"unknown config key {key!r} in {args.config}")
            if value is None:
                continue
            kind = options[key][0]
            if not _is_kind(value, kind):
                raise _UsageError(
                    f"config key {key!r} in {args.config} must be {_KIND_NAMES[kind]}, "
                    f"got {value!r}"
                )
            if kind is float:
                try:
                    value = float(value)
                except OverflowError:
                    raise _UsageError(
                        f"config key {key!r} in {args.config} is an integer too large for a float"
                    )
            merged[key] = value
    flags = vars(args)
    merged.update({key: flags[key] for key in options if flags[key] is not None})
    missing = [_flag(key) for key, value in merged.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(f"{args.command} requires {', '.join(missing)}")
    return merged


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


_CSV_ROW = ",".join(["%.17g"] * 11) + ",%d"


def _csv_lines(system: str, n: int, traj: Trajectory) -> Iterable[str]:
    sample, space = SYSTEMS[system].sample, spaces.make_pn(n)
    volume, (d1, d2, d3) = spaces._volume_values, space.dims
    yield CSV_HEADER
    for t, y in zip(traj.t.tolist(), traj.y.tolist()):
        x1, x2, x3, phi, psi, r1, r2, r3 = sample(n, *y)
        yield _CSV_ROW % (t, x1, x2, x3, phi, psi, r1, r2, r3, d1 * r1 + d2 * r2 + d3 * r3,
                          volume(space, x1, x2, x3),
                          (r1 < 0.0) * d1 + (r2 < 0.0) * d2 + (r3 < 0.0) * d3)


def cmd_flow(opts: dict, output: str | None) -> int:
    n, system = opts["n"], opts["system"]
    if system not in SYSTEMS:
        raise _UsageError(f"unknown system {system!r}")
    state = SYSTEMS[system].state
    missing = [_flag(k) for k in state if opts[k] is None]
    if missing:
        raise _UsageError(f"system {system!r} requires {', '.join(missing)}")
    foreign = [_flag(k) for k in _STATE if k not in state and opts[k] is not None]
    if foreign:
        raise _UsageError(f"system {system!r} does not take {', '.join(foreign)}")

    try:
        config = IntegratorConfig(**{k: opts[k] for k in _INTEGRATOR_OPTIONS})
        field = SYSTEMS[system].field(n)
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        traj = integrate(field, [opts[k] for k in state], config)
    except (ValueError, RangeExceededError) as exc:
        raise _UsageError(f"invalid initial state: {exc}")

    _write_text(output, "\n".join(_csv_lines(system, n, traj)) + "\n")
    if traj.termination in (Termination.REACHED_TMAX, Termination.EVENT_STOP):
        return 0
    print(
        f"gwflow flow: run ended in {traj.termination.value} at t={traj.t[-1]:.17g}; "
        "the CSV holds the samples up to there",
        file=sys.stderr,
    )
    return 2


def cmd_experiment(opts: dict, output: str | None) -> int:
    try:
        cfg = ExperimentConfig(**opts)
    except ValueError as exc:
        raise _UsageError(str(exc))

    try:
        report = run_theorem_experiment(cfg)
    except BadInitialDataError as exc:
        print(f"gwflow experiment: {exc}", file=sys.stderr)
        return 3

    _write_text(output, json.dumps(report.to_json_dict(), indent=2) + "\n")
    final, expected = report.final_negative_count, report.expected_negative_count
    if report.termination in _ERROR_TERMINATIONS:
        code, why = 2, f"run ended in {report.termination.value}; the report holds it up to there"
    elif final != expected:
        code, why = 1, f"final negative-eigenvalue count {final}, expected {expected}" + (
            f"; r1 did not turn negative by t_max={cfg.t_max:.17g}"
            if report.t_r1_negative is None else "")
    else:
        return 0
    print(f"gwflow experiment: {why}", file=sys.stderr)
    return code


def _pair(option: str, text: str, kind=float) -> tuple:
    # a two-part portrait value, split where its metavar (LO:HI, NXxNY, PHI,PSI) is not upper case
    form = _COMMANDS["portrait"][option][2]["metavar"]
    try:
        first, second = map(kind, text.lower().split(form.strip(string.ascii_uppercase)))
    except ValueError:
        raise _UsageError(f"{_flag(option)} must look like {form}, got {text!r}")
    return first, second


def cmd_portrait(opts: dict, output: str | None) -> int:
    try:
        svg = render_portrait(
            opts["n"],
            _pair("phi_range", opts["phi_range"]),
            _pair("psi_range", opts["psi_range"]),
            grid=_pair("grid", opts["grid"], int),
            starts=tuple(_pair("start", item) for item in opts["start"] or ()),
            traj_t_max=opts["traj_t_max"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    _write_text(output, svg)
    return 0


def cmd_check(opts: dict, output: str | None) -> int:
    try:
        results = checks_mod.run_invariant_checks(opts["n_max"])
    except ValueError as exc:
        raise _UsageError(str(exc))
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
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:  # the top-level parser's help, or its error
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
        opts = _merge_config(args, _COMMANDS[args.command])
        # looked up per call, so a replaced module attribute cmd_* is the one run
        return globals()[f"cmd_{args.command}"](opts, getattr(args, "output", None))
    except _UsageError as exc:
        print(f"gwflow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
