"""Batch command-line front-end.

Subcommands: ``measures`` (full report for one state file), ``gen``
(random-state corpus), ``validate-approx`` (approximate-discord error
campaign against the oracle), ``evolve`` (trajectory CSV from a dynamics
config), ``check`` (pattern-preservation verdict for a channel or
generator file).

Exit codes: 0 success (for ``check``: preserving), 1 ``check`` verdict not
preserving, 2 parse/validation error, 3 I/O error, 4 generator not
preserving, 5 sampled step rejected (trace drift or leakage).

Every file-producing run writes ``<out>.manifest.json`` beside its output,
also on failure; re-running with the same arguments reproduces the outputs
byte for byte (the manifest's duration aside).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__, fileio
from .dynamics import check_kraus, check_lindblad, esd_time, evolve, grade
from .errors import (
    CompletenessViolated,
    DynamicsError,
    NotPreserving,
    StepRejected,
    ValidationError,
)
from .measures import concurrence, report
from .oracle import approx_error_campaign
from .core import random_xstates, unstack

EXIT_OK = 0
EXIT_NOT_PRESERVING_VERDICT = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_NOT_PRESERVING = 4
EXIT_STEP_REJECTED = 5


def _manifest(args, subcommand: str, outputs, started, extra=None, status="ok", error=None):
    data = {
        "subcommand": subcommand,
        "inputs": [getattr(args, "infile", None)] if getattr(args, "infile", None) else [],
        "outputs": list(outputs),
        "seed": getattr(args, "seed", None),
        "n": getattr(args, "n", None),
        "grid": getattr(args, "grid", None),
        "dt": getattr(args, "dt", None),
        "t_max": getattr(args, "t_max", None),
        "version": __version__,
        "duration_s": time.monotonic() - started,
        "status": status,
    }
    if error is not None:
        data["error"] = str(error)
    if extra:
        data.update(extra)
    return data


def _write_manifest(out_path, manifest):
    if out_path:
        fileio.write_json(out_path + ".manifest.json", manifest)


def _cmd_measures(args) -> int:
    started = time.monotonic()
    try:
        state = fileio.load_state(args.infile)
        rep = report(state, side=args.side).to_dict()
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_manifest(args.out, _manifest(args, "measures", [], started, status="error", error=exc))
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.out:
        sys.stdout.write(
            fileio.dumps(rep) + "\n" if args.format == "json" else fileio.report_to_csv(rep)
        )
        return EXIT_OK
    try:
        fileio.save_report(args.out, rep, fmt=args.format)
        _write_manifest(
            args.out,
            _manifest(args, "measures", [args.out], started, extra={"side": args.side}),
        )
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_gen(args) -> int:
    started = time.monotonic()
    states = random_xstates(args.seed, 0, args.n)
    entangled = int((concurrence(states) > 0.0).sum())
    try:
        fileio.save_corpus(args.out, unstack(states))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _write_manifest(
        args.out,
        _manifest(args, "gen", [args.out], started,
                  extra={"frac_entangled": entangled / args.n}),
    )
    return EXIT_OK


def _cmd_validate_approx(args) -> int:
    started = time.monotonic()

    def progress(done):
        print(f"{done}/{args.n} states", file=sys.stderr)

    stats = approx_error_campaign(args.n, seed=args.seed, grid=args.grid, progress=progress)
    try:
        fileio.write_json(args.out, stats.to_dict())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _write_manifest(args.out, _manifest(args, "validate-approx", [args.out], started))
    return EXIT_OK


def _cmd_evolve(args) -> int:
    started = time.monotonic()
    try:
        cfg = fileio.load_dynamics_config(args.infile)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_manifest(args.out, _manifest(args, "evolve", [], started, status="error", error=exc))
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        traj = evolve(
            cfg["spec"],
            cfg["initial_state"],
            dt=cfg["dt"],
            t_max=cfg["t_max"],
            sample_every=cfg["sample_every"],
            record=cfg["measures"],
        )
    except NotPreserving as exc:
        print(f"not preserving: {exc}", file=sys.stderr)
        _write_manifest(args.out, _manifest(args, "evolve", [], started, status="error", error=exc))
        return EXIT_NOT_PRESERVING
    except StepRejected as exc:
        print(f"step rejected: {exc}", file=sys.stderr)
        _write_manifest(args.out, _manifest(args, "evolve", [], started, status="error", error=exc))
        return EXIT_STEP_REJECTED
    except (DynamicsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_manifest(args.out, _manifest(args, "evolve", [], started, status="error", error=exc))
        return EXIT_PARSE
    try:
        fileio.save_trajectory(args.out, traj)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    extra = {
        "dt": cfg["dt"],
        "t_max": cfg["t_max"],
        "max_leakage": traj.max_leakage,
    }
    if "concurrence" in traj.measures:
        death = esd_time(traj)
        extra["esd_time"] = death
    _write_manifest(args.out, _manifest(args, "evolve", [args.out], started, extra=extra))
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        kind, obj = fileio.load_check_config(args.infile)
        if kind == "kraus":
            verdict = check_kraus(obj)
            graded = [grade(op) for op in obj.operators]
        else:
            verdict = check_lindblad(obj)
            graded = [grade(op) for op in obj.operators]
    except CompletenessViolated as exc:
        print(f"completeness violated: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DynamicsError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for i, g in enumerate(graded):
        print(f"operator {i}: grade {g.grade.value}")
    if verdict.preserving:
        print(f"preserving: {verdict.message}")
        return EXIT_OK
    offenders = ", ".join(verdict.offenders)
    print(f"not preserving: {verdict.message} ({offenders})")
    return EXIT_NOT_PRESERVING_VERDICT


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xstates",
        description="Correlation measures and pattern-preserving dynamics "
        "for two-qubit X states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measures", help="full measure report for one state file")
    p.add_argument("--in", dest="infile", required=True, help="state file (JSON)")
    p.add_argument("--out", default=None, help="report path (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--side", choices=("A", "B"), default="B",
                   help="measured subsystem for the discord family")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("gen", help="write a corpus of random X states")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate-approx",
                       help="approximate-discord error statistics vs the oracle")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--grid", type=_int_at_least(2), default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate_approx)

    p = sub.add_parser("evolve", help="propagate a master equation to a trajectory CSV")
    p.add_argument("--in", dest="infile", required=True, help="dynamics config (JSON)")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("check", help="pattern-preservation verdict for a channel/generator file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
