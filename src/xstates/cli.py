"""Batch command-line front-end.

Subcommands: ``measures`` (full report for one state file), ``gen``
(random-state corpus), ``validate-approx`` (approximate-discord error
campaign against the oracle), ``evolve`` (trajectory CSV from a dynamics
config), ``check`` (pattern-preservation verdict for a channel or
generator file).

Exit codes: 0 success (for ``check``: preserving), 1 ``check`` verdict not
preserving, 2 malformed input or failed validation, 3 I/O error, 4
generator not preserving, 5 sampled step rejected (trace drift or an
invalid sample). :func:`main` alone decides them: a failure prints one line
``<label>: <message>`` to stderr, labelled ``error``, ``completeness
violated``, ``not preserving``, ``step rejected`` or ``i/o error``.
Malformed input, including JSON nested too deeply to parse, a seed outside
[0, 2**64), an integer that overflows and numbers so large that arithmetic
on them overflows, exits 2 with that one line. ``-v`` (before the subcommand)
shows the ``xstates`` logger's INFO messages, such as ``validate-approx``
progress, on stderr; a successful run without it writes nothing there.

Every file-producing run writes ``<out>.manifest.json`` beside its output;
a failed run writes one with status "error" unless the failure is an I/O
error (or the manifest itself cannot be written). Re-running with the same
arguments reproduces the outputs byte for byte (the manifest's duration
aside).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import sys
import time

import numpy as np

from . import __version__, fileio
from .dynamics import check_kraus, check_lindblad, esd_time, evolve, grade
from .errors import CompletenessViolated, NotPreserving, StepRejected, XStatesError
from .measures import concurrence, report
from .oracle import approx_error_campaign
from .core import random_xstates

_LOG = logging.getLogger("xstates")

EXIT_OK = 0
EXIT_NOT_PRESERVING_VERDICT = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_NOT_PRESERVING = 4
EXIT_STEP_REJECTED = 5

# (exception class, exit code, stderr label); the first match decides
_ERRORS = (
    (OSError, EXIT_IO, "i/o error"),
    (NotPreserving, EXIT_NOT_PRESERVING, "not preserving"),
    (StepRejected, EXIT_STEP_REJECTED, "step rejected"),
    (CompletenessViolated, EXIT_PARSE, "completeness violated"),
    (XStatesError, EXIT_PARSE, "error"),
    (ValueError, EXIT_PARSE, "error"),
    (FloatingPointError, EXIT_PARSE, "error"),  # inputs too large to compute with
)


def _write_manifest(args, started, extra=None, error=None):
    """Writes ``<out>.manifest.json``: the run's arguments, output, duration
    and status; a failed run (``error`` given) lists no output."""
    data = {
        "subcommand": args.subcommand,
        "inputs": [getattr(args, "infile", None)] if getattr(args, "infile", None) else [],
        "outputs": [args.out] if error is None else [],
        "seed": getattr(args, "seed", None),
        "n": getattr(args, "n", None),
        "grid": getattr(args, "grid", None),
        "dt": getattr(args, "dt", None),
        "t_max": getattr(args, "t_max", None),
        "version": __version__,
        "duration_s": time.monotonic() - started,
        "status": "ok" if error is None else "error",
    }
    if error is not None:
        data["error"] = str(error)
    if extra:
        data.update(extra)
    fileio.write_json(args.out + ".manifest.json", data)


def _cmd_measures(args, started) -> int:
    rep = report(fileio.load_state(args.infile), side=args.side).to_dict()
    text = fileio.dumps(rep) + "\n" if args.format == "json" else fileio.report_to_csv(rep)
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    fileio.atomic_write(args.out, text)
    _write_manifest(args, started, extra={"side": args.side})
    return EXIT_OK


def _cmd_gen(args, started) -> int:
    states = random_xstates(args.seed, 0, args.n)
    entangled = int((concurrence(states) > 0.0).sum())
    fileio.save_corpus(args.out, states)
    _write_manifest(args, started, extra={"frac_entangled": entangled / args.n})
    return EXIT_OK


def _cmd_validate_approx(args, started) -> int:
    stats = approx_error_campaign(args.n, seed=args.seed, grid=args.grid,
                                  progress=lambda done: _LOG.info("%d/%d states", done, args.n))
    fileio.write_json(args.out, stats.to_dict())
    _write_manifest(args, started)
    return EXIT_OK


def _cmd_evolve(args, started) -> int:
    cfg = fileio.load_dynamics_config(args.infile)
    traj = evolve(cfg["spec"], cfg["initial_state"], dt=cfg["dt"], t_max=cfg["t_max"],
                  sample_every=cfg["sample_every"], record=cfg["measures"])
    fileio.save_trajectory(args.out, traj)
    extra = {"dt": cfg["dt"], "t_max": cfg["t_max"], "max_leakage": traj.max_leakage}
    if "concurrence" in traj.measures:
        extra["esd_time"] = esd_time(traj)
    _write_manifest(args, started, extra=extra)
    return EXIT_OK


def _cmd_check(args, started) -> int:
    kind, obj = fileio.load_check_config(args.infile)
    verdict = check_kraus(obj) if kind == "kraus" else check_lindblad(obj)
    grades = [grade(op).grade.value for op in obj.operators]
    for i, g in enumerate(grades):
        print(f"operator {i}: grade {g}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="xstates",
        description="Correlation measures and pattern-preserving dynamics "
        "for two-qubit X states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true", help="show progress on stderr")
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
    """Runs one subcommand and returns its exit code. The one error boundary:
    an exception listed in ``_ERRORS`` becomes its exit code and one stderr
    line, plus an error manifest beside ``--out`` unless it is an I/O error;
    any other exception is a bug and keeps its traceback. numpy overflow and
    invalid operations raise here instead of warning and computing on."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    handler, level = logging.StreamHandler(sys.stderr), _LOG.level
    if args.verbose:
        _LOG.addHandler(handler)
        _LOG.setLevel(logging.INFO)
    try:
        with np.errstate(all="raise", under="ignore"):
            return args.func(args, started)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        code, label = next((c, lb) for cls, c, lb in _ERRORS if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        if code != EXIT_IO and getattr(args, "out", None):
            with contextlib.suppress(OSError):  # the error above stands either way
                _write_manifest(args, started, error=exc)
        return code
    finally:
        _LOG.removeHandler(handler)
        _LOG.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
