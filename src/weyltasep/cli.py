"""Command-line front end.

Subcommands: stationary, corr, partition, limdir, walk, verify.  Outputs
are machine-readable (JSON by default, CSV where tabular); rationals are
always rendered exactly as p/q, with optional decimal companions.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from . import closedform as cf
from . import tworow as tr
from . import verify as verify_mod
from .errors import InvalidCounts, NotIrreducible, WeylTasepError
from .markov import exact_stationary
from .models import (
    DStarParams,
    build_cut_chain,
    build_dstar,
    build_multi,
    build_semipermeable,
)
from .ratio import R, fmt_ratio, parse_ratio
from .walk import estimate_direction, svg_trajectory
from .weyl import WeylKind

FAMILY_FLAGS = {
    "b": "B",
    "c": "C",
    "d": "D",
    "bcheck": "Bcheck",
    "ccheck": "Ccheck",
}


SEED_VAR = "WEYLTASEP_SEED"
RATES = ("alpha", "alpha_star", "beta", "beta_star")

# The optional flags that each mode of a command reads.  The mode is the
# value of the command's MODE flag, or None for a command without one.  Each
# subcommand defines the union of its modes' flags; main rejects any given
# flag that the chosen mode does not read.
READS = {
    "stationary": {
        "multi": ("kind",),
        "two": ("kind", "n0"),
        "dstar": ("n0", *RATES),
        "semiperm": ("n0", "alpha", "beta"),
        "tworow": ("n0", *RATES),
    },
    "corr": {None: ("kind", "decimal")},
    "partition": {
        "b": ("n0", "decimal"),
        "d": ("n0", "decimal"),
        "semiperm": ("n0", "alpha", "beta", "decimal"),
        "tworow": ("n0", *RATES, "decimal"),
    },
    "limdir": {
        "closed": ("kind", "decimal"),
        "lam": ("kind", "decimal"),
        "walk": ("kind", "steps", "trials", "seed"),
    },
    "walk": {None: ("kind", "steps", "trials", "seed", "svg")},
    "verify": {"conjecture-b": ("n_max",), "identities": ("k_max",), "lumping": ("n_max",),
               "tables": (), "tworow": ()},
}
MODE = {"stationary": "model", "partition": "model", "limdir": "method", "verify": "suite"}

# The value of a flag that is not given.  A flag without one must be given
# wherever it is read; a walk's seed defaults to WEYLTASEP_SEED (0 if unset).
DEFAULTS = {"method": "closed", "n0": 0, **dict.fromkeys(RATES, R(1)), "steps": 100_000,
            "trials": 10, **dict.fromkeys(("decimal", "seed", "svg", "n_max", "k_max"))}


def _meta(args, **params) -> dict:
    return {
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "parameters": params,
    }


def _emit(obj, args) -> None:
    if args.format == "json":
        json.dump(obj, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        _emit_csv(obj)


def _emit_csv(obj) -> None:
    """The rows of a stationary law or a correlation table, one CSV record each."""
    rows = obj.get("dist") or obj["cells"]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)


def _exact(val, digits: int | None) -> str:
    """A rational as p/q, followed by its value to `digits` decimals when given."""
    text = fmt_ratio(val)
    return f"{text} ({float(val):.{digits}f})" if digits else text


def _params_from(args) -> DStarParams:
    return DStarParams(args.alpha, args.alpha_star, args.beta, args.beta_star)


def _cmd_stationary(args) -> int:
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n) if args.kind else None
    guess = None
    if args.model == "multi":
        kernel = build_multi(kind, kind.n)
    elif args.model == "two":
        if not 0 <= args.n0 <= args.n:
            raise InvalidCounts(f"need 0 <= n0 <= n, got {args.n0}")
        kernel = build_cut_chain(kind, (args.n0 + 1,))
    elif args.model == "dstar":
        params = _params_from(args)
        kernel = build_dstar(args.n, args.n0, params)
        # The product form, used only once exact_stationary certifies it.  With
        # both starred rates zero its class can be empty; the kernel then has
        # more than one closed class, and the solver names their count.
        try:
            guess = tr.top_row_law(args.n, args.n0, params)
        except NotIrreducible:
            pass
    elif args.model == "semiperm":
        kernel = build_semipermeable(args.n, args.n0, args.alpha, args.beta)
    else:  # tworow
        dist, z = tr.stationary(args.n, args.n0, _params_from(args))
        out = _meta(args, model="tworow", n=args.n, n0=args.n0)
        out["partition"] = fmt_ratio(z)
        out["dist"] = dist.to_json_obj()
        _emit(out, args)
        return 0
    dist = exact_stationary(kernel, guess)
    out = _meta(args, model=args.model, kind=args.kind, n=args.n, n0=args.n0)
    out["dist"] = dist.to_json_obj()
    _emit(out, args)
    return 0


def _cmd_corr(args) -> int:
    corr = cf.pair_correlations(WeylKind(FAMILY_FLAGS[args.kind], args.n))
    cells = [
        {"i": i, "j": j, "p": _exact(p, args.decimal)}
        for (i, j), p in sorted(corr.items())
    ]
    out = _meta(args, kind=args.kind, n=args.n)
    out["cells"] = cells
    _emit(out, args)
    return 0


def _cmd_partition(args) -> int:
    if args.model == "b":
        val = R(cf.z_b(args.n, args.n0))
    elif args.model == "d":
        val = R(cf.z_d(args.n, args.n0))
    elif args.model == "semiperm":
        val = cf.z_semiperm(args.n, args.n0, args.alpha, args.beta)
    else:  # tworow
        val = tr.partition_sum(args.n, args.n0, _params_from(args))
    if args.format == "json":
        out = _meta(args, model=args.model, n=args.n, n0=args.n0)
        out["partition"] = _exact(val, args.decimal)
        _emit(out, args)
    else:
        print(_exact(val, args.decimal))
    return 0


def _cmd_limdir(args) -> int:
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n)
    if args.method == "closed":
        vec = cf.limdir_closed(kind, kind.n)
    elif args.method == "lam":
        vec = cf.limdir_exact_lam(kind)
    else:  # walk
        est, out = _estimate(args, kind, method=args.method)
        if args.format == "text":
            print(", ".join(f"{v:.6f}" for v in est.direction))
        else:
            _emit(out, args)
        return 0
    coeffs = [_exact(c, args.decimal) for c in vec.coeffs]
    if args.format == "json":
        out = _meta(args, kind=args.kind, n=args.n, method=args.method)
        out["coefficients"] = coeffs
        out["normalized"] = [_exact(c, args.decimal) for c in vec.normalized().coeffs]
        _emit(out, args)
    else:
        print(", ".join(coeffs))
    return 0


def _estimate(args, kind: WeylKind, **params) -> tuple:
    """A walk estimate of the direction and its JSON object, shared by limdir and walk."""
    est = estimate_direction(kind, kind.n, args.steps, args.trials, args.seed)
    out = _meta(
        args, kind=args.kind, n=args.n, **params, steps=args.steps, trials=args.trials
    )
    out["direction_estimate"] = list(est.direction)
    out["cosine_vs_closed_form"] = est.cosine_vs_closed_form
    out["acceptance_rate"] = est.acceptance_rate
    return est, out


def _cmd_walk(args) -> int:
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n)
    est, out = _estimate(args, kind)
    out["chambers"] = {str(list(k)): v for k, v in sorted(est.chamber_counts.items())}
    if args.svg:
        svg_trajectory(kind, min(args.steps, 2000), args.seed, args.svg)
        out["svg"] = args.svg
    _emit(out, args)
    return 0


def _cmd_verify(args) -> int:
    # --n-max sets the one rank that conjecture-b checks
    sizes = {"n" if args.suite == "conjecture-b" else "n_max": args.n_max, "k_max": args.k_max}
    report = verify_mod.run_suite(args.suite, **{k: v for k, v in sizes.items() if v is not None})
    _emit(report, args)
    return 0 if report["pass"] else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _rational(text: str):
    try:
        return parse_ratio(text)
    except (ValueError, ZeroDivisionError):
        msg = f"expected p/q or an integer, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


# How each optional flag of READS is parsed.
FLAGS = {"kind": {"choices": sorted(FAMILY_FLAGS)}, "svg": {"metavar": "PATH"},
         "decimal": {"type": _positive_int, "metavar": "DIGITS"},
         **dict.fromkeys(("n0", "seed", "n_max", "k_max"), {"type": int}),
         **dict.fromkeys(("steps", "trials"), {"type": _positive_int}),
         **dict.fromkeys(RATES, {"type": _rational})}

# The help line, the --format choices (the first is the default) and the
# function of each subcommand.
COMMANDS = {
    "stationary": ("exact stationary distribution", ("json", "csv"), _cmd_stationary),
    "corr": ("final-pair correlations, multispecies chain", ("json", "csv"), _cmd_corr),
    "partition": ("partition functions", ("text", "json"), _cmd_partition),
    "limdir": ("limiting direction of the reduced walk", ("text", "json"), _cmd_limdir),
    "walk": ("Monte Carlo alcove walk", ("json",), _cmd_walk),
    "verify": ("run a verification suite", ("json",), _cmd_verify),
}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _defined(command: str) -> dict:
    """The optional flags that a subcommand defines, in order: those its modes read."""
    return dict.fromkeys(flag for reads in READS[command].values() for flag in reads)


def _unwritable(path: str) -> str | None:
    """Why a file could not be written at path, or None; checked before any work."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        return f"no directory {folder}"
    if os.path.isdir(path):
        return "it is a directory"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "permission denied"
    return None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="weyltasep",
        description="Exact exclusion processes, two-row models and alcove walks "
        "on the classical Weyl groups",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_text, formats, _) in COMMANDS.items():
        modes = READS[command]
        # A flag that is not given stays out of the namespace, so that main
        # can tell it from one given with its default value.
        sp = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        if command in MODE:
            flag = MODE[command]
            sp.add_argument(_option(flag), choices=list(modes),
                            required=flag not in DEFAULTS, default=DEFAULTS.get(flag))
        if command != "verify":
            sp.add_argument("--n", type=int, required=True)
        for flag in _defined(command):
            required = flag not in DEFAULTS and all(flag in r for r in modes.values())
            sp.add_argument(_option(flag), required=required, **FLAGS[flag])
        sp.add_argument("--format", choices=formats, default=formats[0])
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args, extra = parser.parse_known_args(argv)
    prog = f"{parser.prog} {args.command}"

    def fail(message: str):
        parser.exit(2, f"{prog}: error: {message}\n")

    if extra:
        fail(f"unrecognized arguments: {' '.join(extra)}")
    # Both failures below need a mode: a command without one defines only
    # flags that it reads, and argparse requires those without a default.
    mode_flag = MODE.get(args.command)
    mode = getattr(args, mode_flag) if mode_flag else None
    reads = READS[args.command][mode]
    given = set(vars(args))
    for flag in _defined(args.command):
        if flag in given:
            if flag not in reads:
                fail(f"{_option(flag)} does not apply to {_option(mode_flag)} {mode}")
        elif flag == "seed" and flag in reads:
            text = os.environ.get(SEED_VAR, "0")
            try:
                args.seed = int(text)
            except ValueError:
                fail(f"{SEED_VAR} must be an integer, got {text!r}")
        elif flag in DEFAULTS or flag not in reads:
            setattr(args, flag, DEFAULTS.get(flag))
        else:
            fail(f"{_option(mode_flag)} {mode} needs {_option(flag)}")
    if args.command == "walk" and args.svg:
        if args.n != 2:
            fail("--svg needs --n 2 (SVG dumps are rank 2 only)")
        why = _unwritable(args.svg)
        if why:
            fail(f"cannot write --svg {args.svg}: {why}")
    try:
        code = COMMANDS[args.command][2](args)
        sys.stdout.flush()
        return code
    except WeylTasepError as exc:
        fail(str(exc))
    except BrokenPipeError:
        # The reader of stdout went away (say `| head`).  Point stdout at
        # devnull, as the Python docs advise, so that the flush at exit
        # raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
