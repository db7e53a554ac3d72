"""Command-line front end.

Subcommands: stationary, corr, partition, limdir, walk, verify.  Outputs
are machine-readable (JSON by default, CSV where tabular); rationals are
always rendered exactly as p/q, with optional decimal companions.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import closedform as cf
from . import tworow as tr
from . import verify as verify_mod
from .errors import WeylTasepError
from .markov import exact_stationary
from .models import (
    DStarParams,
    build_dstar,
    build_multi,
    build_semipermeable,
    build_two_species,
    state_sort_key,
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


def _default_seed() -> int:
    return int(os.environ.get("WEYLTASEP_SEED", "0"))


def _walk_defaults() -> dict:
    """Defaults of the walk flags --steps, --trials and --seed."""
    return {"steps": 100_000, "trials": 10, "seed": _default_seed()}


def _meta(args, **params) -> dict:
    return {
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "parameters": params,
    }


def _emit(obj, args) -> None:
    if getattr(args, "format", "json") == "json":
        json.dump(obj, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        _emit_csv(obj)


def _emit_csv(obj) -> None:
    rows = obj.get("dist") or obj.get("cells") or obj.get("rows") or []
    if rows:
        header = list(rows[0])
        print(",".join(header))
        for row in rows:
            print(",".join(str(row[h]) for h in header))
    else:
        print(json.dumps(obj, default=str))


def _with_decimal(text: str, digits: int | None) -> str:
    if not digits:
        return text
    val = parse_ratio(text)
    return f"{text} ({float(val):.{digits}f})"


def _params_from(args) -> DStarParams:
    return DStarParams(args.alpha, args.alpha_star, args.beta, args.beta_star)


def _cmd_stationary(args) -> int:
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n) if args.kind else None
    if args.model == "multi":
        kernel = build_multi(kind, args.n)
    elif args.model == "two":
        kernel = build_two_species(kind, args.n, args.n0)
    elif args.model == "dstar":
        kernel = build_dstar(args.n, args.n0, _params_from(args))
    elif args.model == "semiperm":
        kernel = build_semipermeable(args.n, args.n0, args.alpha, args.beta)
    else:  # tworow
        dist, z = tr.stationary(args.n, args.n0, _params_from(args))
        out = _meta(args, model="tworow", n=args.n, n0=args.n0)
        out["partition"] = fmt_ratio(z)
        out["dist"] = dist.to_json_obj(
            state_key=lambda c: (state_sort_key(c[0]), state_sort_key(c[1]))
        )
        _emit(out, args)
        return 0
    dist = exact_stationary(kernel)
    out = _meta(args, model=args.model, kind=args.kind, n=args.n, n0=args.n0)
    out["dist"] = dist.to_json_obj(state_key=state_sort_key)
    _emit(out, args)
    return 0


def _cmd_corr(args) -> int:
    fam = FAMILY_FLAGS[args.kind]
    corr = cf.pair_correlations(fam, args.n)
    cells = [
        {"i": i, "j": j, "p": _with_decimal(fmt_ratio(p), args.decimal)}
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
        out["partition"] = fmt_ratio(val)
        _emit(out, args)
    else:
        print(_with_decimal(fmt_ratio(val), args.decimal))
    return 0


def _cmd_limdir(args) -> int:
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n)
    if args.method == "closed":
        vec = cf.limdir_closed(kind, args.n)
    elif args.method == "lam":
        vec = cf.limdir_exact_lam(kind, args.n)
    else:  # walk
        est, out = _estimate(args, method=args.method)
        if args.format == "text":
            print(", ".join(f"{v:.6f}" for v in est.direction))
        else:
            _emit(out, args)
        return 0
    text = ", ".join(_with_decimal(fmt_ratio(c), args.decimal) for c in vec.coeffs)
    if args.format == "json":
        out = _meta(args, kind=args.kind, n=args.n, method=args.method)
        out["coefficients"] = [fmt_ratio(c) for c in vec.coeffs]
        out["normalized"] = [fmt_ratio(c) for c in vec.normalized().coeffs]
        _emit(out, args)
    else:
        print(text)
    return 0


def _estimate(args, **params) -> tuple:
    """A walk estimate of the direction and its JSON object, shared by limdir and walk.

    `limdir` leaves the walk flags at None, so that they can be rejected for
    the exact methods; the walk defaults are applied here.
    """
    for flag, default in _walk_defaults().items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n)
    est = estimate_direction(kind, args.n, args.steps, args.trials, args.seed)
    out = _meta(
        args, kind=args.kind, n=args.n, **params, steps=args.steps, trials=args.trials
    )
    out["direction_estimate"] = list(est.direction)
    out["cosine_vs_closed_form"] = est.cosine_vs_closed_form
    out["acceptance_rate"] = est.acceptance_rate
    return est, out


def _cmd_walk(args) -> int:
    kind = WeylKind(FAMILY_FLAGS[args.kind], args.n)
    est, out = _estimate(args)
    out["chambers"] = {str(list(k)): v for k, v in sorted(est.chamber_counts.items())}
    if args.svg:
        svg_trajectory(kind, args.n, min(args.steps, 2000), args.seed, args.svg)
        out["svg"] = args.svg
    _emit(out, args)
    return 0


# The suite parameter each verify flag sets, on the suites that read it.
VERIFY_FLAGS = {"n_max": {"lumping": "n_max", "conjecture-b": "n"},
                "k_max": {"identities": "k_max"}}


def _cmd_verify(args) -> int:
    kwargs = {
        suites[args.suite]: getattr(args, flag)
        for flag, suites in VERIFY_FLAGS.items()
        if getattr(args, flag) is not None
    }
    report = verify_mod.run_suite(args.suite, **kwargs)
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

    def common(sp, n0=True, rates=False, kind=None, decimal=False,
               formats=("json", "csv", "text")):
        sp.add_argument("--n", type=int, required=True)
        if n0:
            sp.add_argument("--n0", type=int, default=0)
        if kind is not None:
            sp.add_argument("--kind", choices=sorted(FAMILY_FLAGS), **kind)
        if rates:
            sp.add_argument("--alpha", type=_rational, default="1")
            sp.add_argument("--alpha-star", dest="alpha_star", type=_rational, default="1")
            sp.add_argument("--beta", type=_rational, default="1")
            sp.add_argument("--beta-star", dest="beta_star", type=_rational, default="1")
        sp.add_argument("--format", choices=formats, default="json")
        if decimal:
            sp.add_argument("--decimal", type=int, default=None, metavar="DIGITS")

    def walk_flags(sp):
        # None unless given: limdir rejects them off --method walk, and the
        # walk defaults are set by `walk` and applied by `_estimate` for limdir
        sp.add_argument("--steps", type=_positive_int)
        sp.add_argument("--trials", type=_positive_int)
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("stationary", help="exact stationary distribution")
    sp.add_argument(
        "--model",
        choices=("multi", "two", "dstar", "semiperm", "tworow"),
        required=True,
    )
    common(sp, rates=True, kind={"default": None})
    sp.set_defaults(func=_cmd_stationary)

    sp = sub.add_parser("corr", help="final-pair correlations, multispecies chain")
    common(sp, n0=False, kind={"required": True}, decimal=True)
    sp.set_defaults(func=_cmd_corr)

    sp = sub.add_parser("partition", help="partition functions")
    sp.add_argument(
        "--model", choices=("b", "d", "semiperm", "tworow"), required=True
    )
    common(sp, rates=True, decimal=True)
    sp.set_defaults(func=_cmd_partition, format="text")

    sp = sub.add_parser("limdir", help="limiting direction of the reduced walk")
    sp.add_argument(
        "--method", choices=("closed", "lam", "walk"), default="closed"
    )
    walk_flags(sp)
    common(sp, n0=False, kind={"required": True}, decimal=True)
    sp.set_defaults(func=_cmd_limdir, format="text")

    sp = sub.add_parser("walk", help="Monte Carlo alcove walk")
    walk_flags(sp)
    sp.add_argument("--svg", metavar="PATH", default=None)
    common(sp, n0=False, kind={"required": True}, formats=("json",))
    sp.set_defaults(func=_cmd_walk, **_walk_defaults())

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument(
        "--suite",
        choices=sorted(verify_mod.SUITES),
        required=True,
    )
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--k-max", dest="k_max", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = make_parser()
    args, extra = parser.parse_known_args(argv)
    prog = f"{parser.prog} {args.command}"
    if extra:
        parser.exit(2, f"{prog}: error: unrecognized arguments: {' '.join(extra)}\n")
    if args.command == "stationary" and args.model in ("multi", "two") and not args.kind:
        parser.exit(2, f"{prog}: error: --model {args.model} needs --kind\n")
    if args.command == "limdir" and args.method == "walk":
        if args.decimal is not None:
            parser.exit(2, f"{prog}: error: --decimal does not apply to --method walk "
                        "(its direction is a float estimate)\n")
        if args.format == "csv":
            parser.exit(2, f"{prog}: error: --method walk writes text or json, not csv\n")
    elif args.command == "limdir":
        for flag in ("steps", "trials", "seed"):
            if getattr(args, flag) is not None:
                parser.exit(2, f"{prog}: error: --{flag} applies only to --method walk\n")
    if args.command == "walk" and args.svg:
        if args.n != 2:
            parser.exit(2, f"{prog}: error: --svg needs --n 2 (SVG dumps are rank 2 only)\n")
        why = _unwritable(args.svg)
        if why:
            parser.exit(2, f"{prog}: error: cannot write --svg {args.svg}: {why}\n")
    if args.command == "verify":
        for flag, suites in VERIFY_FLAGS.items():
            if getattr(args, flag) is not None and args.suite not in suites:
                option = "--" + flag.replace("_", "-")
                parser.exit(2, f"{prog}: error: suite {args.suite} does not read {option}\n")
    try:
        return args.func(args)
    except WeylTasepError as exc:
        parser.exit(2, f"{prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
