"""Command-line interface.

Subcommands:
    verify <kind>    run a registered experiment and emit a report; rate fits
                     in the summary use the cells with n >= --fit-min-n
    numrange         certify a matrix from a JSON file against D(alpha)
    constants        print the contour constants for a semi-angle
    report           merge previously emitted report files; a JSON merge
                     sums the inputs' certification_failures and
                     majorant_failures, and recounts slack_only_passes

Exit codes: 0 all bound checks passed, 1 some bound violated (numrange: some
boundary point lies outside D(alpha)), 2 usage or I/O error (also dim, trials
or nmax below 1, a seed outside [0, 2^64), a non-finite --fit-min-n, an
input too large to allocate, or a report --merge input that is not a
well-formed report or whose stored ratio or passed flag differs from the
one its empirical and bound give), an
argument outside the domain of a formula (e.g. alpha outside [0, pi/2), t <
0, t non-finite, t = 0 for ritt, norm_chernoff and contour_reconstruction, an
epsilon whose n/eps^2 is not a finite float), a numrange --points that is
odd or outside 16..65536 (refused before the sweep allocates), a numrange
matrix whose sweep overflows, a matrix exponential of spectral norm above
MAX_EXPM_NORM = 1e6 (refused, never clipped), or a numerical failure
(singular resolvent, or a contour quadrature that no trial contour proves
within CONTOUR_QUAD_TOL).
verify leaves draws or steps that fail certification out of the records and
counts them in the summary; they do not change the exit code, unless no record
is left: then verify exits 2 with an error line that gives their count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import bounds, numrange, report
from .errors import (
    DomainError, InsufficientDataError, InvalidInputError, NotAContractionError, SingularityError,
)
from .harness import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from .tolerances import ABS_SLACK, REL_SLACK, TOL_GEO


def _parse_ts(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one value")
    return values


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=EXPERIMENT_KINDS)
    p.add_argument("--dim", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--t", dest="ts", type=_parse_ts,
                   help="comma-separated t values (epsilon grid for poisson_split)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiapprox",
        description="Certify semigroup-approximation error bounds on matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags left unset are absent, so the ExperimentConfig defaults apply
    p_verify = sub.add_parser("verify", help="run an experiment and check its bounds",
                              argument_default=argparse.SUPPRESS)
    _add_experiment_flags(p_verify)
    p_verify.add_argument("--fit-min-n", dest="fit_min_n", type=float,
                          help="smallest n used by the rate fits in the summary")

    p_nr = sub.add_parser("numrange", help="certify a matrix against D(alpha)")
    p_nr.add_argument("--input", required=True, help="JSON file {dim, re, im}")
    p_nr.add_argument("--alpha", type=float, required=True)
    p_nr.add_argument("--points", type=int, default=256,
                      help="sweep angles: an even number from 16 to 65536")

    p_const = sub.add_parser("constants", help="print contour constants for alpha")
    p_const.add_argument("--alpha", type=float, required=True)

    p_rep = sub.add_parser("report", help="merge report files")
    p_rep.add_argument("--merge", nargs="+", required=True)
    p_rep.add_argument("--out", required=True)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() on first use; parsing leaves no state in it, so later calls share it."""
    return build_parser()


def _emit(records, summary, args) -> int:
    data = report.emit_report(records, args.fmt, summary=summary)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    all_passed = all(r.passed for r in records)
    print(
        f"slack: relative={REL_SLACK:g} absolute={ABS_SLACK:g}; "
        f"records={len(records)} all_passed={all_passed}",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


def _cmd_verify(args) -> int:
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    config = ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})
    result = run_experiment(config)
    return _emit(result.records, result.summary, args)


def _cmd_numrange(args) -> int:
    with open(args.input) as fh:
        matrix = report.load_matrix_json(json.load(fh))
    numrange.check_alpha(args.alpha)  # before --points, and before any eigenvalue is solved
    points = numrange.numerical_range_boundary(matrix, args.points)
    dists = numrange.distance_to_D_alpha(points, args.alpha)
    worst = int(dists.argmax())
    max_violation = float(dists[worst])
    passed = max_violation <= TOL_GEO
    try:
        est = numrange.min_semi_angle(matrix, points)
    except NotAContractionError:
        est = None
    out = {
        "alpha": args.alpha,
        "points": args.points,
        "passed": passed,
        "max_violation": max_violation,
        "worst_point": {"re": points[worst].real, "im": points[worst].imag},
        "min_semi_angle": est,
        "boundary_points": [{"re": z.real, "im": z.imag} for z in points],
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0 if passed else 1


def _cmd_constants(args) -> int:
    k = bounds.k_alpha(args.alpha)
    out = {
        "alpha": args.alpha,
        "k_alpha": k.value,
        "argmin_alpha_prime": k.alpha_prime,
        "l_alpha": bounds.l_alpha(args.alpha),
        "euler_upper_constant": bounds.euler_upper_constant(args.alpha),
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _cmd_report(args) -> int:
    fmts = {("json" if name.endswith(".json") else "csv") for name in args.merge}
    if len(fmts) != 1:
        raise InvalidInputError("report --merge requires a single input format")
    fmt = fmts.pop()
    chunks = []
    for name in args.merge:
        with open(name, "rb") as fh:
            chunks.append(report.parse_report(fh.read(), fmt))
    records, summary = report.merge_reports(chunks)
    data = report.emit_report(records, fmt, summary=summary)
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0 if all(r.passed for r in records) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "numrange":
            return _cmd_numrange(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "report":
            return _cmd_report(args)
    except (
        OSError, UnicodeDecodeError, json.JSONDecodeError, MemoryError, InvalidInputError,
        DomainError, SingularityError, InsufficientDataError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
