"""Command-line front end: parse a triangulation, run solvers, emit JSON.

Commands: validate, angles, volume, solve, max-angles, classify, rigidity.
Every run writes a single JSON report to stdout (or --output) and exits with
0 on success, 1 on malformed input, 2 on an infeasible target, and 3 on
numerical failure.  An unreadable or non-UTF-8 triangulation, a vector
entry that is not a JSON number, a negative --seed and an unwritable
--output (reported on stdout) are malformed input.  When the descent runs
out of iterations or of line-search steps, the error carries the solver's
diagnostics (the residual norm, the objective and the flavor or iteration)
under "diagnostics".  Reports echo the inputs and are byte-identical for
identical inputs and seed; wall-clock timings are only included when
--timings is passed, since they would break that determinism.

Angles are radians throughout.  Vectors over edges follow the stable edge
ids assigned by the builder, which `validate` prints together with each
edge's instances; curvature targets are converted to cone angles by
k = 2*pi - K on the (interior) edges of the closed complexes the solver
accepts.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .errors import (
    DomainError,
    GluingError,
    HypmetError,
    LineSearchError,
    MaxIterationsError,
    NotPositiveFeasibleError,
    NumericalError,
    UnsupportedAngleTypeError,
)
from .metrics import _evaluate_metric, angles_of_metric, cone_angles, curvature
from .solver import (
    SolveOptions,
    classify_maximizer,
    rigidity_check,
    solve_metric,
)
from .triangulation import build_complex, load_triangulation

__all__ = ["run", "main"]


@functools.cache
def _build_parser():
    """The hypmet argument parser, built once per process.

    parse_args returns a fresh Namespace on every call, so one parser
    serves any number of commands.
    """
    parser = argparse.ArgumentParser(
        prog="hypmet",
        description="Ideal and hyper-ideal hyperbolic polyhedral metrics on "
        "triangulated pseudo 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("validate", "build the complex and report its combinatorics"),
        ("angles", "dihedral angles, cone angles and curvature of a metric"),
        ("volume", "volume and covolume of a metric"),
        ("solve", "solve for the metric with prescribed cone angles"),
        ("max-angles", "maximum-volume angle assignment for prescribed cone angles"),
        ("classify", "solve, then classify each tetrahedron of the maximizer"),
        ("rigidity", "multi-start rigidity check for prescribed cone angles"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--triangulation", required=True, help="path to the JSON gluing file")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        if name == "validate":
            continue
        p.add_argument("--flavor", choices=("ideal", "hyper"), required=True)
        if name in ("angles", "volume"):
            p.add_argument("--lengths", required=True, help="JSON array of edge lengths")
        else:
            p.add_argument("--cone-angles", help="JSON array of target cone angles")
            p.add_argument("--curvature", help="JSON array of target curvatures")
            p.add_argument("--tol", type=float, default=1e-9)
            p.add_argument("--max-iter", type=int, default=5000)
            p.add_argument("--seed", type=int, default=0)
            if name == "rigidity":
                p.add_argument("--starts", type=int, default=10)
    return parser


def _parse_vector(text, size, what):
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise DomainError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or len(data) != size:
        raise DomainError(f"{what} must be a JSON array of length {size}")
    # JSON's true and false would read as 1 and 0, its strings as their numbers
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data):
        raise DomainError(f"{what} must contain numbers, got {data}")
    try:
        return np.asarray([float(v) for v in data])
    except OverflowError as exc:
        raise DomainError(f"{what} must contain numbers a float can hold: {exc}") from exc


def _target(args, c):
    has_k = getattr(args, "cone_angles", None) is not None
    has_curv = getattr(args, "curvature", None) is not None
    if has_k == has_curv:
        raise DomainError("exactly one of --cone-angles and --curvature is required")
    if has_k:
        k = _parse_vector(args.cone_angles, c.num_edges, "--cone-angles")
        echo = {"cone_angles": k.tolist()}
    else:
        kk = _parse_vector(args.curvature, c.num_edges, "--curvature")
        k = 2.0 * math.pi - kk
        echo = {"curvature": kk.tolist(), "cone_angles": k.tolist()}
    return k, echo


def _edge_table(c):
    return [
        {
            "id": eid,
            "instances": [[int(t), int(s)] for t, s in cls],
            "endpoints": [int(v) for v in c.edge_endpoints[eid]],
            "boundary": bool(c.edge_boundary[eid]),
        }
        for eid, cls in enumerate(c.edge_classes)
    ]


def _solve_report(result):
    return {
        "lengths": result.lengths.tolist(),
        "angles": result.assignment.tolist(),
        "achieved_cone_angles": result.achieved_cone_angles.tolist(),
        "volume": result.volume,
        "w": result.w_value,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "converged": True,
        "residuals": {
            "cone_angle": float(
                np.max(np.abs(result.achieved_cone_angles - result.target_cone_angles))
            ),
            "w_plus_2vol": abs(result.w_value + 2.0 * result.volume),
        },
    }


def _execute(args):
    spec = load_triangulation(args.triangulation)
    try:
        c = build_complex(spec)
    except MemoryError as exc:
        raise GluingError(f"the complex does not fit in memory: {exc}") from exc
    report = {"command": args.command, "triangulation": args.triangulation}

    if args.command == "validate":
        report.update(
            {
                "tets": c.n_tets,
                "edges": c.num_edges,
                "vertices": c.num_vertices,
                "closed": c.closed,
                "edge_table": _edge_table(c),
            }
        )
        return report

    report["flavor"] = args.flavor
    if args.command in ("angles", "volume"):
        lengths = _parse_vector(args.lengths, c.num_edges, "--lengths")
        report["lengths"] = lengths.tolist()
        if args.command == "angles":
            assignment = angles_of_metric(c, lengths, args.flavor)
            k = cone_angles(c, assignment)
            report.update(
                {
                    "angles": assignment.tolist(),
                    "cone_angles": k.tolist(),
                    "curvature": curvature(c, k).tolist(),
                }
            )
        else:
            # one evaluation gives all three; hyper lengths must be positive
            kernel, value, grad = _evaluate_metric(c, lengths, args.flavor)
            report.update(
                {
                    "volume": float(kernel.vol[0].sum()),
                    "covolume": value,
                    "cone_angles": grad.tolist(),
                }
            )
        return report

    k, echo = _target(args, c)
    report.update(echo)
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    report["options"] = {"tol": args.tol, "max_iter": args.max_iter, "seed": args.seed}

    if args.command == "solve":
        result = solve_metric(c, k, args.flavor, opts=opts)
        report.update(_solve_report(result))
    elif args.command == "max-angles":
        result = solve_metric(c, k, args.flavor, opts=opts)
        report.update({"angles": result.assignment.tolist(), "volume": result.volume})
    elif args.command == "classify":
        result = solve_metric(c, k, args.flavor, opts=opts)
        report.update(_solve_report(result))
        report["verdicts"] = [
            {"tet": v.tet, "verdict": v.verdict, "residual": v.residual}
            for v in classify_maximizer(c, result)
        ]
    elif args.command == "rigidity":
        rep = rigidity_check(c, k, args.flavor, starts=args.starts, opts=opts, seed=args.seed)
        report.update(
            {
                "ok": rep.ok,
                "starts": rep.starts,
                "max_angle_deviation": rep.max_angle_deviation,
                "max_length_deviation": rep.max_length_deviation,
                "tolerance": rep.tolerance,
                "iterations": rep.iterations,
            }
        )
    return report


def _malformed(exc):
    return {"error": {"code": "malformed_input", "message": str(exc)}}


def _run(argv):
    """Parse and execute one command: (exit_code, report or None, parsed args or None).

    The report is None when argparse has printed help and asked to exit 0;
    the parsed args are None when argv does not parse.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if not exc.code:
            return 0, None, None
        return 1, {"error": {"code": "usage", "message": "bad arguments"}}, None

    start = time.perf_counter()
    try:
        report = _execute(args)
    except (GluingError, DomainError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return 1, _malformed(exc), args
    except (NotPositiveFeasibleError, UnsupportedAngleTypeError) as exc:
        return 2, {"error": {"code": "infeasible", "message": str(exc)}}, args
    except (NumericalError, HypmetError) as exc:
        error = {"code": "numerical_failure", "message": str(exc)}
        if isinstance(exc, (MaxIterationsError, LineSearchError)):
            error["diagnostics"] = exc.diagnostics
        return 3, {"error": error}, args
    if args.timings:
        report["timings"] = {"total_seconds": time.perf_counter() - start}
    return 0, report, args


def run(argv):
    """Execute one command; returns (exit_code, report dict).

    The report is None after --help, whose text argparse prints itself.
    """
    code, report, _ = _run(argv)
    return code, report


def main(argv=None):
    code, report, args = _run(sys.argv[1:] if argv is None else list(argv))
    if report is None:
        return code
    path = getattr(args, "output", None)
    if path and "error" not in report:
        try:
            with open(path, "w") as fh:
                fh.write(json.dumps(report, indent=2) + "\n")
            return code
        except OSError as exc:  # reported on stdout instead
            code, report = 1, _malformed(exc)
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; keep the exit flush from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
