#!/usr/bin/env python3
"""End-to-end desk check on the shipped fixtures.

For each fixture and flavor: LP feasibility of a symmetric cone-angle
target, covolume minimization, maximizer classification, a sampled duality
gap, and a multi-start rigidity check; then a target on the boundary of the
positive ones (LP status nonnegative_only), which the solver must refuse
with NotPositiveFeasibleError.  Prints a compact report with timings; exits
nonzero if anything disagrees with the theory.

Usage: python scripts/verify_fixtures.py [--starts N] [--samples N]
"""

import argparse
import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hypmet.errors import NotPositiveFeasibleError
from hypmet.solver import classify_maximizer, duality_gap, feasibility, rigidity_check, solve_metric
from hypmet.triangulation import build_complex, load_triangulation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run_case(name, c, k, flavor, starts, samples):
    t0 = time.perf_counter()
    rep = feasibility(c, k, flavor)
    result = solve_metric(c, k, flavor)
    verdicts = classify_maximizer(c, result)
    gap = duality_gap(c, k, result, samples=samples, seed=0)
    rigid = rigidity_check(c, k, flavor, starts=starts, seed=0)
    elapsed = time.perf_counter() - t0

    ok = (
        rep.positive
        and result.grad_norm <= 1e-9
        and gap <= 1e-8
        and rigid.ok
        and abs(result.w_value + 2 * result.volume) <= 1e-7
    )
    print(f"== {name} / {flavor}")
    print(f"   feasibility     {rep.status} (slack {rep.max_slack:.6f})")
    print(f"   solve           {result.iterations} iters, |k_l - k| = {result.grad_norm:.2e}")
    print(f"   lengths         {np.array2string(result.lengths, precision=7)}")
    print(f"   volume          {result.volume:.10f}   W = {result.w_value:.10f}")
    print(f"   verdicts        {[v.verdict for v in verdicts]}")
    print(f"   duality gap     {gap:.2e} over {samples} samples")
    print(
        f"   rigidity        {starts} starts, angle dev {rigid.max_angle_deviation:.2e}, "
        f"length dev {rigid.max_length_deviation:.2e}"
    )
    print(f"   [{'ok' if ok else 'FAILED'}] ({elapsed:.2f}s)")
    return ok


def run_refusal(name, c, k, flavor):
    status = feasibility(c, k, flavor).status
    t0 = time.perf_counter()
    try:
        solve_metric(c, k, flavor)
        outcome = "solved"
    except NotPositiveFeasibleError as exc:
        outcome = f"refused: {exc}"
    elapsed = time.perf_counter() - t0

    ok = status == "nonnegative_only" and outcome.startswith("refused")
    print(f"== {name} / {flavor} boundary target")
    print(f"   feasibility     {status}")
    print(f"   solve           {outcome}")
    print(f"   [{'ok' if ok else 'FAILED'}] ({1e3 * elapsed:.1f}ms)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--starts", type=int, default=10)
    parser.add_argument("--samples", type=int, default=500)
    args = parser.parse_args()

    fig8 = build_complex(load_triangulation(FIXTURES / "fig8.json"))
    dbl = build_complex(load_triangulation(FIXTURES / "double_tet.json"))

    equi = math.acos(2.0 / 3.0)
    cases = [
        ("fig8", fig8, np.full(2, 2 * math.pi), "ideal"),
        ("fig8", fig8, np.full(2, 6 * equi), "hyper"),  # 6 instances per edge
        ("double_tet", dbl, np.full(6, 2 * math.pi / 3), "ideal"),
        ("double_tet", dbl, np.full(6, 2 * equi), "hyper"),
    ]
    # zero cone angles force zero angles; angles pi/3 fill every vertex sum to pi
    boundary = [
        ("fig8", fig8, np.array([4 * math.pi, 0.0]), "ideal"),
        ("fig8", fig8, np.full(2, 2 * math.pi), "hyper"),
        ("double_tet", dbl, np.array([2 * math.pi, 0, 0, 2 * math.pi, 0, 0]), "ideal"),
        ("double_tet", dbl, np.full(6, 2 * math.pi / 3), "hyper"),
    ]
    ok = True
    for name, c, k, flavor in cases:
        ok &= run_case(name, c, k, flavor, args.starts, args.samples)
    for name, c, k, flavor in boundary:
        ok &= run_refusal(name, c, k, flavor)
    print("all cases ok" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
