#!/usr/bin/env python3
"""Time round-trip solves of two hypmet source trees in one process.

Loads this repository's src/hypmet as the package `hypmet` and
PATH/src/hypmet as `hypmet_parent`, builds the benchmark's seeded round-trip
targets (perfbench/workloads.py: seeded lengths l* on the figure-eight cyclic
covers of T tetrahedra and their reference cone angles), TARGETS per cover
size from default_rng(SEED), and solves every target with both trees, round
after round.  The tree that runs first alternates from round to round.  Both
trees must take the same number of iterations on every target and agree on
its angle assignment to 1e-10, or the run stops.  The angles are what the
descent converges in (cone angles to 1e-9); the lengths are their inverse
image, whose rounding grows with the conditioning of H: at T = 2048 two
orderings of one factorization give ideal lengths 3e-12 apart.  The largest
length and angle gaps over all rounds are printed at the end.

Prints each round's time per tree and the median and quartiles of the
ratio (this tree) / (parent tree) over the rounds.  Alternating in one
process cancels most of the host's drift, which separate processes do not.

Usage: python scripts/ab_compare.py --parent PATH --flavor hyper|ideal
           [--tets 2,4,8,16,32] [--rounds 40]
"""

import argparse
import importlib.util
import os
import pathlib
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hypmet.solver  # noqa: E402
import workloads  # noqa: E402

TARGETS = 2  # round-trip targets per cover size
SEED = 0
ANGLE_TOL = 1e-10


def load_tree(src, name):
    """The hypmet package under src, imported as the package `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "hypmet" / "__init__.py", submodule_search_locations=[str(src / "hypmet")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("triangulation", "solver"):
        importlib.import_module(f"{name}.{sub}")
    return module


def build(tree, tri):
    return tree.triangulation.build_complex(tree.triangulation.GluingSpec.from_dict(tri))


def solve_all(tree, complexes, ks, flavor):
    start = time.perf_counter()
    results = [tree.solver.solve_metric(c, k, flavor) for c, k in zip(complexes, ks)]
    return time.perf_counter() - start, results


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=pathlib.Path, help="root of the other source tree")
    parser.add_argument("--flavor", required=True, choices=("hyper", "ideal"))
    parser.add_argument("--tets", default="2,4,8,16,32", help="comma-separated cover sizes (even)")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    tets = [int(t) for t in args.tets.split(",")]
    if any(t < 2 or t % 2 for t in tets) or args.rounds < 1:
        parser.error("cover sizes must be even and at least 2; rounds positive")

    trees = {"parent": load_tree(args.parent.resolve() / "src", "hypmet_parent"), "this": hypmet}
    fx = workloads.Fixtures(ROOT)
    round_trip = workloads.hyper_round_trip if args.flavor == "hyper" else workloads.ideal_round_trip
    rng = np.random.default_rng(SEED)
    tris = [fx.cover(t) for t in tets for _ in range(TARGETS)]
    complexes = {name: [build(tree, tri) for tri in tris] for name, tree in trees.items()}
    ks = [round_trip(c, rng).k for c in complexes["this"]]
    for a, b in zip(*complexes.values()):
        if not np.array_equal(a.edge_index, b.edge_index):
            sys.exit("the two trees number the edge classes of a cover differently")

    times = {name: [] for name in trees}
    order = list(trees)
    gaps = {"lengths": 0.0, "angles": 0.0}
    for r in range(args.rounds):
        results = {}
        for name in order if r % 2 == 0 else order[::-1]:
            elapsed, results[name] = solve_all(trees[name], complexes[name], ks, args.flavor)
            times[name].append(elapsed)
        for i, (a, b) in enumerate(zip(results["parent"], results["this"])):
            if a.iterations != b.iterations:
                sys.exit(f"target {i}: {a.iterations} iterations (parent) against {b.iterations} (this)")
            gap = float(np.max(np.abs(a.assignment - b.assignment)))
            if gap > ANGLE_TOL:
                sys.exit(f"target {i}: angle assignments differ by {gap:.3g} > {ANGLE_TOL:g}")
            gaps["angles"] = max(gaps["angles"], gap)
            gaps["lengths"] = max(gaps["lengths"], float(np.max(np.abs(a.lengths - b.lengths))))
        print(
            f"round {r:3d}: parent {1e3 * times['parent'][-1]:8.2f} ms   this {1e3 * times['this'][-1]:8.2f} ms",
            flush=True,
        )

    ratio = np.array(times["this"]) / np.array(times["parent"])
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(
        f"{args.flavor} round trips, T = {args.tets}, {len(ks)} targets, {args.rounds} rounds: "
        f"parent {1e3 * np.median(times['parent']):.2f} ms, this {1e3 * np.median(times['this']):.2f} ms "
        f"per round (medians); ratio this/parent median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}; "
        f"largest gaps: lengths {gaps['lengths']:.2g}, angles {gaps['angles']:.2g}"
    )


if __name__ == "__main__":
    main()
