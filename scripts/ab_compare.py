#!/usr/bin/env python3
"""Time round-trip solves of two hypmet source trees in one process.

Loads this repository's src/hypmet as the package `hypmet` and
PATH/src/hypmet as `hypmet_parent`, builds the benchmark's seeded round-trip
targets (perfbench/workloads.py: seeded lengths l* on the figure-eight cyclic
covers of T tetrahedra and their reference cone angles), TARGETS per cover
size from default_rng(SEED), and solves every target with both trees, round
after round.  The tree that runs first alternates from round to round.  Both
trees must take the same number of iterations on every target, report
objective traces of the same length and agree on its angle assignment to
1e-10, or the run stops.  The angles are what the descent converges in
(cone angles to 1e-9); the lengths are their inverse image, whose rounding
grows with the conditioning of H: at T = 2048 two orderings of one
factorization give ideal lengths 3e-12 apart.  The largest gaps over all
rounds of the lengths, the angles, the volume, W and the objective traces
are printed at the end.  The traces are read after the timed solves, through
solver.objective_trace, or a result's objective_trace list where a tree has
no such function.

Prints each round's time per tree and the median and quartiles of the
ratio (this tree) / (parent tree) over the rounds.  Alternating in one
process cancels most of the host's drift, which separate processes do not.

With --fresh it times fresh complexes instead, as the benchmark's
large-cover `ideal-complete` operation makes them: each cover of T
tetrahedra is relabelled by a permutation from default_rng(SEED), and every
round each tree parses it (GluingSpec.from_dict), builds it (build_complex)
and solves its complete structure (cone angles 2 pi, ideal flavor), the
three timed apart.  Every Complex array and every result field of the two
trees must be bit-identical, or the run stops.  The ratio is reported per
cover size, with each phase's median time per tree.

With --rigidity it times solver.rigidity_check with RIGIDITY_STARTS starts,
the lockstep of many starts, instead: on fig8, double_tet and the fig8 cover
of 16 tetrahedra, in both flavors, for TARGETS seeded round-trip targets
each, every round with both trees.  The two trees' reports must have the
same iteration lists and the same deviations, bit for bit, or the run stops.

Usage: python scripts/ab_compare.py --parent PATH --flavor hyper|ideal
           [--tets 2,4,8,16,32] [--rounds 40]
       python scripts/ab_compare.py --parent PATH --fresh
           [--tets 128,256,512,1024] [--rounds 40]
       python scripts/ab_compare.py --parent PATH --rigidity [--rounds 40]
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

import covers  # noqa: E402
import hypmet.solver  # noqa: E402
import workloads  # noqa: E402

TARGETS = 2  # round-trip targets per cover size
SEED = 0
RIGIDITY_STARTS = 10
RIGIDITY_COMPLEXES = ("fig8", "double_tet", 16)  # fixtures, and fig8 covers by size
ANGLE_TOL = 1e-10
PHASES = ("from_dict", "build_complex", "solve")
# what must match bit for bit between the trees in --fresh mode
COMPLEX_ARRAYS = ("edge_index", "vertex_index", "edge_boundary", "edge_endpoints")
RESULT_FIELDS = (
    "lengths", "assignment", "achieved_cone_angles", "target_cone_angles",
    "volume", "w_value", "objective", "iterations", "grad_norm", "path",
)


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


def trace(tree, c, res):
    """The objective trace of res, by the tree's objective_trace where it has one."""
    if hasattr(tree.solver, "objective_trace"):
        return tree.solver.objective_trace(c, res)
    return res.objective_trace


def solve_all(tree, complexes, ks, flavor):
    start = time.perf_counter()
    results = [tree.solver.solve_metric(c, k, flavor) for c, k in zip(complexes, ks)]
    return time.perf_counter() - start, results


def fresh(tree, tri):
    """Parse, build and solve the complete structure of tri: the three times and the complex and result."""
    t0 = time.perf_counter()
    spec = tree.triangulation.GluingSpec.from_dict(tri)
    t1 = time.perf_counter()
    c = tree.triangulation.build_complex(spec)
    t2 = time.perf_counter()
    res = tree.solver.solve_metric(c, np.full(c.num_edges, 2.0 * np.pi), "ideal")
    t3 = time.perf_counter()
    return (t1 - t0, t2 - t1, t3 - t2), c, res


def bits(c, res):
    """Everything of a complex and a result that --fresh compares, as bytes."""
    arrays = [getattr(c, name) for name in COMPLEX_ARRAYS]
    arrays += [c.incidence.indices, c.incidence.indptr, c.incidence.data]
    arrays += [np.asarray(getattr(res, name)) for name in RESULT_FIELDS]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays] + [c.n_tets, c.closed, c.incidence.shape]


def compare_fresh(trees, tets, rounds):
    fx = workloads.Fixtures(ROOT)
    rng = np.random.default_rng(SEED)
    tris = [covers.relabel(fx.cover(t), rng.permutation(t)) for t in tets]
    times = {name: np.zeros((rounds, len(tets), len(PHASES))) for name in trees}
    order = list(trees)
    for r in range(rounds):
        for i, (t, tri) in enumerate(zip(tets, tris)):
            out = {}
            for name in order if r % 2 == 0 else order[::-1]:
                times[name][r, i], *out[name] = fresh(trees[name], tri)
            if bits(*out["parent"]) != bits(*out["this"]):
                sys.exit(f"T = {t}: the trees' complexes or results differ")
        total = {name: 1e3 * times[name][r].sum() for name in trees}
        print(f"round {r:3d}: parent {total['parent']:8.2f} ms   this {total['this']:8.2f} ms", flush=True)

    for i, t in enumerate(tets):
        ratio = times["this"][:, i].sum(axis=1) / times["parent"][:, i].sum(axis=1)
        q1, med, q3 = np.percentile(ratio, [25, 50, 75])
        phases = ", ".join(
            f"{phase} {1e3 * np.median(times['parent'][:, i, j]):.3f} -> {1e3 * np.median(times['this'][:, i, j]):.3f} ms"
            for j, phase in enumerate(PHASES)
        )
        print(
            f"fresh complex T = {t}, {rounds} rounds: ratio this/parent median {med:.3f}, "
            f"quartiles {q1:.3f}-{q3:.3f}, lower in {int(np.sum(ratio < 1))}/{rounds}; {phases} (medians)"
        )


def rigidity_reports(tree, cases):
    """The rigidity_check report of each (complex, flavor, target, seed) of cases, and the time they took."""
    start = time.perf_counter()
    reports = [
        tree.solver.rigidity_check(c, k, flavor, starts=RIGIDITY_STARTS, seed=seed) for c, flavor, k, seed in cases
    ]
    return time.perf_counter() - start, reports


def compare_rigidity(trees, rounds):
    fx = workloads.Fixtures(ROOT)
    tris = [fx.cover(t) if isinstance(t, int) else covers.load_gluing(fx.path(t)) for t in RIGIDITY_COMPLEXES]
    labels = [f"fig8 cover T = {t}" if isinstance(t, int) else t for t in RIGIDITY_COMPLEXES]
    complexes = {name: [build(tree, tri) for tri in tris] for name, tree in trees.items()}
    rng = np.random.default_rng(SEED)
    targets = []  # (complex index, flavor, target, seed)
    for i, c in enumerate(complexes["this"]):
        for flavor, round_trip in (("ideal", workloads.ideal_round_trip), ("hyper", workloads.hyper_round_trip)):
            targets += [(i, flavor, round_trip(c, rng).k, int(rng.integers(1 << 31))) for _ in range(TARGETS)]
    cases = {name: [(complexes[name][i], flavor, k, seed) for i, flavor, k, seed in targets] for name in trees}

    times = {name: [] for name in trees}
    order = list(trees)
    for r in range(rounds):
        reports = {}
        for name in order if r % 2 == 0 else order[::-1]:
            elapsed, reports[name] = rigidity_reports(trees[name], cases[name])
            times[name].append(elapsed)
        for (i, flavor, _, _), a, b in zip(targets, reports["parent"], reports["this"]):
            same = (a.ok, a.iterations, a.max_angle_deviation, a.max_length_deviation) == (
                b.ok, b.iterations, b.max_angle_deviation, b.max_length_deviation
            )
            if not same:
                sys.exit(f"{labels[i]} {flavor}: the trees' rigidity reports differ: {a} against {b}")
        print(
            f"round {r:3d}: parent {1e3 * times['parent'][-1]:8.2f} ms   this {1e3 * times['this'][-1]:8.2f} ms",
            flush=True,
        )

    ratio = np.array(times["this"]) / np.array(times["parent"])
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(
        f"rigidity_check, {RIGIDITY_STARTS} starts, {len(targets)} targets on "
        f"{', '.join(labels)}, {rounds} rounds: "
        f"parent {1e3 * np.median(times['parent']):.2f} ms, this {1e3 * np.median(times['this']):.2f} ms "
        f"per round (medians); ratio this/parent median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
        f"lower in {int(np.sum(ratio < 1))}/{rounds}; iteration lists and deviations identical"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=pathlib.Path, help="root of the other source tree")
    parser.add_argument("--flavor", choices=("hyper", "ideal"))
    parser.add_argument("--fresh", action="store_true", help="time fresh complexes (see above)")
    parser.add_argument("--rigidity", action="store_true", help="time rigidity_check's lockstep (see above)")
    parser.add_argument("--tets", help="comma-separated cover sizes (even)")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    if (args.flavor is not None) + args.fresh + args.rigidity != 1:
        parser.error("give exactly one of --flavor, --fresh and --rigidity")
    if args.rigidity and args.tets:
        parser.error("--rigidity takes no --tets")
    tets = [int(t) for t in (args.tets or ("128,256,512,1024" if args.fresh else "2,4,8,16,32")).split(",")]
    if any(t < 2 or t % 2 for t in tets) or args.rounds < 1:
        parser.error("cover sizes must be even and at least 2; rounds positive")

    trees = {"parent": load_tree(args.parent.resolve() / "src", "hypmet_parent"), "this": hypmet}
    if args.rigidity:
        compare_rigidity(trees, args.rounds)
        return
    if args.fresh:
        compare_fresh(trees, tets, args.rounds)
        return
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
    gaps = dict.fromkeys(("lengths", "angles", "volume", "W", "trace"), 0.0)
    for r in range(args.rounds):
        results = {}
        for name in order if r % 2 == 0 else order[::-1]:
            elapsed, results[name] = solve_all(trees[name], complexes[name], ks, args.flavor)
            times[name].append(elapsed)
        for i, (a, b) in enumerate(zip(results["parent"], results["this"])):
            if a.iterations != b.iterations:
                sys.exit(f"target {i}: {a.iterations} iterations (parent) against {b.iterations} (this)")
            fa = trace(trees["parent"], complexes["parent"][i], a)
            fb = trace(trees["this"], complexes["this"][i], b)
            if len(fa) != len(fb):
                sys.exit(f"target {i}: objective traces of {len(fa)} (parent) and {len(fb)} (this) values")
            gap = float(np.max(np.abs(a.assignment - b.assignment)))
            if gap > ANGLE_TOL:
                sys.exit(f"target {i}: angle assignments differ by {gap:.3g} > {ANGLE_TOL:g}")
            for name, got in (
                ("angles", gap),
                ("lengths", np.max(np.abs(a.lengths - b.lengths))),
                ("volume", abs(a.volume - b.volume)),
                ("W", abs(a.w_value - b.w_value)),
                ("trace", np.max(np.abs(np.subtract(fa, fb)))),
            ):
                gaps[name] = max(gaps[name], float(got))
        print(
            f"round {r:3d}: parent {1e3 * times['parent'][-1]:8.2f} ms   this {1e3 * times['this'][-1]:8.2f} ms",
            flush=True,
        )

    ratio = np.array(times["this"]) / np.array(times["parent"])
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(
        f"{args.flavor} round trips, T = {','.join(map(str, tets))}, {len(ks)} targets, {args.rounds} rounds: "
        f"parent {1e3 * np.median(times['parent']):.2f} ms, this {1e3 * np.median(times['this']):.2f} ms "
        f"per round (medians); ratio this/parent median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}; "
        "largest gaps: " + ", ".join(f"{name} {gap:.2g}" for name, gap in gaps.items())
    )


if __name__ == "__main__":
    main()
