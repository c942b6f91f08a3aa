"""The benchmark's workloads: operations on exact-answer complexes, with checks.

Each workload is a list of operations.  An operation calls into hypmet
through module attributes (so that a tracer installed later sees the call)
and its check compares the output with a computation made apart from hypmet
(`reference`) or with a property the method must have.  A check raises
CheckError; the runner counts that operation as failed.

Operations marked `probe` exercise a known fault on inputs that do not depend
on the seed.  They fail every time today, so their failures are counted
without making the run incorrect.

Complexes are the n-fold cyclic covers of the figure-eight fixture
(`covers`), with T = 2n tetrahedra and 2n edge classes of valence 6, and the
two 2-tetrahedron fixtures.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypmet import cli, solver, triangulation

import covers
import reference as ref

VERTEX_SLOTS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
IDEAL_AMPLITUDE = 0.25  # ideal round trips: l* uniform in +-0.25
HYPER_AMPLITUDE = 0.2  # hyper round trips: l* uniform in arccosh 2 +- 0.2
ANGLE_TOL = 1e-7
W_TOL = 1e-7
REGULAR_HYPER_CONE = 6.0 * ref.REGULAR_HYPER_ANGLE  # valence 6, regular hyper-ideal angles


class CheckError(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    probe: bool = False
    kind: str = ""  # operations of one kind differ only in their seeded target

    def __post_init__(self):
        self.kind = self.kind or self.name


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def expect_close(what, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    expect(err <= tol, f"{what}: max error {err:.3g} > {tol:.1g}")


# ---------------------------------------------------------------- complexes


class Fixtures:
    """Base gluings read from the repository's fixtures directory."""

    def __init__(self, root):
        self.root = root
        self.fig8 = covers.load_gluing(root / "fixtures" / "fig8.json")

    def path(self, name):
        return str(self.root / "fixtures" / f"{name}.json")

    def cover(self, tets):
        return covers.cyclic_cover(self.fig8, covers.FIG8_COCYCLE, tets // 2)

    def complex(self, tri):
        return triangulation.build_complex(triangulation.GluingSpec.from_dict(tri))


def cone_angles_of(c, slot_angles):
    """Instance sums of per-slot angles, shape (T, 6), over each edge class."""
    k = np.zeros(c.num_edges)
    np.add.at(k, c.edge_index.ravel(), np.asarray(slot_angles).ravel())
    return k


def slot_angles_of(c, lengths, kernel):
    return np.array([kernel(lengths[c.edge_index[t]]) for t in range(c.n_tets)])


def gauge_residual(c, d):
    """Largest entry of d after removing its least-squares fit by the decoration gauge."""
    b = np.zeros((c.num_edges, c.num_vertices))
    for e, (u, v) in enumerate(c.edge_endpoints):
        b[e, u] += 1.0
        b[e, v] += 1.0
    w, *_ = np.linalg.lstsq(b, d, rcond=None)
    return float(np.max(np.abs(d - b @ w)))


@dataclass
class RoundTrip:
    """A target made from seeded lengths l*, with its reference angles."""

    lengths: np.ndarray
    angles: np.ndarray  # (T, 6) per-slot reference angles
    k: np.ndarray


def ideal_round_trip(c, rng):
    lengths = rng.uniform(-IDEAL_AMPLITUDE, IDEAL_AMPLITUDE, c.num_edges)
    angles = slot_angles_of(c, lengths, ref.ideal_angles)
    return RoundTrip(lengths, angles, cone_angles_of(c, angles))


def hyper_round_trip(c, rng):
    lengths = ref.REGULAR_HYPER_LENGTH + rng.uniform(-HYPER_AMPLITUDE, HYPER_AMPLITUDE, c.num_edges)
    angles = slot_angles_of(c, lengths, ref.hyper_angles)
    return RoundTrip(lengths, angles, cone_angles_of(c, angles))


def check_w(result):
    expect(abs(result.w_value + 2.0 * result.volume) <= W_TOL, f"W + 2 vol = {result.w_value + 2 * result.volume:.3g}")


def check_ideal_round_trip(c, rt):
    def check(result):
        expect_close("ideal angles", result.assignment, rt.angles[:, :3], ANGLE_TOL)
        res = gauge_residual(c, result.lengths - rt.lengths)
        expect(res <= ANGLE_TOL, f"l - l* leaves the gauge image by {res:.3g}")
        check_w(result)

    return check


def check_hyper_round_trip(rt):
    def check(result):
        expect_close("hyper lengths", result.lengths, rt.lengths, ANGLE_TOL)
        expect_close("hyper angles", result.assignment, rt.angles, ANGLE_TOL)
        check_w(result)

    return check


def solve_op(name, c, k, flavor, check, kind=""):
    return Op(name, lambda: solver.solve_metric(c, k, flavor), check, kind=kind)


# ---------------------------------------------------------------- workloads

# ideal-ladder: (T, number of round-trip targets) per rung.  A single
# target's descent work varies by about 11% (quartile spread) at T = 64, so
# each rung averages several targets.
IDEAL_RUNGS = ((2, 8), (4, 8), (8, 8), (16, 8), (32, 6), (64, 4))


def ideal_ladder(fx, rng):
    ops = []
    for tets, targets in IDEAL_RUNGS:
        c = fx.complex(fx.cover(tets))
        for j in range(targets):
            rt = ideal_round_trip(c, rng)
            kind = f"ideal-rt-T{tets}"
            ops.append(solve_op(f"{kind}-{j}", c, rt.k, "ideal", check_ideal_round_trip(c, rt), kind))
    return ops


# hyper-ladder: (T, number of round-trip targets) per rung, near the regular
# lengths, plus the regular target on one rung.
HYPER_RUNGS = ((2, 8), (4, 6), (8, 4), (16, 2), (32, 1))
HYPER_REGULAR_RUNG = 8


def check_regular_hyper(tets, volume):
    def check(result):
        expect_close("regular lengths", result.lengths, ref.REGULAR_HYPER_LENGTH, ANGLE_TOL)
        expect_close("regular angles", result.assignment, ref.REGULAR_HYPER_ANGLE, ANGLE_TOL)
        expect_close("regular volume", result.volume, tets * volume, 1e-7)
        check_w(result)

    return check


def hyper_ladder(fx, rng):
    ops = []
    for tets, targets in HYPER_RUNGS:
        c = fx.complex(fx.cover(tets))
        for j in range(targets):
            rt = hyper_round_trip(c, rng)
            kind = f"hyper-rt-T{tets}"
            ops.append(solve_op(f"{kind}-{j}", c, rt.k, "hyper", check_hyper_round_trip(rt), kind))
    c = fx.complex(fx.cover(HYPER_REGULAR_RUNG))
    k = np.full(c.num_edges, REGULAR_HYPER_CONE)
    volume = ref.regular_hyper_volume()
    ops.append(
        solve_op(f"hyper-regular-T{HYPER_REGULAR_RUNG}", c, k, "hyper", check_regular_hyper(HYPER_REGULAR_RUNG, volume))
    )
    return ops


# large-cover: the complete structure (the descent starts at the answer, so
# build, LP and final assembly take the time) and the hyper LP, on large
# covers.  The seed relabels the tetrahedra, which changes no answer.
LARGE_IDEAL = (128, 256, 512, 1024)
LARGE_HYPER_LP = (128, 256, 512)


def check_complete(tets, fig8_volume):
    def check(result):
        expect_close("complete-structure angles", result.assignment, math.pi / 3.0, ANGLE_TOL)
        expect_close("complete-structure volume", result.volume, tets // 2 * fig8_volume, 1e-9 * tets)
        check_w(result)

    return check


def check_hyper_lp(base_slack):
    def check(out):
        c, rep = out
        expect(rep.status == "positive_feasible", f"LP status {rep.status}")
        expect_close("max slack against the 2-tet base", rep.max_slack, base_slack, 1e-9)
        a = rep.witness
        expect(float(np.min(a)) >= rep.max_slack - 1e-9, "witness angle below the slack")
        vertex = np.stack([a[:, list(s)].sum(axis=1) for s in VERTEX_SLOTS])
        expect(float(np.max(vertex)) <= math.pi - rep.max_slack + 1e-9, "witness vertex sum above pi - slack")
        expect_close("witness cone angles", cone_angles_of(c, a), REGULAR_HYPER_CONE, 1e-9)

    return check


def large_cover(fx, rng):
    fig8_volume = 6.0 * ref.lobachevsky(math.pi / 3.0)
    ops = []

    def relabelled(tets):
        return covers.relabel(fx.cover(tets), rng.permutation(tets))

    for tets in LARGE_IDEAL:
        tri = relabelled(tets)

        def run(tri=tri):
            c = fx.complex(tri)
            return solver.solve_metric(c, np.full(c.num_edges, 2.0 * math.pi), "ideal")

        ops.append(Op(f"ideal-complete-T{tets}", run, check_complete(tets, fig8_volume)))
    base = fx.complex(fx.fig8)
    base_slack = solver.feasibility(base, np.full(base.num_edges, REGULAR_HYPER_CONE), "hyper").max_slack
    for tets in LARGE_HYPER_LP:
        tri = relabelled(tets)

        def run(tri=tri):
            c = fx.complex(tri)
            return c, solver.feasibility(c, np.full(c.num_edges, REGULAR_HYPER_CONE), "hyper")

        ops.append(Op(f"hyper-lp-T{tets}", run, check_hyper_lp(base_slack)))
    return ops


# certify-mix: many small operations on the two fixtures through the CLI and
# the library, plus two probes of the overflow faults.
RIGIDITY_STARTS = 10
DUALITY_SAMPLES = 20


def random_positive_ideal_k(c, rng, slack=0.15):
    """Cone angles of a random strictly positive ideal assignment."""
    alpha = rng.dirichlet((2.0, 2.0, 2.0), size=c.n_tets)
    alpha = slack / 3 + (1 - slack) * alpha
    quads = alpha * math.pi / alpha.sum(axis=1, keepdims=True)
    return cone_angles_of(c, np.hstack([quads, quads]))


def cli_call(*argv):
    code, report = cli.run([str(a) for a in argv])
    expect(code == 0, f"hypmet {argv[0]} exited {code}: {report.get('error')}")
    return report


def rigidity_op(name, path, flavor, k, seed):
    def run():
        return cli_call(
            "rigidity", "--flavor", flavor, "--triangulation", path, "--cone-angles", json.dumps(k.tolist()),
            "--starts", RIGIDITY_STARTS, "--seed", seed,
        )

    def check(report):
        expect(report["ok"], f"rigidity deviations {report['max_angle_deviation']:.3g}, {report['max_length_deviation']:.3g}")

    return Op(name, run, check)


def classify_op(name, path, flavor, rt):
    def run():
        return cli_call("classify", "--flavor", flavor, "--triangulation", path, "--cone-angles", json.dumps(rt.k.tolist()))

    def check(report):
        verdicts = {v["verdict"] for v in report["verdicts"]}
        expect(verdicts == {"realized"}, f"verdicts {verdicts}")
        expect(report["residuals"]["w_plus_2vol"] <= W_TOL, "W + 2 vol")
        angles = rt.angles[:, :3] if flavor == "ideal" else rt.angles
        expect_close(f"{flavor} classify angles", report["angles"], angles, ANGLE_TOL)

    return Op(name, run, check)


def duality_op(name, c, flavor, rt, seed):
    def run():
        result = solver.solve_metric(c, rt.k, flavor)
        return result, solver.duality_gap(c, rt.k, result, samples=DUALITY_SAMPLES, seed=seed)

    def check(out):
        result, gap = out
        expect(gap <= 1e-8, f"duality gap {gap:.3g}")
        check_w(result)

    return Op(name, run, check)


def angles_probe(name, path, lengths, want):
    def run():
        return cli_call("angles", "--flavor", "hyper", "--triangulation", path, "--lengths", json.dumps(lengths))

    def check(report):
        expect_close("angles", report["angles"], want, ANGLE_TOL)

    return Op(name, run, check, probe=True)


def certify_mix(fx, rng):
    ops = []
    symmetric = {
        ("fig8", "ideal"): 2.0 * math.pi,
        ("fig8", "hyper"): REGULAR_HYPER_CONE,
        ("double_tet", "ideal"): 2.0 * math.pi / 3.0,
        ("double_tet", "hyper"): 2.0 * ref.REGULAR_HYPER_ANGLE,
    }
    for name in ("fig8", "double_tet"):
        path = fx.path(name)
        c = triangulation.build_complex(triangulation.load_triangulation(path))
        for flavor in ("ideal", "hyper"):
            k = np.full(c.num_edges, symmetric[name, flavor])
            ops.append(rigidity_op(f"rigidity-{name}-{flavor}-symmetric", path, flavor, k, 0))
            make = ideal_round_trip if flavor == "ideal" else hyper_round_trip
            ops.append(classify_op(f"classify-{name}-{flavor}", path, flavor, make(c, rng)))
            ops.append(duality_op(f"duality-{name}-{flavor}", c, flavor, make(c, rng), int(rng.integers(1 << 31))))
        k = random_positive_ideal_k(c, rng)
        ops.append(rigidity_op(f"rigidity-{name}-ideal-random", path, "ideal", k, int(rng.integers(1 << 31))))
    path = fx.path("double_tet")
    flat = [math.pi, 0.0, 0.0, math.pi, 0.0, 0.0]
    ops.append(angles_probe("angles-hyper-flat-overflow", path, [400, 1, 1, 400, 1, 1], [flat, flat]))
    ops.append(angles_probe("angles-hyper-800", path, [800] * 6, math.pi / 3.0))
    return ops


WORKLOADS = {
    "ideal-ladder": ideal_ladder,
    "hyper-ladder": hyper_ladder,
    "large-cover": large_cover,
    "certify-mix": certify_mix,
}


def interleave(ops):
    """Spread each kind's operations evenly over the round.

    This machine's speed drifts within seconds; a kind whose operations ran
    back to back would be timed in one short window per round and pick up
    that drift, while spread out it samples the whole run.
    """
    kinds = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    keyed = [((j + 0.5) / len(group), op) for group in kinds.values() for j, op in enumerate(group)]
    return [op for _, op in sorted(keyed, key=lambda item: item[0])]


def build(name, seed, root):
    """The operations of workload `name`, in round order; the same seed gives the same inputs."""
    return interleave(WORKLOADS[name](Fixtures(root), np.random.default_rng(seed)))
