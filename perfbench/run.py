"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ideal-ladder --seed 1 --seconds 30 --trace 0

The workload runs in this process, single-threaded, on the hypmet sources
in ../src.  Set-up (imports, inputs, references and one untimed warm-up
operation) is timed apart.  The measurement then repeats whole rounds of the
workload's operations until `--seconds` would be exceeded, checks every
output, and reports per-operation medians over the rounds:

  wall_s       sum over operations of the median time: one round's time
  op_p50_s     median over operation kinds of the mean of those medians
               (a kind is one rung of a ladder, or one operation)
  peak_rss_mb  peak resident size of the process
  setup_s      import time plus the median of SETUP_REPEATS set-ups

With --trace 1 each round is an untraced pass followed by a traced pass, and
it prints the per-layer metrics (per traced pass) instead, plus the tracing
overhead: traced minus untraced wall_s.  Per-operation results go to
perfbench/results/, spans to perfbench/results/*.spans.npz.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_pass(ops, times, tally):
    """Run every operation once, timing it and checking its output."""
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        times[op.name].append(perf_counter() - t0)
        tally["attempted"] += 1
        if error is None:
            try:
                op.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            tally["failed"] += 1
            if not op.probe:
                tally["wrong"].append(f"{op.name}: {type(error).__name__}: {error}")


def summarize(ops, times):
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(medians[op.name])
    return {
        "medians": medians,
        "samples": times,
        "wall_s": sum(medians.values()),
        "op_p50_s": statistics.median(statistics.mean(m) for m in by_kind.values()),
    }


def measure(ops, seconds, tracer=None):
    """Run whole rounds of ops while the slowest round so far still fits in `seconds`.

    With a tracer, each round is an untraced pass followed by a traced pass,
    so both see the same drift of the machine's speed.  Returns the summary
    of the untraced passes, and of the traced ones under "traced".
    """
    tally = {"attempted": 0, "failed": 0, "wrong": []}
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    rounds = 0
    slowest = 0.0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        run_pass(ops, plain, tally)
        if tracer is not None:
            tracer.install()
            try:
                run_pass(ops, traced, tally)
            finally:
                tracer.uninstall()
        rounds += 1
        now = perf_counter()
        slowest = max(slowest, now - round_start)
        if now - start + slowest > seconds:
            break
    result = dict(summarize(ops, plain), rounds=rounds, **tally)
    if tracer is not None:
        result["traced"] = summarize(ops, traced)
    return result


def layer_metrics(tracer, rounds):
    """Per-layer metrics per traced pass, from the tracer's spans and counters."""
    totals = tracer.layer_totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0] / rounds

    def self_s(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2] / rounds

    def per_call(layer, scale, inclusive=False):
        n, incl, own = totals.get(layer, (0, 0.0, 0.0))
        return scale * (incl if inclusive else own) / n if n else 0.0

    return {
        "lobachevsky.calls": (calls("lobachevsky"), "count"),
        "lobachevsky.self_us_per_call": (per_call("lobachevsky", 1e6), "us"),
        "ideal.cov_ideal.calls": (calls("ideal.cov_ideal"), "count"),
        "ideal.cov_ideal.self_us_per_call": (per_call("ideal.cov_ideal", 1e6), "us"),
        "ideal.phi_star.self_us_per_call": (per_call("ideal.phi_star", 1e6), "us"),
        "metrics.cov_complex.calls": (calls("metrics.cov_complex"), "count"),
        "metrics.cov_complex.self_s": (self_s("metrics.cov_complex"), "s"),
        "hyperideal.mu_segment_integral.calls": (calls("hyperideal.mu_segment_integral"), "count"),
        "hyperideal.mu_segment_integral.self_s": (self_s("hyperideal.mu_segment_integral"), "s"),
        "hyperideal.mu_segment_integral.ms_per_call": (
            per_call("hyperideal.mu_segment_integral", 1e3, inclusive=True),
            "ms",
        ),
        "hyperideal.angles.calls": (calls("hyperideal.angles"), "count"),
        "hyperideal.angles.self_us_per_call": (per_call("hyperideal.angles", 1e6), "us"),
        "triangulation.build_complex.self_s": (self_s("triangulation.build_complex"), "s"),
        "triangulation.gauge.self_s": (self_s("triangulation.gauge"), "s"),
        "solver.feasibility.self_s": (self_s("solver.feasibility"), "s"),
        "solver.linprog.self_s": (self_s("solver.linprog"), "s"),
        "solver.lp_bytes": (tracer.lp_bytes / rounds, "B"),
        "solver.iterations": (tracer.iterations / rounds, "count"),
        "solver.solve_metric.calls": (tracer.solve_calls / rounds, "count"),
        "solver.descent.self_s": (self_s("solver.descent"), "s"),
        "solver.rigidity_check.self_s": (self_s("solver.rigidity_check"), "s"),
        "solver.duality_gap.self_s": (self_s("solver.duality_gap"), "s"),
        "solver.classify_maximizer.self_s": (self_s("solver.classify_maximizer"), "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
    }


def main(argv=None):
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypmet").is_dir():
        print(f"perfbench: no hypmet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import resource

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t_start

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops = workloads.build(args.workload, args.seed, ROOT)
        warm = ops[0]
        warm.check(warm.run())
        setups.append(perf_counter() - t0)

    if args.trace:
        tracer = Tracer()
        run = measure(ops, args.seconds, tracer)
        layers = layer_metrics(tracer, run["rounds"])
        layers["trace.overhead_s"] = (run["traced"]["wall_s"] - run["wall_s"], "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        run = measure(ops, args.seconds)
        metrics = {
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "op_p50_s": {"value": run["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(out_dir / f"{stem}.spans.npz")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": run["rounds"],
        "op_median_s": run["medians"],
        "op_samples_s": run["samples"],
        "op_kind": {op.name: op.kind for op in ops},
        "setup_runs_s": setups,
        "import_s": import_s,
        "wrong": run["wrong"],
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for line in run["wrong"]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    result = {"correct": not run["wrong"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
