"""Summarize the runs recorded in perfbench/results/.

    python3 perfbench/summarize.py

For every workload and metric it prints the number of runs, the median, the
first and third quartiles and the quartile spread (q3 - q1) / median, the
figure the bounds in BENCHMARK.json are set against.  Untraced runs give the
end-to-end metrics, traced runs the per-layer metrics.
"""

import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def main():
    runs = {}
    for path in sorted(RESULTS.glob("*.json")):
        detail = json.loads(path.read_text())
        key = (detail["workload"], path.stem.endswith("trace1"))
        for name, metric in detail["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    for (workload, traced), metrics in sorted(runs.items()):
        print(f"{workload} ({'traced' if traced else 'untraced'})")
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {name:44s} n={len(values):2d} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
            else:
                print(f"  {name:44s} n={len(values):2d} value {med:.6g}")


if __name__ == "__main__":
    main()
