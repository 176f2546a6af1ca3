"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 0,1,...] [--trace 0|1] [--out FILE]

Run from the repository root.  For every workload it runs run.py once per
seed with BENCHMARK.json's ``run_seconds`` and prints, per end-to-end metric,
the median of the values and the distance between their first and third
quartile as a share of that median, next to the metric's bound.  ``--out``
writes the machine info, every run's values and raw samples, and the
summaries to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(map(str, range(10))))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, "result": result, "info": info})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary = {}
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {
                "unit": m["unit"],
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "bound": m.get("bound"),
            }
            s = summary[m["name"]]
            if m.get("bound") is not None:
                print(f"  {m['name']:<14} median {s['median']:.6g} {m['unit']}  "
                      f"spread {s['spread']:.4f}  bound {m['bound']}  "
                      f"{'ok' if s['spread'] < m['bound'] / 3 else 'WIDE'}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        report["machine"] = runs[0]["info"]["machine"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
