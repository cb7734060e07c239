"""Run the benchmark over several seeds and report each end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 benchmarks/repeat.py [--workloads A,B] [--seeds 1-10] [--out FILE]

Each (workload, seed) pair is one `run.py --trace 0` invocation of the
configured run length.  For every metric this prints the median and
quartiles over the seeds and the spread (q3 - q1) / median, which must stay
under a third of the metric's bound for the benchmark to count as steady.
--out writes those figures, with the environment of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary, steady = {}, True
    for workload in args.workloads.split(","):
        values, env, failed = {name: [] for name in bounds}, None, 0
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            failed += result["failed"] + (not result["correct"])
            env = env or [line for line in lines if line.startswith("env: ")]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4f}" for n in bounds), flush=True)
        summary[workload] = {"env": env, "failed": failed, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3 or name == "setup_s"
            steady = steady and ok and failed == 0
            summary[workload]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                                  "n": len(vals), "spread": spread,
                                                  "bound": bounds[name], "values": vals}
            print(f"  {workload:<18} {name:<12} median {med:12.6f} [{q1:.6f}, {q3:.6f}] "
                  f"spread {spread:.4f} bound {bounds[name]} {'ok' if ok else 'WIDE'}")
        print(f"  {workload:<18} failed commands or checks: {failed}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
