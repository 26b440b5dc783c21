"""Runs one workload of the benchmark over several seeds and prints, per
metric, the median and the quartile spread (Q3 - Q1) as a share of the
median, as `statistics.quantiles(values, n=4)` gives the quartiles.

    python3 e2ebench/steady.py <workload> <first-seed> <count> [--trace 1]

Run from the repository root.
"""
import json
import statistics
import subprocess
import sys
import time


def main():
    workload, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    trace = sys.argv[5] if len(sys.argv) > 5 and sys.argv[4] == "--trace" else "0"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in range(first, first + count):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", trace,
        ]
        t = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.time() - t:.1f} s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" bound {bound} (target < {bound / 3:.3f})" if bound else ""
        print(f"{name:32} median {med:14.6g} spread {spread:7.4f}{note}")
        print("    " + " ".join(f"{v:.5g}" for v in vs))


if __name__ == "__main__":
    main()
