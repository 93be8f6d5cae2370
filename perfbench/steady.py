"""Runs the benchmark on several seeds and prints each metric's median
and spread (the distance between the first and third quartile as a share
of the median), next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload serve-mixed --seeds 5
    python3 perfbench/steady.py --workload paper-exact --seeds 10 --trace 1

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        host = [l.strip() for l in proc.stderr.splitlines() if "process CPU" in l]
        print(f"seed {seed}: correct={rep['correct']} attempted={rep['attempted']} failed={rep['failed']}; "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(rep["metrics"].items()))
              + (f"; {host[0]}" if host else ""), flush=True)
        for name, m in rep["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}  unit")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and med != 0:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread <= bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"{name:34} {med:14.6g} {spread:8.4f} {bound if bound is not None else '':>6}  {units[name]}{flag}")


if __name__ == "__main__":
    main()
