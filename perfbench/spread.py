#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload, runs the command of BENCHMARK.json once per seed and
prints, per metric, the median over seeds and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound. With --same-seed it instead runs
one seed twice and reports whether virt_op_ns is bit-identical.

Run from the repository root:

    python3 perfbench/spread.py --workloads p2p_small,rma_pscw --seeds 1-10
    python3 perfbench/spread.py --workloads all --same-seed 7
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds, trace):
    full = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(full, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_shape(bench):
    """Fail on a BENCHMARK.json outside the shape the benchmark promises."""
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= int(bench["run_seconds"]) <= 60
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def check_metrics(bench, out, trace):
    """The run's metrics must be exactly the listed ones, with their units."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--same-seed", type=int, default=None)
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    check_shape(bench)
    cmd = bench["command"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    if args.same_seed is not None:
        for w in workloads:
            a, _ = run(cmd, w, args.same_seed, args.seconds, 0)
            b, _ = run(cmd, w, args.same_seed, args.seconds, 0)
            va = a["metrics"]["virt_op_ns"]["value"]
            vb = b["metrics"]["virt_op_ns"]["value"]
            print(f"{w:<12} virt_op_ns {va!r} vs {vb!r} identical={va == vb}")
        return

    for w in workloads:
        values, walls = {}, []
        for seed in seeds_of(args.seeds):
            out, wall = run(cmd, w, seed, args.seconds, args.trace)
            walls.append(wall)
            check_metrics(bench, out, args.trace)
            if not out["correct"] or out["failed"]:
                raise SystemExit(f"{w} seed {seed}: incorrect output {out}")
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, v in values.items():
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<32} median {med:>16.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            if args.raw:
                print("    " + " ".join(f"{x:.6g}" for x in v))


if __name__ == "__main__":
    main()
