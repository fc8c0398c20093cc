#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout and a change, written as one BENCH file.

    git archive <parent-commit> | tar -x -C ../parent
    python3 tools/bench_pairs.py --parent ../parent --parent-commit <parent-commit> \\
        --label <label> --seeds <first>-<last> --out BENCH_<label>.json

The current directory is the change's checkout.  Each pair runs
``perfbench/run.py --workload W --seed N --trace 0`` for every workload on
both sides, at perfbench's own run length, one seed per pair, the parent
first in even pairs and the change first in odd ones; the summary gives,
per workload and end-to-end metric, each side's median and quartiles and
the number of pairs the change won (higher ``items_per_s`` wins, lower
otherwise).  Then one ``TRACE_SECONDS`` ``--trace 1`` run per side and
workload gives the per-layer numbers, and ``walklang verify`` is timed
``VERIFY_RUNS`` times in fresh processes, the sides alternating.
Every process runs BLAS on one thread.

``COMPILE_TIMES`` is specific to the light-cone programs of
``walk.Program``: it times the compile of each program the workloads
build.  A sweep and a qinput time the machine's one program, the one its
constructor compiles: ``walk.Program(m.coins, m.steps, np.ravel(m.slot_indices))``.
``QINPUT_RSS`` gives each side's fresh-process peak RSS of the 16-symbol
qinput at ``QINPUT_POINTS`` eta points, and from the two runs the bytes
each added grid row costs.
``--seeds`` must be two integers ``first-last`` naming at least two seeds,
since the summary takes quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep-seq", "qinput", "replay")
END_TO_END = ("wall_s", "items_per_s", "peak_rss_mb", "setup_s")
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": "src"}
TRACE_SECONDS = 6
VERIFY_RUNS = 10

# run in a checkout: the median compile time, in ms, of each program a workload builds
COMPILE_TIMES = r"""
import json, statistics, time
import numpy as np
from walklang import machines, walk

def ms(make, reps=15):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        make()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 4)

out = {}

def program(m):
    return walk.Program(m.coins, m.steps, np.ravel(m.slot_indices))

def every_port(coins, steps):
    every = np.arange(coins.graph.num_ports)
    return lambda: walk.Program(coins, steps, every)

for n in range(1, 13):
    m = machines.machine_for_length("seq-eq", n)
    out[f"sweep-seq: seq-eq n={n}, machine program, {m.steps} steps"] = ms(lambda: program(m))
m = machines.machine_for_length("spatial-eq", 8)
out["qinput: spatial-eq n=8, machine program"] = ms(lambda: program(m))
out["qinput: spatial-eq n=8, reference evolve"] = ms(every_port(m.coins, m.steps))
m = machines.sequential_ab(4)
out["verify: seq-ab n=4, every port, 10^4 steps"] = ms(every_port(m.coins, 10_000), reps=3)
m = machines.spatial_eq(500)
out["replay: spatial-eq n=1000, every port, 3 steps"] = ms(every_port(m.coins, 3), reps=5)
print(json.dumps(out))
"""

# run in a checkout with the eta points as argument: the peak RSS, in KiB (ru_maxrss
# on Linux), of one process that runs the 16-symbol seq-eq qinput
QINPUT_RSS = r"""
import resource, sys, tempfile
from walklang import cli

with tempfile.TemporaryDirectory() as out:
    code = cli.main(["qinput", "--family", "seq-eq", "--base", "aaaaaaaabbbbbbbb",
                     "--eta-points", sys.argv[1], "--out", f"{out}/qinput.csv"])
if code != 0:
    sys.exit(code)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
QINPUT_POINTS = (2, 11)
QINPUT_WORDS = 2**16 - 1  # the base's other words: grid rows per eta point


def bench(root: Path, workload: str, seed: int, trace: int,
          seconds: float | None = None) -> dict:
    """The final line of one perfbench run; ``seconds`` None keeps perfbench's run length."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def verify_seconds(root: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "walklang", "verify"], cwd=root, env=ENV,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def qinput_peak_kib(root: Path, points: int) -> int:
    done = subprocess.run([sys.executable, "-c", QINPUT_RSS, str(points)], cwd=root, env=ENV,
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def source_digest(root: Path) -> str:
    """sha256 over the names and bytes of a checkout's ``src/walklang/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "walklang").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent-commit", required=True, help="recorded as the parent's commit")
    parser.add_argument("--seeds", required=True, help="first-last, one seed per pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    try:
        first, last = map(int, args.seeds.split("-"))
    except ValueError:
        parser.error(f"--seeds {args.seeds} is not two integers first-last")
    if last <= first:
        parser.error(f"--seeds {args.seeds} names fewer than two seeds")
    sides = {"parent": args.parent.resolve(), "change": Path.cwd()}

    runs = []
    for pair, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            for workload in WORKLOADS:
                line = bench(sides[side], workload, seed, 0)
                runs.append({"pair": pair, "seed": seed, "side": side, "workload": workload,
                             "first": side == order[0], "final_line": line})
                print(pair, side, workload, json.dumps(line["metrics"]["wall_s"]), flush=True)

    summary = {}
    for workload in WORKLOADS:
        for metric in END_TO_END:
            value = {(r["pair"], r["side"]): r["final_line"]["metrics"][metric]["value"]
                     for r in runs if r["workload"] == workload}
            pairs = sorted({pair for pair, _ in value})
            parent = [value[p, "parent"] for p in pairs]
            change = [value[p, "change"] for p in pairs]
            higher = metric == "items_per_s"
            won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            p, c = spread(parent), spread(change)
            summary[f"{workload}/{metric}"] = {
                **{f"parent_{k}": v for k, v in p.items()},
                **{f"change_{k}": v for k, v in c.items()},
                "change_better_pairs": won, "pairs": len(pairs),
                "change_vs_parent": c["median"] / p["median"] - 1.0,
            }

    traced = {side: {w: bench(root, w, first, 1, TRACE_SECONDS)["metrics"]
                     for w in WORKLOADS} for side, root in sides.items()}
    verify = {side: [] for side in sides}
    for run in range(VERIFY_RUNS):
        for side in ("parent", "change") if run % 2 == 0 else ("change", "parent"):
            verify[side].append(verify_seconds(sides[side]))
    verify = {side: {"seconds": times, **spread(times)} for side, times in verify.items()}
    compile_ms = {side: json.loads(subprocess.run(
        [sys.executable, "-c", COMPILE_TIMES], cwd=root, env=ENV, capture_output=True,
        text=True, check=True).stdout) for side, root in sides.items()}
    low, high = QINPUT_POINTS
    qinput_rss = {}
    for side, root in sides.items():
        kib = {points: qinput_peak_kib(root, points) for points in QINPUT_POINTS}
        qinput_rss[side] = {"peak_rss_kib": kib, "bytes_per_added_row":
                            (kib[high] - kib[low]) * 1024 / (QINPUT_WORDS * (high - low))}
    describe = subprocess.run([sys.executable, "perfbench/run.py", "--describe"],
                              cwd=sides["change"], env=ENV, capture_output=True, text=True,
                              check=True)

    record = {
        "label": args.label,
        "command": " ".join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
        "design": (f"{last - first + 1} pairs, seeds {first}-{last}, one seed per pair; the "
                   "parent ran first in even pairs and the change first in odd ones; each side "
                   "from its own checkout with the same perfbench/; end-to-end times are the "
                   "benchmark's speed-normalised medians over its default run length per run "
                   f"(--trace 0); traced holds one {TRACE_SECONDS} s --trace 1 run per side "
                   "and workload"),
        "parent": args.parent_commit,
        "source_sha256": {side: source_digest(root) for side, root in sides.items()},
        "failed_outputs": {side: sum(r["final_line"]["failed"] for r in runs if r["side"] == side)
                           for side in sides},
        "environment": json.loads(describe.stdout),
        "summary": summary,
        "verify_wall_s": verify,
        "compile_ms": compile_ms,
        "qinput_rss": qinput_rss,
        "traced": traced,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
