#!/usr/bin/env python3
"""walklang benchmark: the real CLI, closed loop, one command in flight.

    python3 perfbench/run.py --workload sweep-seq --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --describe

Run from the root of a source checkout; walklang is imported from its
``src/``.  A set-up process imports walklang and writes the workload's
inputs (``setup_s``); each repetition is a run process that calls
``walklang.cli.main(argv)`` once (``wall_s``; its ``ru_maxrss`` is
``peak_rss_mb``).  Repetitions follow one another until the next one
would overrun ``--seconds``; every metric is the median over them.  BLAS
runs single-threaded and no worker pool is used.

``wall_s`` and ``setup_s`` are given at a fixed reference host speed:
the child processes time a small probe loop every 50 ms while they work
and rescale by it (``child.SpeedProbe``), because the shared host drifts
by +-20% over minutes.  The raw median is printed next to them.

Every output is checked against its recorded sha256 and a closed-form
oracle (``workloads.py``); a failed check counts in ``failed``.  With
``--trace 1`` each repetition runs the CLI twice on the same inputs,
plain and inside span wrappers (``spans.py``), and reports the per-layer
metrics of the traced run and the tracing overhead.  Spans are written
to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and the spread over repetitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

import workloads  # noqa: E402

BLAS_THREADS = "1"
# a run gives up (and counts what is left as failed) this long after it starts,
# so it ends within three minutes whatever --seconds says
DEADLINE_S = 170
# a fresh set-up precedes a repetition while set-ups have taken less than
# this share of the time spent in repetitions: a 0.1 s set-up repeats before
# every repetition, replay's 4 s export before every few
SETUP_SHARE = 0.25
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("graph", "coins", "walk", "encoding", "machines", "metrics", "cli")},
    "walk.evolve_s": "s",
    "walk.evolve_calls": "count",
    "walk.steps": "count",
    "walk.port_steps": "count",
    "walk.coin_macs": "count",
    "walk.ns_per_port_step": "ns",
    "walk.bytes_computed": "B",
    "walk.measure_s": "s",
    "walk.measure_calls": "count",
    "walk.parse_s": "s",
    "walk.parse_bytes": "B",
    "graph.parse_s": "s",
    "coins.unitarity_s": "s",
    "coins.unitarity_entries": "count",
    "encoding.encode_s": "s",
    "encoding.encode_calls": "count",
    "machines.build_s": "s",
    "machines.build_calls": "count",
    "metrics.jaro_s": "s",
    "metrics.jaro_calls": "count",
    "metrics.fidelity_s": "s",
    "metrics.fidelity_calls": "count",
    "walk.max_norm_drift": "abs",
    "walk.nonfinite": "count",
    "cli.max_clamp": "abs",
    "cli.nan_acceptance": "count",
    "coins.max_unitarity_defect": "abs",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
    "trace.missing_names": "count",
}
# per-layer times, rescaled by the same factor as their run's wall_s
TIMED = {name for name, unit in PER_LAYER.items() if unit in ("s", "ns")}


class ChildFailed(RuntimeError):
    pass


def child(spec: dict, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{spec['mode']} process stopped at the run deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{spec['mode']} process exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_output(workdir: Path, name: str) -> bytes:
    return (workdir / name).read_bytes()


def run_cli(spec: dict, deadline: float) -> dict:
    """One run process on prepared inputs, with its output check."""
    w = workloads.WORKLOADS[spec["workload"]]
    try:
        run = child(spec, deadline)
    except ChildFailed as exc:
        run = {"check": {"ok": False, "problems": [str(exc)]}}
    else:
        if run["exit_code"] != 0:
            run["check"] = {"ok": False, "problems": [f"exit code {run['exit_code']}"]}
        else:
            workdir = Path(spec["workdir"])
            output = read_output(workdir, w.output_file)
            run["check"] = workloads.check(
                spec["workload"], output, spec["size"], spec["seed"], workdir
            )
    run["trace"] = spec["trace"]
    return run


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(workload: str, seed: int, seconds: float, trace: int, size: int | None = None) -> dict:
    """Repeat the workload for ``seconds`` and return its metrics and checks.

    A set-up process writes the inputs, again whenever set-ups have taken
    less than ``SETUP_SHARE`` of the repetitions' time; each repetition is
    one run process, or with ``trace`` a plain and a traced one on the
    same inputs.  A repetition is not begun when it would end after
    ``seconds``, unless none has run yet.
    """
    size = size or workloads.WORKLOADS[workload].size
    WORK.mkdir(exist_ok=True)
    TRACE_OUT.mkdir(exist_ok=True)
    traces = (0, 1) if trace else (0,)
    setups, runs = [], []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    longest_setup = longest_rep = setup_time = rep_time = 0.0
    workdir = None
    try:
        for index in itertools.count():
            fresh = setup_time <= SETUP_SHARE * rep_time
            needed = longest_rep + (longest_setup if fresh else 0.0)
            if index and time.monotonic() + needed > min(start + seconds, deadline):
                break
            if fresh:
                t = time.monotonic()
                if workdir is not None:
                    shutil.rmtree(workdir, ignore_errors=True)
                workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
                base = {"root": str(ROOT), "workload": workload, "size": size,
                        "seed": seed, "workdir": str(workdir)}
                setups.append(child({**base, "mode": "setup"}, deadline))
                setup_time += time.monotonic() - t
                longest_setup = max(longest_setup, time.monotonic() - t)
            t = time.monotonic()
            for flag in traces:
                runs.append(run_cli(
                    {**base, "mode": "run", "argv": setups[-1]["argv"], "trace": flag,
                     "run_id": f"{workload}-seed{seed}-rep{index}",
                     "spans_file": str(TRACE_OUT / f"spans-{workload}-seed{seed}.tsv")},
                    deadline,
                ))
            rep_time += time.monotonic() - t
            longest_rep = max(longest_rep, time.monotonic() - t)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    good = [run for run in runs if "wall_s" in run]
    plain = [run for run in good if not run["trace"]]
    traced = [run for run in good if run["trace"]]
    walls = [run["wall_s"] for run in plain]
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "attempted": len(runs),
        "failed": sum(1 for run in runs if not run["check"]["ok"]),
        "problems": [p for run in runs for p in run["check"].get("problems", [])][:5],
        "oracle_worst": max((run["check"].get("oracle_worst", 0.0) for run in runs), default=0.0),
        "digest_checked": all(run["check"].get("digest_checked", False) for run in runs),
        "env": setups[0]["env"],
        "walls": walls,
        "raw_walls": [run["raw_wall_s"] for run in plain],
        "setups": [setup["setup_s"] for setup in setups],
    }
    if not trace:
        result["metrics"] = {
            "wall_s": _median(walls),
            "items_per_s": _median([run["check"]["items"] / run["wall_s"] for run in plain]),
            "peak_rss_mb": _median([run["peak_rss_mb"] for run in plain]),
            "setup_s": _median(result["setups"]),
        }
    else:
        layers = [
            {k: v * run["wall_s"] / run["raw_wall_s"] if k in TIMED else v
             for k, v in run["layers"].items()}
            for run in traced
        ]
        merged = {k: _median([lay[k] for lay in layers]) for k in layers[0]} if layers else {}
        merged["trace.overhead_frac"] = (
            _median([run["wall_s"] for run in traced]) / _median(walls) - 1.0
        )
        result["extra"] = {k: v for k, v in merged.items() if k not in PER_LAYER}
        result["metrics"] = {k: merged.get(k, float("nan")) for k in PER_LAYER}
        result["missing"] = sorted({m for run in traced for m in run["missing"]})
    return result


def report(result: dict, out=sys.stdout) -> None:
    """Human-readable lines: metrics with units, spread and checks."""
    units = {**END_TO_END, **PER_LAYER}
    w = workloads.WORKLOADS[result["workload"]]
    out.write(f"# workload {result['workload']} seed {result['seed']} size {result['size']} "
              f"({w.size_is}); items are {w.items}\n")
    out.write(f"# env {json.dumps(result['env'], sort_keys=True)}\n")
    for name, value in result["metrics"].items():
        out.write(f"{name:<28} {value:>16.6g} {units[name]}\n")
    for name, value in result.get("extra", {}).items():
        out.write(f"# {name:<26} {value:>16.6g}\n")
    walls = sorted(result["walls"])
    spread = 0.0
    if len(walls) >= 2:
        q = statistics.quantiles(walls, n=4)
        spread = (q[2] - q[0]) / statistics.median(walls)
    out.write(f"# wall_s over {len(walls)} runs: min {walls[0]:.4f} median "
              f"{statistics.median(walls):.4f} max {walls[-1]:.4f} IQR/median {spread:.4f}\n"
              if walls else "# no successful run\n")
    if result["raw_walls"]:
        out.write(f"# raw wall_s median {statistics.median(result['raw_walls']):.4f} "
                  f"before scaling to the reference host speed\n")
    out.write(f"# ops_failed_frac {result['failed'] / result['attempted']:.4f} "
              f"({result['failed']} of {result['attempted']} outputs failed their check)\n")
    out.write(f"# oracle worst error {result['oracle_worst']:.3e}; sha256 "
              f"{'checked' if result['digest_checked'] else 'not recorded for this seed'}\n")
    for problem in result["problems"]:
        out.write(f"# FAILED {problem}\n")
    for name in result.get("missing", ()):
        out.write(f"# MISSING wrapped name {name}: reported with calls=0\n")


def final_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    units = {**END_TO_END, **PER_LAYER}
    for r in results:
        for name, value in r["metrics"].items():
            key = f"{r['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def describe() -> dict:
    """Environment and workload record (committed as ENVIRONMENT.json)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="describe-", dir=WORK))
    try:
        env = child({"root": str(ROOT), "workload": "sweep-seq", "seed": 0,
                     "size": workloads.WORKLOADS["sweep-seq"].smoke_size,
                     "workdir": str(workdir), "mode": "setup"},
                    time.monotonic() + DEADLINE_S)["env"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "environment": env,
        "loop": "closed: one caller, one CLI command in flight, no worker pool",
        "workloads": {
            name: {
                "why": w.why,
                "items": w.items,
                "size": f"{w.size_is} {w.size}",
            }
            for name, w in workloads.WORKLOADS.items()
        },
        "seed": "replay draws its word from --seed; sweep-seq and qinput are exhaustive "
                "and ignore it",
        "working_set": "replay's traced run reports walk.parse_bytes (the coin text) and "
                       "coins.unitarity_entries (16 B each): compare with the caches above",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the environment and workload record as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "walklang" / "__init__.py").is_file():
        print(f"no walklang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.describe:
            print(json.dumps(describe(), indent=2, sort_keys=True))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            results = [
                measure(name, args.seed, args.seconds, trace)
                for name in workloads.WORKLOADS for trace in (0, 1)
            ]
        else:
            results = [measure(args.workload, args.seed, args.seconds, args.trace)]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    print(final_line(results, prefix=args.workload == "all"))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
