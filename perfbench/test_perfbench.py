"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import walklang  # noqa: E402
import walklang.cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
NAMES = list(workloads.WORKLOADS)

# the stages each workload must reach, by the calls the traced run counts
REACHED = {
    "sweep-seq": ("walk.evolve", "encoding.encode", "metrics.jaro", "machines.build",
                  "walk.measure", "coins.unitarity"),
    "qinput": ("walk.evolve", "encoding.encode", "metrics.fidelity", "machines.build"),
    "replay": ("walk.evolve", "walk.parse", "graph.parse", "coins.unitarity",
               "walk.measure"),
}


def cli_output(name: str, workdir: Path, seed: int = SEED) -> bytes:
    """Set a tiny workload up and run its CLI command in this process."""
    w = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    argv = w.prepare(walklang, workdir, w.smoke_size, seed)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert walklang.cli.main(argv) == 0
    if w.output_file == "stdout.txt":
        return captured.getvalue().encode()
    return (workdir / w.output_file).read_bytes()


def corrupt(output: bytes) -> bytes:
    """Change the last non-zero digit of the first data line with a decimal point."""
    text = output.decode()
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line[:1].isdigit() or line.startswith(("a", "b")):
            for j in range(len(line) - 1, -1, -1):
                if line[j] in "123456789" and "." in line[:j]:
                    lines[i] = line[:j] + ("2" if line[j] == "1" else "1") + line[j + 1:]
                    return "".join(lines).encode()
    raise AssertionError("no digit to corrupt")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    w = workloads.WORKLOADS[name]
    result = run.measure(name, SEED, 0, trace, size=w.smoke_size)
    text = io.StringIO()
    run.report(result, text)
    final = json.loads(run.final_line([result], prefix=False))

    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = final["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in text.getvalue().splitlines()
        )
    assert result["digest_checked"]
    assert "ops_failed_frac 0.0000" in text.getvalue()


@pytest.mark.parametrize("name", NAMES)
def test_digest_and_oracle_pass_and_corruption_fails(name, tmp_path, monkeypatch):
    size = workloads.WORKLOADS[name].smoke_size
    output = cli_output(name, tmp_path)
    good = workloads.check(name, output, size, SEED, tmp_path)
    assert good["ok"] and good["digest_checked"], good["problems"]
    assert good["oracle_worst"] <= workloads.ORACLE_TOL

    bad = workloads.check(name, corrupt(output), size, SEED, tmp_path)
    assert not bad["ok"]
    assert any("sha256" in p for p in bad["problems"])

    # the oracle alone also notices, with no digest to compare against
    monkeypatch.setattr(workloads, "DIGESTS", {})
    assert not workloads.check(name, corrupt(output), size, SEED, tmp_path)["ok"]


def test_corrupted_output_counts_as_failed(monkeypatch):
    real = run.read_output
    monkeypatch.setattr(run, "read_output", lambda d, n: corrupt(real(d, n)))
    result = run.measure("sweep-seq", SEED, 0, 0, size=workloads.WORKLOADS["sweep-seq"].smoke_size)
    final = json.loads(run.final_line([result], prefix=False))
    assert final["failed"] == final["attempted"] >= 1
    assert final["correct"] is False


@pytest.mark.parametrize("name", NAMES)
def test_traced_output_is_byte_identical_and_restored(name, tmp_path):
    from walklang import machines, walk

    originals = (walk.evolve, machines.evolve, walk.CoinAssignment.from_text,
                 walk.CoinAssignment.__dict__["from_text"], walklang.cli.main)
    plain = cli_output(name, tmp_path / "plain")
    tracer = spans.Tracer().install()
    try:
        assert walk.evolve is not originals[0]
        assert machines.evolve is walk.evolve
        traced = cli_output(name, tmp_path / "traced")
    finally:
        tracer.restore()
    assert traced == plain
    assert (walk.evolve, machines.evolve, walk.CoinAssignment.from_text,
            walk.CoinAssignment.__dict__["from_text"], walklang.cli.main) == originals

    summary = tracer.summary()
    assert tracer.missing == []
    assert summary["trace.self_sum_error_ns"] == 0
    layer_sum = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(summary["trace.wall_s"], rel=1e-9, abs=1e-9)
    stage_sum = sum(summary[f"{stage}_s"] for stage in spans.STAGES)
    assert stage_sum <= summary["trace.wall_s"] + 1e-9
    for stage in REACHED[name]:
        assert summary[f"{stage}_calls"] > 0, stage
    assert summary["walk.steps"] > 0 and summary["walk.nonfinite"] == 0
    assert summary["walk.max_norm_drift"] < 1e-12
    assert summary["trace.hook_errors"] == 0


def test_missing_wrapped_name_is_flagged_not_fatal(tmp_path):
    tracer = spans.Tracer(expected=("walk.evolve", "walk.no_such_function")).install()
    try:
        cli_output("sweep-seq", tmp_path)
    finally:
        tracer.restore()
    assert tracer.missing == ["walk.no_such_function"]
    assert tracer.summary()["trace.missing_names"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
