import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_times_run_in_this_checkout():
    bench_pairs = load_bench_pairs()
    done = subprocess.run([sys.executable, "-c", bench_pairs.COMPILE_TIMES], cwd=ROOT,
                          env=bench_pairs.ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    times = json.loads(done.stdout)
    sweep = [name for name in times if name.startswith("sweep-seq: ")]
    assert [name.split(",")[0] for name in sweep] == [
        f"sweep-seq: seq-eq n={n}" for n in range(1, 13)]
    assert all(", machine program, " in name for name in sweep)
    assert len(times) == len(sweep) + 4
    assert all(isinstance(ms, float) and ms > 0 for ms in times.values())


def test_qinput_rss_runs_in_this_checkout():
    bench_pairs = load_bench_pairs()
    low = bench_pairs.QINPUT_POINTS[0]
    assert low == 2
    # numpy alone takes more than 16 MiB; 131,070 rows take far less than 1 GiB
    assert 2**14 < bench_pairs.qinput_peak_kib(ROOT, low) < 2**20


def refused_before_any_run(tmp_path, *args) -> str:
    """The stderr of a ``bench_pairs`` run that must exit 2 without writing anything."""
    # neither directory holds a benchmark: a run started there would fail with exit 1
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_PAIRS), "--parent", str(tmp_path), "--label", "x",
         *args, "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert not out.exists()
    return done.stderr


@pytest.mark.parametrize("seeds", ["5-5", "9-5"])
def test_bench_pairs_refuses_fewer_than_two_seeds_before_any_run(tmp_path, seeds):
    stderr = refused_before_any_run(tmp_path, "--parent-commit", "0" * 40, "--seeds", seeds)
    assert f"--seeds {seeds} names fewer than two seeds" in stderr


@pytest.mark.parametrize("seeds", ["5", "a-b", "1-2-3", "-5"])
def test_bench_pairs_refuses_seeds_that_are_not_two_integers(tmp_path, seeds):
    stderr = refused_before_any_run(tmp_path, "--parent-commit", "0" * 40, f"--seeds={seeds}")
    assert f"--seeds {seeds} is not two integers first-last" in stderr


def test_bench_pairs_requires_the_parent_commit(tmp_path):
    stderr = refused_before_any_run(tmp_path, "--seeds", "1-2")
    assert "the following arguments are required: --parent-commit" in stderr
