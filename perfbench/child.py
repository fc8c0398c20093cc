"""One fresh benchmark process: set a workload up, or run the CLI once.

    python3 perfbench/child.py '<json spec>'

``mode: setup`` imports walklang from the checkout's ``src/``, writes the
workload's inputs into ``workdir`` and prints the CLI arguments and the
set-up time.  ``mode: run`` imports walklang, calls
``walklang.cli.main(argv)`` once (inside span wrappers when ``trace`` is
set), saves the CLI's standard output in ``workdir`` and prints the wall
time and this process's peak RSS.  Both times are taken under a
:class:`SpeedProbe` and reported at the reference host speed; the run
also reports its raw wall time.  The last line of standard output is
the JSON result.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _import_walklang(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import walklang

    if Path(walklang.__file__).resolve().parent != (src / "walklang").resolve():
        raise SystemExit(f"walklang was imported from {walklang.__file__}, not {src}")
    return walklang


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def environment() -> dict:
    """Interpreter, numpy/BLAS build, thread settings, CPU model and caches."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = [
        line.split(":", 1)[1].strip()
        for line in _read("/proc/cpuinfo").splitlines()
        if line.startswith("model name")
    ]
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        kind = _read(f"{index}/type").strip()
        if kind in ("Data", "Unified"):
            caches[f"L{_read(f'{index}/level').strip()}"] = _read(f"{index}/size").strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else platform.machine(),
        "caches": caches,
    }


class SpeedProbe:
    """Sample the host's speed while a timed region runs.

    The shared host this benchmark was defined on drifts in speed by
    +-20% over seconds to minutes, in every process alike, which buries
    changes of a few percent.  Inside ``with SpeedProbe()`` a fixed loop
    of 4x4 complex matrix-vector products on slices (the shape of the
    engine's per-vertex coin step) is timed on entry, on exit and every
    ``PERIOD`` s (from SIGALRM, so between bytecodes of the timed code).
    :meth:`scaled` removes the probes' own time from an interval and
    rescales it to the speed at which the loop takes ``REFERENCE_S``.
    """

    LOOP = 400
    PERIOD = 0.05
    # the loop's time on an unloaded 2.1 GHz Xeon vCPU (Python 3.11, numpy 2.4)
    REFERENCE_S = 0.0007

    def __init__(self):
        import numpy as np

        self.samples: list[tuple[float, float]] = []
        self._coin = np.eye(4, dtype=np.complex128)
        self._amps = np.ones(12, dtype=np.complex128)
        self._out = np.empty(12, dtype=np.complex128)

    def _probe(self, *_) -> None:
        coin, amps, out = self._coin, self._amps, self._out
        t0 = time.perf_counter()
        for i in range(self.LOOP):
            lo = (i % 3) * 4
            out[lo:lo + 4] = coin @ amps[lo:lo + 4]
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, less probes, at reference speed."""
        busy = sum(d for t, d in self.samples if start <= t < end)
        speed = sum(d for _, d in self.samples) / len(self.samples)
        return (end - start - busy) * self.REFERENCE_S / speed


def setup(spec: dict) -> dict:
    with SpeedProbe() as probe:
        walklang = _import_walklang(Path(spec["root"]))
        argv = workloads.WORKLOADS[spec["workload"]].prepare(
            walklang, Path(spec["workdir"]), spec["size"], spec["seed"]
        )
        end = time.perf_counter()
    return {"setup_s": probe.scaled(START, end), "argv": argv, "env": environment()}


def run(spec: dict) -> dict:
    walklang = _import_walklang(Path(spec["root"]))
    import walklang.cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer().install()
    captured = io.StringIO()
    try:
        with SpeedProbe() as probe, contextlib.redirect_stdout(captured):
            t0 = time.perf_counter()
            code = walklang.cli.main(spec["argv"])
            t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    wall = probe.scaled(t0, t1)
    workdir = Path(spec["workdir"])
    (workdir / "stdout.txt").write_bytes(captured.getvalue().encode())
    result = {
        "exit_code": code,
        "wall_s": wall,
        "raw_wall_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
        tracer.write(spec["spans_file"], spec["run_id"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = setup(spec) if spec["mode"] == "setup" else run(spec)
    print(json.dumps(result))
