"""The dualpairs benchmark.

    python3 bench/run.py --workload {witness,structure,cli} --seed N \
        --seconds S --trace {0,1}

run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics: set-up time (the slow decile of five fresh
set-ups, two before and two after the timed loop and the loop's own),
operations per second, p50 and p90 latency and peak memory.  With
``--trace 1`` a separate run wraps the library's public functions and
reports per-layer calls and times, plus import times taken from
``python -X importtime``.  Either way the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every process runs with OpenBLAS/OpenMP pinned to one
thread; outputs go to ``bench/out``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import slow_decile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("witness", "structure", "cli")
SETUP_RUNS = 2  # fresh set-ups before the timed loop, and again after it
IMPORT_RUNS = 3
BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on time-out, or if this
    process is stopped, kill the group and wait for it."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} ran past the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def worker(args, outdir: Path, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), "1" if setup_only else "0", str(outdir)]
    proc = run_child(argv, deadline)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline: float) -> dict:
    """Cumulative import times, in ms, of numpy + scipy.linalg, then
    dualpairs on top of them, then sympy, each the median of IMPORT_RUNS
    fresh interpreters under ``-X importtime``."""
    code = "import numpy, scipy.linalg; import dualpairs; import sympy"
    runs = {"import.numpy_scipy_ms": [], "import.dualpairs_ms": [], "import.sympy_ms": []}
    roots = {"numpy": "import.numpy_scipy_ms", "scipy": "import.numpy_scipy_ms",
             "dualpairs": "import.dualpairs_ms", "sympy": "import.sympy_ms"}
    for _ in range(IMPORT_RUNS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", code], deadline)
        if proc.returncode != 0:
            raise BenchError(f"importing dualpairs failed: {proc.stderr[-500:]}")
        total = dict.fromkeys(runs, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            # top-level entries have no indentation before the module name
            if len(parts) != 3 or not parts[1].strip().isdigit() or parts[2][1:2] == " ":
                continue
            key = roots.get(parts[2].strip().split(".")[0])
            if key:
                total[key] += int(parts[1]) / 1e3
        for key in runs:
            runs[key].append(total[key])
    return {key: (statistics.median(v), "ms") for key, v in runs.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so children are killed
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dualpairs" / "__init__.py").is_file():
        print(f"error: no dualpairs sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    try:
        if args.trace:
            res = worker(args, base / "main", deadline, setup_only=False)
            metrics = dict(res["layers"])
            metrics.update(import_times(deadline))
            metrics["traced.ops_per_s"] = (res["ops_per_s"], "1/s")
        else:
            # the host runs in bursts that only make it faster, so set-ups
            # spread over the run and their slow decile follow its floor
            def setups(tag):
                return [worker(args, base / f"setup-{tag}{k}", deadline, setup_only=True)
                        ["setup_s"] for k in range(SETUP_RUNS)]
            before = setups("a")
            res = worker(args, base / "main", deadline, setup_only=False)
            res["setup_s"] = slow_decile(before + [res["setup_s"]] + setups("b"))
            metrics = {name: (res[name], unit) for name, unit in END_TO_END.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
