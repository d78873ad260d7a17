"""One measuring process: set up a workload, run it, print one JSON line.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY OUTDIR

``bench/run.py`` starts this with OpenBLAS/OpenMP pinned to one thread
and ``src`` on the path.  Set-up is timed from before the first import
of numpy and dualpairs to the end of the warm-up pass.  The loop is one
caller in a closed loop over whole rounds of the workload's operations;
only the library call is inside an operation's time, not building the
next round's inputs or checking answers.

Rounds are grouped into blocks of ``Workload.block_rounds`` rounds, and
the loop stops at the first block boundary after SECONDS of wall time
that leaves at least MIN_BLOCKS blocks and MIN_OPS operations.  Every
block runs the same operations, so its summed time measures the host's
speed while it ran.
The host's speed drifts in bursts that only ever make it faster, so the
run reports figures at its steady floor: the floor block time is the
slow decile of the block times by nearest rank (nine blocks in ten are
as fast or faster), operations per second are a block's operations over
that time, and every latency is scaled by the floor time over its own
block's time before the p50 and p90 are read, by nearest rank, from all
of the run's operations together, at least ten of them beyond the p90.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_BLOCKS = 10
MIN_OPS = 100
MAX_LOOP_S = 120.0


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def slow_decile(values):
    """The value that nine in ten of ``values`` meet or undercut."""
    return nearest_rank(sorted(values), 0.9)


def floor_metrics(blocks) -> dict:
    """Throughput and latencies at the floor block time (see above)."""
    times = [sum(b) for b in blocks]
    floor = slow_decile(times)
    scaled = sorted(t * floor / total for b, total in zip(blocks, times) for t in b)
    return {"ops_per_s": len(blocks[0]) / floor,
            "latency_p50_ms": 1e3 * nearest_rank(scaled, 0.5),
            "latency_p90_ms": 1e3 * nearest_rank(scaled, 0.9)}


def main(argv):
    workload, seed, seconds, trace, setup_only, outdir = argv
    seed, seconds = int(seed), float(seconds)
    trace, setup_only = trace == "1", setup_only == "1"
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    trace_dir = None
    if trace:
        from tracing import ROOT, Tracer, layer_metrics, merge, span_totals
        if workload == "cli":
            trace_dir = outdir / "cmd-traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
        else:
            tracer = Tracer()
            tracer.install()
    module = importlib.import_module(f"workload_{workload}")
    wl = module.Workload(seed, outdir / "work", trace_dir)
    setup_s = time.perf_counter() - T0
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import CheckError
    if tracer is not None:
        tracer.clear()
    if trace_dir is not None:
        shutil.rmtree(trace_dir)
        trace_dir.mkdir()
    clock = time.perf_counter
    latencies = array("d")  # flat, so memory does not grow with the op count
    failed = 0
    errors = []
    ops, r = wl.ops0, 0
    block_ends = []
    start = clock()
    while True:
        for op in ops:
            call = op.call if tracer is None else (lambda: tracer.span(ROOT, op.call))
            t = clock()
            try:
                out = call()
            except Exception as exc:  # a refusal or crash of the library
                latencies.append(clock() - t)
                failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(clock() - t)
            try:
                op.check(out)
            except CheckError as exc:
                failed += 1
                errors.append(f"{op.name}: wrong answer: {exc}")
        r += 1
        if r % wl.block_rounds == 0:
            block_ends.append(len(latencies))
            elapsed = clock() - start
            enough = len(block_ends) >= MIN_BLOCKS and len(latencies) >= MIN_OPS
            if (elapsed >= seconds and enough) or elapsed >= MAX_LOOP_S:
                break
        ops = wl.build(r)
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    for line in errors[:20]:
        print(line, file=sys.stderr)
    blocks = [latencies[a:b] for a, b in zip([0] + block_ends, block_ends)]
    result = {"setup_s": setup_s, "attempted": len(latencies), "failed": failed,
              "peak_rss_mb": peak_rss_mb, **floor_metrics(blocks)}
    if trace:
        if tracer is not None:
            path = outdir / f"trace-{workload}.npz"
            tracer.save(path)
            totals = span_totals(path)
        else:
            totals = merge([span_totals(p) for p in sorted(trace_dir.glob("*.npz"))])
        result["layers"] = layer_metrics(totals, len(latencies))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
