"""Benchmark entry point for riskbands.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-calibrate,mc-paper,large-n} \\
        --seed N --seconds S --trace {0,1} [--blas-threads T]

Builds the workload's inputs from the seed, runs whole rounds of its
operations until S seconds have passed, checks every output, and prints one
JSON object as the last line: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are per-layer figures from spans recorded around the
package's functions, plus the tracing overhead. Spans and outputs are kept
under ``.perfbench_out/`` in the repository root.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

WORKLOADS = ("cli-calibrate", "mc-paper", "large-n")


def _process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def main() -> int:
    started = time.perf_counter() - _process_age()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=0,
                        help="BLAS threads (default: the CPUs this process may use)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "riskbands" / "__init__.py").is_file():
        print(f"perfbench: no riskbands sources in {src}", file=sys.stderr)
        return 2
    threads = args.blas_threads or len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    # one process thread; BLAS threads are the only parallelism
    os.environ["RISKBANDS_WORKERS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import riskbands.cli

    import_s = time.perf_counter() - t0
    if Path(riskbands.__file__).resolve().parent != src / "riskbands":
        print(f"perfbench: riskbands imported from {riskbands.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    if args.workload == "cli-calibrate":
        workload = workloads.CliCalibrate(args.seed, work, tracer, root, dict(os.environ))
    elif args.workload == "mc-paper":
        workload = workloads.McPaper(args.seed, work, tracer, root)
        workload.import_s.append(import_s)
    else:
        workload = workloads.LargeN(args.seed, work, tracer)
        workload.import_s.append(import_s)
    setup_s = time.perf_counter() - started
    workload.prepare_checks()

    ops, traced, plain = [], [], []
    begin = time.perf_counter()
    if args.trace:
        ops += workload.round(0, False)  # warm-up, kept out of the overhead
    k = 0
    while True:
        # traced runs alternate traced (even k) and untraced rounds; round 0
        # repeats the warm-up's inputs, so its outputs must repeat too
        on = bool(args.trace) and k % 2 == 0
        batch = workload.round(k, on)
        (traced if on else plain).extend(batch)
        ops += batch
        k += 1
        if time.perf_counter() - begin >= args.seconds:
            break
    workload.finish()

    if args.trace:
        with open(work / "spans.jsonl", "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
        overhead = (workloads.op_p50(traced), workloads.op_p50(plain)) if plain else None
        values = tracing.layer_metrics(tracer.spans, workload.traced_units,
                                       workload.import_s, workload.cli_calls, overhead)
    else:
        values = workload.end_to_end(ops)
        values["setup_s"] = (setup_s, "s")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(json.dumps({
        "correct": workload.correct,
        "attempted": sum(op.units for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
