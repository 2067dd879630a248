"""Layer timings of riskbands source trees, written to one BENCH_<label>.json.

Usage (from the repository root):

    python3 scripts/bench_layers.py --label LABEL [--parent TREE] [--reps N] [TREE]

TREE is a checkout holding ``src/riskbands`` (default: this repository).
With ``--parent``, that tree is measured too, in alternating fresh
processes (parent, change, change, parent), so slow drift of the machine
falls on both sides. Each layer records the min and median of its
repetitions. The file also records the machine: core count, Python,
numpy and BLAS versions, and ``OPENBLAS_NUM_THREADS``.

Layers, at n = m = B = 1000 on the equicorrelated generator unless noted:

- replicate draws: the counts of 1000 replicates, drawn as the kernels
  draw them, at n = 1000 and n = 20 000;
- at n = 1000 and n = 20 000: ``realize``, ``realize_pair``, ``validate``
  on a freshly realized (stepped) matrix and on a fresh equal-valued dense
  copy, the first ``empirical_risk`` of a fresh matrix, and a calibration
  shaped like perfbench's ``large-n`` operation (realize, ``rr_band``,
  ``rrr_band``);
- ``_deviations`` (draws included) on a freshly realized stepped matrix
  (the step kernel) at n = 1000, 5000 and 20 000, and on a fresh
  equal-valued dense copy (the GEMM) at n = 1000; each repetition gets a new
  matrix, since a matrix keeps its last deviations;
- the supremum reductions over kept deviations: rr's (``minus`` on the full
  grid) and rrr's two (``two-sided`` on the full grid, ``minus`` on its
  adjusted set);
- a fresh ``realize`` + ``rr_band``, and ``rrr_band`` after ``rr_band``;
- the betting test: ``wsr_rejects`` at the truth and ``wsr_band``;
- per-run seconds of a criterion-3-shaped ``run_metrics`` call (nasm, rr,
  pointwise; anywhere) at ``workers`` 1 and 2, and of an ``mc-paper``-shaped
  one (nasm, rr, rrr, pointwise; anywhere, selected, conservatism);
- the first read of ``values`` on a freshly realized matrix, at n = 1000
  and n = 20 000 (the realize itself untimed);
- ``write_loss_matrix`` and ``read_loss_matrix`` of a realized n = m = 1000
  matrix (a paper-scale CSV of about 4 MB);
- ``import riskbands.cli`` in a fresh interpreter, timed inside it, so the
  interpreter's own start is left out.

One memory figure: the ``tracemalloc`` peak, in MB above the memory held
before the call, of one ``mc-paper``-shaped ``run_metrics`` call of one run.
It counts numpy's arrays and no allocator layout, so it tells a change in
the arrays a run holds from a step of the process's peak RSS.

One library ``suggest_b`` with default settings on the realized (stepped)
matrix, once per process: its wall time, B and verdict. Then one
``riskbands suggest-b`` run with default settings on a paper-scale CSV per
tree: its B, verdict and wall time (stopped after ``SUGGEST_B_TIMEOUT``
seconds).

Only numpy and the standard library are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUGGEST_B_TIMEOUT = 600.0


def _timed(fn, reps: int, setup=None) -> list[float]:
    """Seconds of each of ``reps`` calls ``fn()``, or ``fn(setup())`` with
    the setup untimed."""
    out = []
    for _ in range(reps):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        fn(*args)
        out.append(time.perf_counter() - t0)
    return out


def _verdict(result) -> str:
    return next((k for k in ("met", "lattice", "capped", "degenerate") if getattr(result, k)),
                "none")


def measure(reps: int) -> dict:
    """Seconds per repetition of each layer, and one library ``suggest_b``,
    in this process's riskbands."""
    from riskbands import (GeneratorSpec, LossMatrix, MethodSpec, RRRConfig, SeedRecord,
                           default_synthetic_grid, empirical_risk, rr_band, rrr_band,
                           run_metrics, suggest_b, sup_distribution, validate, wsr_band,
                           wsr_rejects)
    from riskbands import bootstrap
    from riskbands.fileio import read_loss_matrix, write_loss_matrix
    from riskbands.harness import EQUICORRELATED

    B = 1000
    spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(), rho=0.2)
    seed = SeedRecord(7)

    def draws(n):
        if hasattr(bootstrap, "_count_rows"):  # one generator per 64-replicate block
            def run():
                for j in range(0, B, bootstrap._BLOCK):
                    rows = min(bootstrap._BLOCK, B - j)
                    for _ in bootstrap._count_rows(n, seed.generator(j // bootstrap._BLOCK),
                                                   rows):
                        pass
        else:  # one generator per replicate
            def run():
                for b in range(B):
                    bootstrap.resample_counts(n, seed, b)
        return run

    out = {"draws_n1000": _timed(draws(1000), reps),
           "draws_n20000": _timed(draws(20_000), reps)}

    def fresh(n, dense=False):
        def make():
            matrix = spec.realize(n, SeedRecord(1))[0]
            return LossMatrix(matrix.grid, matrix.values, matrix.orientation) if dense else matrix
        return make

    stepped, dense = fresh(1000), fresh(1000, dense=True)
    cfg = RRRConfig(seed=seed, r=0.1, delta_glob=0.01, delta_loc=0.09, B=B)

    def generator_path(n):
        def calibrate():
            matrix, _ = spec.realize(n, SeedRecord(6))
            rr_band(matrix, 0.1, B, seed)
            rrr_band(matrix, cfg)
        return {f"realize_n{n}": _timed(lambda: spec.realize(n, SeedRecord(6)), reps),
                f"realize_pair_n{n}": _timed(lambda: spec.realize_pair(n, SeedRecord(6)), reps),
                f"validate_n{n}": _timed(validate, reps, fresh(n)),
                f"validate_dense_n{n}": _timed(validate, reps, fresh(n, dense=True)),
                f"empirical_risk_n{n}": _timed(empirical_risk, reps, fresh(n)),
                f"calibration_n{n}": _timed(calibrate, reps)}

    for n in (1000, 20_000):
        out.update(generator_path(n))

    def deviations(matrix):
        bootstrap._deviations(matrix, seed, B)

    out["step_deviations"] = _timed(deviations, reps, stepped)
    for n in (5000, 20_000):
        out[f"step_deviations_n{n}"] = _timed(deviations, reps, fresh(n))
    out["gemm_deviations"] = _timed(deviations, reps, dense)

    def fresh_rr():
        matrix, _ = spec.realize(1000, SeedRecord(2))
        rr_band(matrix, 0.1, B, seed)
    out["realize_rr_band"] = _timed(fresh_rr, reps)

    shared, truth = spec.realize(1000, SeedRecord(3))
    rr_band(shared, 0.1, B, seed)
    out["rrr_band_after_rr_band"] = _timed(lambda: rrr_band(shared, cfg), reps)
    adjusted = rrr_band(shared, cfg).adjusted

    def rrr_sups():
        sup_distribution(shared, None, "two-sided", B, seed)
        sup_distribution(shared, adjusted, "minus", B, seed)
    out["rr_sups"] = _timed(lambda: sup_distribution(shared, None, "minus", B, seed), reps)
    out["rrr_sups"] = _timed(rrr_sups, reps)
    out["wsr_rejects"] = _timed(lambda: wsr_rejects(shared, truth, 0.1), reps)
    out["wsr_band"] = _timed(lambda: wsr_band(shared, 0.1), reps)

    methods = [MethodSpec("nasm", delta=0.1), MethodSpec("rr", delta=0.1, B=B),
               MethodSpec("pointwise", delta=0.1)]
    runs = 10
    for workers in (1, 2):
        out[f"criterion3_run_workers{workers}"] = [
            t / runs for t in _timed(lambda: run_metrics(
                methods, spec, 1000, runs, SeedRecord(4), ["anywhere"], workers=workers),
                reps)]
    every = [MethodSpec(name, delta=0.1, B=B) for name in ("nasm", "rr", "rrr", "pointwise")]
    out["mc_paper_run"] = [t / runs for t in _timed(lambda: run_metrics(
        every, spec, 1000, runs, SeedRecord(8), ["anywhere", "selected", "conservatism"]),
        reps)]

    for n in (1000, 20_000):
        out[f"first_values_n{n}"] = _timed(lambda matrix: matrix.values, reps, fresh(n))

    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "losses.csv"
        out["write_loss_matrix"] = _timed(lambda: write_loss_matrix(shared, csv), reps)
        out["read_loss_matrix"] = _timed(lambda: read_loss_matrix(csv), reps)

    clock = ("import time; t0 = time.perf_counter(); import riskbands.cli; "
             "print(time.perf_counter() - t0)")
    out["import_cli_fresh"] = [
        float(subprocess.run([sys.executable, "-c", clock], check=True, capture_output=True,
                             text=True).stdout) for _ in range(reps)]

    peaks = []
    for rep in range(reps):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_metrics(every, spec, 1000, 1, SeedRecord(9).child(rep),
                        ["anywhere", "selected", "conservatism"])
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / 1e6)
        finally:
            tracemalloc.stop()

    matrix = stepped()
    t0 = time.perf_counter()
    result = suggest_b(matrix, 0.1, seed)
    out["suggest_b_stepped"] = [time.perf_counter() - t0]
    return {"layers": out, "peaks_mb": {"mc_paper_run_tracemalloc": peaks},
            "suggest_b_stepped": {
                "B": result.B, "verdict": _verdict(result), "q_boot": result.q_boot,
                "bracket_width": result.bracket_width}}


def suggest_b_cli(tree: Path, env: dict) -> dict:
    """One default ``suggest-b`` run on a realized n = m = 1000 CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "losses.csv", Path(tmp) / "suggest.json"
        subprocess.run([sys.executable, "-c", (
            "import sys\n"
            "from riskbands import GeneratorSpec, SeedRecord, default_synthetic_grid\n"
            "from riskbands.fileio import write_loss_matrix\n"
            "from riskbands.harness import EQUICORRELATED\n"
            "spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(), rho=0.2)\n"
            "write_loss_matrix(spec.realize(1000, SeedRecord(5))[0], sys.argv[1])\n"),
            str(csv)], env=env, check=True)
        t0 = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-m", "riskbands.cli", "suggest-b", "--input",
                            str(csv), "--seed", "7", "--output", str(out)],
                           env=env, check=True, capture_output=True,
                           timeout=SUGGEST_B_TIMEOUT)
        except subprocess.TimeoutExpired:
            return {"verdict": f"not finished in {SUGGEST_B_TIMEOUT:.0f} s"}
        wall = time.perf_counter() - t0
        payload = json.loads(out.read_text())
    verdict = next((k for k in ("criterion_met", "lattice", "capped", "degenerate")
                    if payload.get(k)), "none")
    return {"B": payload["recommended_B"], "verdict": verdict, "wall_s": round(wall, 2),
            "q_boot": payload["q_boot"], "bracket_width": payload["bracket_width"]}


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpus": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset (library default)")}


def _summary(samples: list[float], unit: str = "s") -> dict:
    return {f"min_{unit}": round(min(samples), 5),
            f"median_{unit}": round(statistics.median(samples), 5), "reps": len(samples)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, default=None)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:  # child process: this tree's riskbands is on PYTHONPATH
        print(json.dumps(measure(args.reps)))
        return 0

    trees = {"change": args.tree.resolve()}
    if args.parent:
        trees = {"parent": args.parent.resolve(), **trees}
    order = list(trees) + list(reversed(trees))
    samples: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    peaks: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    suggest_b_lib = {}
    for side in order:
        proc = subprocess.run([sys.executable, __file__, "--measure", "--label", args.label,
                               "--reps", str(args.reps)], env=_env(trees[side]),
                              check=True, capture_output=True, text=True)
        measured = json.loads(proc.stdout)
        for layer, values in measured["layers"].items():
            samples[side].setdefault(layer, []).extend(values)
        for layer, values in measured["peaks_mb"].items():
            peaks[side].setdefault(layer, []).extend(values)
        suggest_b_lib[side] = measured["suggest_b_stepped"]
    report = {
        "label": args.label,
        "machine": _machine(),
        "layers": {side: {layer: _summary(v) for layer, v in layers.items()}
                   for side, layers in samples.items()},
        "peaks": {side: {layer: _summary(v, "mb") for layer, v in layers.items()}
                  for side, layers in peaks.items()},
        "suggest_b_stepped_defaults": suggest_b_lib,
        "suggest_b_cli_defaults": {side: suggest_b_cli(path, _env(path))
                                   for side, path in trees.items()},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
