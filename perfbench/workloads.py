"""The three benchmark workloads.

Each workload builds its inputs from the run seed in ``__init__`` (the
set-up), then runs numbered rounds of identical operations. A round returns
one ``Op`` per operation: its timed wall seconds, how many units it covers
and how many of them failed. An operation fails when it exits non-zero,
raises, or fails an output check from ``checks``; the checks run outside the
timed region and with tracing off.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

N_PAPER = 1000
B = 1000
DELTA = 0.1
R = 0.1
DELTA_GLOB, DELTA_LOC = 0.01, 0.09
RHO = 0.2


@dataclass
class Op:
    seconds: float
    units: int = 1
    failed: int = 0
    kind: str = ""


def derive(seed: int, *keys: int) -> int:
    """63-bit seed for one input of the run, fixed by (run seed, keys)."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def op_p50(ops: list[Op]) -> float:
    """Median seconds per unit of each kind of operation, averaged over kinds.

    Averaging per-kind medians keeps the figure from jumping between kinds
    of different cost (the CLI cycle mixes eight commands).
    """
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds / op.units)
    return statistics.fmean(map(statistics.median, by_kind.values()))


def _report(label: str) -> None:
    print(f"operation failed: {label}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _equicorrelated():
    from riskbands import GeneratorSpec, default_synthetic_grid
    from riskbands.harness import EQUICORRELATED

    return GeneratorSpec(EQUICORRELATED, default_synthetic_grid(), rho=RHO)


class Workload:
    """Shared bookkeeping: span collection and per-layer inputs."""

    def __init__(self, seed: int, work: Path, tracer: tracing.Tracer | None):
        self.seed, self.work, self.tracer = seed, work, tracer
        self.import_s: list[float] = []
        self.cli_calls: list[tuple[int, float]] = []
        self.traced_units = 0
        self.correct = True

    @contextlib.contextmanager
    def spans_on(self, on: bool, op: int):
        if not (on and self.tracer):
            yield
            return
        self.tracer.op, self.tracer.enabled = op, True
        try:
            yield
        finally:
            self.tracer.enabled = False

    def prepare_checks(self) -> None:
        """Reference data for the checks, loaded after the set-up is timed."""

    def finish(self) -> None:
        """Checks over the whole run; they clear ``correct`` when they fail."""

    # whose peak resident set the run reports
    RSS = resource.RUSAGE_SELF

    def end_to_end(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        done = sum(op.units - op.failed for op in ops)
        return {
            "op_p50_s": (op_p50(ops), "s"),
            "ops_per_s": (done / sum(op.seconds for op in ops), "ops/s"),
            "peak_rss_mb": (resource.getrusage(self.RSS).ru_maxrss / 1024.0, "MB"),
        }


class CliCalibrate(Workload):
    """A fixed cycle of eight ``riskbands`` CLI calls on two paper-scale CSVs."""

    RSS = resource.RUSAGE_CHILDREN
    CALLS = ("band-nasm", "band-rr", "band-rrr", "band-pointwise", "band-rr-lower",
             "select", "compose", "dump-sups")

    def __init__(self, seed, work, tracer, root: Path, env: dict):
        super().__init__(seed, work, tracer)
        self.root, self.env = root, env
        from riskbands import SeedRecord
        from riskbands.fileio import write_loss_matrix

        primary, companion, _ = _equicorrelated().realize_pair(N_PAPER, SeedRecord(seed))
        self.primary, self.companion = work / "primary.csv", work / "companion.csv"
        with self.spans_on(True, -1):
            write_loss_matrix(primary, self.primary)
            write_loss_matrix(companion, self.companion)

    def prepare_checks(self) -> None:
        # parsed with numpy, independently of riskbands.fileio
        self.losses = np.loadtxt(self.primary, delimiter=",", skiprows=1)
        self.mean_p = self.losses.mean(axis=0)
        self.mean_c = np.loadtxt(self.companion, delimiter=",", skiprows=1).mean(axis=0)
        self.n = self.losses.shape[0]
        self.columns = np.linspace(0, self.losses.shape[1] - 1, 16).astype(int)

    def _argv(self, call: str, seed: int) -> list[str]:
        w, p = self.cycle, str(self.primary)
        band = ["band", "--input", p, "--delta", str(DELTA), "--B", str(B), "--seed", str(seed)]
        return {
            "band-nasm": band + ["--method", "nasm", "--output", str(w / "nasm.csv")],
            "band-rr": band + ["--method", "rr", "--output", str(w / "rr.csv")],
            "band-rrr": band + ["--method", "rrr", "--orientation", "nondecreasing",
                                "--r", str(R), "--delta-glob", str(DELTA_GLOB),
                                "--delta-loc", str(DELTA_LOC), "--output", str(w / "rrr.csv")],
            "band-pointwise": band + ["--method", "pointwise",
                                      "--output", str(w / "pointwise.csv")],
            "band-rr-lower": ["band", "--input", str(self.companion), "--method", "rr",
                              "--side", "lower", "--delta", str(DELTA), "--B", str(B),
                              "--seed", str(seed), "--output", str(w / "rr_lower.csv")],
            "select": ["select", "--loss", p, "--tradeoff", str(self.companion),
                       "--scheme", "even-tradeoff", "--constraint-r", str(R),
                       "--output", str(w / "select.csv")],
            "compose": ["compose", "--inputs", str(w / "rr.csv"), str(w / "rr_lower.csv"),
                        "--psi", "ratio", "--output", str(w / "ratio.csv")],
            "dump-sups": ["dump-sups", "--input", p, "--B", str(B), "--seed", str(seed),
                          "--output", str(w / "sups.csv")],
        }[call]

    def _band(self, name: str):
        band = checks.read_band_csv(self.cycle / f"{name}.csv")
        meta = json.loads((self.cycle / f"{name}.csv.json").read_text())
        return band, meta

    def _check(self, call: str) -> None:
        n = self.n
        if call == "band-nasm":
            band, meta = self._band("nasm")
            checks.nasm_width_exact(meta["width"], n, DELTA)
            checks.band_side(band["upper"], self.mean_p, meta["width"], +1, "nasm upper")
        elif call == "band-rr":
            band, meta = self._band("rr")
            checks.rr_width_within_nasm(meta["width"], n, DELTA)
            checks.width_from_quantile(meta["width"], meta["q_hat"], n)
            checks.band_side(band["upper"], self.mean_p, meta["width"], +1, "rr upper")
            self.q_rr = meta["q_hat"]
        elif call == "band-rrr":
            band, meta = self._band("rrr")
            checks.width_from_quantile(meta["width"], meta["q_loc"], n)
            checks.band_side(band["upper"], self.mean_p, meta["width"], +1, "rrr upper")
            checks.rrr_validity(band["valid"], self.mean_p, R)
            checks.paired_quantiles(meta["q_glob"], meta["q_loc"], self.q_rr)
        elif call == "band-pointwise":
            band, _ = self._band("pointwise")
            checks.pointwise_upper(band["upper"], self.losses, DELTA, self.columns)
        elif call == "band-rr-lower":
            band, meta = self._band("rr_lower")
            checks.rr_width_within_nasm(meta["width"], n, DELTA)
            checks.width_from_quantile(meta["width"], meta["q_hat"], n)
            checks.band_side(band["lower"], self.mean_c, meta["width"], -1, "rr lower")
        elif call == "select":
            with open(self.cycle / "select.csv") as fh:
                index = int(fh.read().splitlines()[1].split(",")[1])
            checks.selection_argmin(index, self.mean_p, self.mean_c, R)
        elif call == "compose":
            band, _ = self._band("ratio")
            num, _ = self._band("rr")
            den, _ = self._band("rr_lower")
            checks.compose_ratio(band["upper"], num["upper"], den["lower"], 1.0 / (2 * n))
        else:
            sups = np.loadtxt(self.cycle / "sups.csv", skiprows=1)
            checks.quantile_order_statistic(self.q_rr, sups, DELTA)

    def round(self, k: int, traced: bool) -> list[Op]:
        seed = derive(self.seed, k)
        # a fresh directory and no q_hat carried over, so a call that fails
        # leaves nothing stale for the later calls' checks
        self.cycle = self.work / "cycle"
        shutil.rmtree(self.cycle, ignore_errors=True)
        self.cycle.mkdir()
        self.q_rr = None
        ops = []
        for i, call in enumerate(self.CALLS):
            op_id = k * len(self.CALLS) + i
            argv = self._argv(call, seed)
            spans_file = self.work / "spans.json"
            if traced:
                cmd = [sys.executable, str(Path(tracing.__file__).with_name("launch.py")),
                       str(spans_file)] + argv
            else:
                cmd = [sys.executable, "-m", "riskbands.cli"] + argv
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True)
            wall = time.perf_counter() - t0
            ok = proc.returncode == 0
            if not ok:
                print(f"operation failed: {call} exited {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            else:
                try:
                    self._check(call)
                except Exception:
                    _report(call)
                    ok = False
            if traced and spans_file.exists():
                dump = json.loads(spans_file.read_text())
                spans_file.unlink()
                self.import_s.append(dump["import_s"])
                self.cli_calls.append((op_id, wall))
                spans = self.tracer.spans
                spans += tracing.span_tuples(dump["spans"], len(spans), op_id)
                self.traced_units += 1
            ops.append(Op(wall, 1, 0 if ok else 1, call))
        return ops


class McPaper(Workload):
    """``eval`` descriptors run in-process: 4 methods x 3 metrics at n = 1000."""

    METHODS = ("nasm", "rr", "rrr", "pointwise")
    RUNS = 2  # Monte Carlo runs per descriptor; one call covers 12 * RUNS cell-runs

    def __init__(self, seed, work, tracer, root: Path):
        super().__init__(seed, work, tracer)
        self.root = root
        self.anywhere = {"nasm": [], "pointwise": []}
        self.digests: dict[int, str] = {}

    def descriptor(self, k: int) -> dict:
        return {
            "generator": {"family": "equicorrelated", "rho": RHO,
                          "grid": {"low": -3.0, "high": 3.0, "size": 1000}},
            "methods": [{"name": "nasm", "delta": DELTA},
                        {"name": "rr", "delta": DELTA, "B": B},
                        {"name": "rrr", "r": R, "delta_glob": DELTA_GLOB,
                         "delta_loc": DELTA_LOC, "B": B},
                        {"name": "pointwise", "delta": DELTA}],
            "n": [N_PAPER],
            "runs": self.RUNS,
            "seed": derive(self.seed, k),
            "metrics": ["anywhere", "selected", "conservatism"],
            "trace": True,
        }

    def _outputs(self, prefix: Path) -> bytes:
        return b"".join(prefix.with_suffix(s).read_bytes()
                        for s in (".csv", ".json", ".trace.json"))

    def round(self, k: int, traced: bool) -> list[Op]:
        import riskbands.cli

        desc = self.work / f"descriptor-{k}.json"
        desc.write_text(json.dumps(self.descriptor(k), sort_keys=True))
        prefix = self.work / f"mc-{k}"
        rel = lambda p: os.path.relpath(p, self.root)
        argv = ["eval", "--descriptor", rel(desc), "--output-prefix", rel(prefix)]
        units = len(self.METHODS) * 3 * self.RUNS
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with self.spans_on(traced, k):
                    t0 = time.perf_counter()
                    code = riskbands.cli.main(argv)
                    wall = time.perf_counter() - t0
            if traced:
                self.cli_calls.append((k, wall))
                self.traced_units += units
            if code != 0:
                raise RuntimeError(f"eval exited {code}: {sink.getvalue()}")
            estimates = checks.read_metrics_csv(prefix.with_suffix(".csv"))
            trace = json.loads(prefix.with_suffix(".trace.json").read_text())
            events = checks.mc_trace(trace, estimates, self.METHODS, N_PAPER, self.RUNS)
        except Exception:
            _report(f"eval round {k}")
            return [Op(time.perf_counter() - t0, units, units)]
        outputs = self._outputs(prefix)
        if k in self.digests:
            # the same descriptor ran before, traced or not: outputs must repeat
            if hashlib.sha256(outputs).hexdigest() != self.digests[k]:
                print(f"eval round {k}: outputs differ from the same descriptor's "
                      "earlier run", file=sys.stderr)
                return [Op(wall, units, units)]
        else:
            for method in self.anywhere:
                self.anywhere[method].append(events[method])
        self.digests[k] = hashlib.sha256(outputs).hexdigest()
        return [Op(wall, units)]

    def finish(self) -> None:
        (self.work / "digests.json").write_text(json.dumps(self.digests, indent=1) + "\n")
        if not self.anywhere["nasm"]:
            return  # every round failed; there are no runs to check
        try:
            checks.mc_rates(np.concatenate(self.anywhere["nasm"]),
                            np.concatenate(self.anywhere["pointwise"]), DELTA)
        except checks.CheckFailed:
            _report("miscoverage rates over the run")
            self.correct = False


class LargeN(Workload):
    """Library calibration at n = 20 000: realize, rr_band, rrr_band."""

    N = 20_000

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.spec = _equicorrelated()

    def round(self, k: int, traced: bool) -> list[Op]:
        from riskbands import RRRConfig, SeedRecord, rr_band, rrr_band, sup_distribution

        boot = SeedRecord(derive(self.seed, k, 1))
        t0 = time.perf_counter()
        try:
            with self.spans_on(traced, k):
                matrix, _ = self.spec.realize(self.N, SeedRecord(derive(self.seed, k)))
                rr = rr_band(matrix, DELTA, B, boot)
                rrr = rrr_band(matrix, RRRConfig(seed=boot, r=R, delta_glob=DELTA_GLOB,
                                                 delta_loc=DELTA_LOC, B=B))
            wall = time.perf_counter() - t0
            if traced:
                self.traced_units += 1
            mean = matrix.values.mean(axis=0)
            valid = np.zeros(mean.size, dtype=bool)
            valid[rrr.band.validity.indices] = True
            checks.rr_width_within_nasm(rr.width_info, self.N, DELTA)
            checks.width_from_quantile(rr.width_info, rr.info["q_hat"], self.N)
            checks.width_from_quantile(rrr.band.width_info, rrr.q_loc, self.N)
            checks.band_side(rr.upper, mean, rr.width_info, +1, "rr upper")
            checks.band_side(rrr.band.upper, mean, rrr.band.width_info, +1, "rrr upper")
            checks.rrr_validity(valid, mean, R)
            checks.paired_quantiles(rrr.q_glob, rrr.q_loc, rr.info["q_hat"])
            sups = sup_distribution(matrix, None, "minus", B, boot).sorted_values
            checks.quantile_order_statistic(rr.info["q_hat"], sups, DELTA)
            checks.population_sup(mean, matrix.grid.values, self.N)
        except Exception:
            _report(f"large-n round {k}")
            return [Op(time.perf_counter() - t0, 1, 1)]
        return [Op(wall)]

