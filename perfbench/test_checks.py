"""The benchmark's output checks reject corrupted outputs.

Run from the repository root: ``python3 -m pytest perfbench``.

Each test builds a genuine riskbands output at small scale, shows that its
check accepts it, then corrupts one thing and shows the check fails, so no
check in the benchmark is vacuous.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from riskbands import (  # noqa: E402
    GeneratorSpec,
    RRRConfig,
    SeedRecord,
    default_synthetic_grid,
    rr_band,
    rrr_band,
)
from riskbands.cli import main  # noqa: E402
from riskbands.fileio import write_loss_matrix  # noqa: E402
from riskbands.harness import EQUICORRELATED  # noqa: E402

N, DELTA, R = 400, 0.1, 0.1


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(60), rho=0.2)
    primary, companion, _ = spec.realize_pair(N, SeedRecord(11))
    work = tmp_path_factory.mktemp("outputs")
    paths = {"primary": work / "p.csv", "companion": work / "c.csv"}
    write_loss_matrix(primary, paths["primary"])
    write_loss_matrix(companion, paths["companion"])
    p, c = str(paths["primary"]), str(paths["companion"])
    runs = {
        "nasm": ["band", "--input", p, "--method", "nasm"],
        "rr": ["band", "--input", p, "--method", "rr", "--B", "300"],
        "rrr": ["band", "--input", p, "--method", "rrr", "--B", "300",
                "--orientation", "nondecreasing"],
        "pointwise": ["band", "--input", p, "--method", "pointwise"],
        "rr_lower": ["band", "--input", c, "--method", "rr", "--side", "lower", "--B", "300"],
    }
    out = {"matrix": primary, "work": work}
    for name, argv in runs.items():
        csv_path = work / f"{name}.csv"
        assert main(argv + ["--seed", "5", "--output", str(csv_path)]) == 0
        out[name] = (checks.read_band_csv(csv_path),
                     json.loads(csv_path.with_suffix(".csv.json").read_text()))
    assert main(["select", "--loss", p, "--tradeoff", c, "--output",
                 str(work / "sel.csv")]) == 0
    out["select"] = int((work / "sel.csv").read_text().splitlines()[1].split(",")[1])
    assert main(["compose", "--inputs", str(work / "rr.csv"), str(work / "rr_lower.csv"),
                 "--psi", "ratio", "--output", str(work / "ratio.csv")]) == 0
    out["ratio"] = checks.read_band_csv(work / "ratio.csv")
    assert main(["dump-sups", "--input", p, "--B", "300", "--seed", "5",
                 "--output", str(work / "sups.csv")]) == 0
    out["sups"] = np.loadtxt(work / "sups.csv", skiprows=1)
    out["losses"] = np.loadtxt(paths["primary"], delimiter=",", skiprows=1)
    out["mean_p"] = out["losses"].mean(axis=0)
    out["mean_c"] = np.loadtxt(paths["companion"], delimiter=",", skiprows=1).mean(axis=0)
    return out


def test_nasm_width_shrunk(data):
    width = data["nasm"][1]["width"]
    checks.nasm_width_exact(width, N, DELTA)
    rejects(checks.nasm_width_exact, 0.9 * width, N, DELTA)


@pytest.mark.parametrize("name", ["nasm", "rr", "rrr"])
def test_upper_band_shrunk(data, name):
    band, meta = data[name]
    checks.band_side(band["upper"], data["mean_p"], meta["width"], +1, name)
    rejects(checks.band_side, band["upper"], data["mean_p"], 0.9 * meta["width"], +1, name)
    shifted = band["upper"].copy()
    shifted[shifted < 1.0] -= 1e-9
    rejects(checks.band_side, shifted, data["mean_p"], meta["width"], +1, name)


def test_lower_band_moved(data):
    band, meta = data["rr_lower"]
    checks.band_side(band["lower"], data["mean_c"], meta["width"], -1, "lower")
    rejects(checks.band_side, band["lower"], data["mean_c"], meta["width"], +1, "lower")


def test_rr_width_outside_nasm(data):
    width = data["rr"][1]["width"]
    checks.rr_width_within_nasm(width, N, DELTA)
    rejects(checks.rr_width_within_nasm, 1.01 * checks.nasm_width(N, DELTA), N, DELTA)
    rejects(checks.rr_width_within_nasm, 0.0, N, DELTA)


@pytest.mark.parametrize("name,key", [("rr", "q_hat"), ("rrr", "q_loc")])
def test_width_shrunk_against_quantile(data, name, key):
    meta = data[name][1]
    checks.width_from_quantile(meta["width"], meta[key], N)
    rejects(checks.width_from_quantile, 0.9 * meta["width"], meta[key], N)


def test_rrr_validity_point_flipped(data):
    valid = data["rrr"][0]["valid"]
    checks.rrr_validity(valid, data["mean_p"], R)
    flipped = valid.copy()
    flipped[np.argmax(~valid)] = True
    rejects(checks.rrr_validity, flipped, data["mean_p"], R)


def test_paired_quantiles_swapped(data):
    meta, q_rr = data["rrr"][1], data["rr"][1]["q_hat"]
    checks.paired_quantiles(meta["q_glob"], meta["q_loc"], q_rr)
    rejects(checks.paired_quantiles, meta["q_loc"], meta["q_glob"], q_rr)
    rejects(checks.paired_quantiles, meta["q_glob"], meta["q_loc"], meta["q_glob"] * 1.01)


def test_quantile_off_by_one(data):
    q_hat, sups = data["rr"][1]["q_hat"], data["sups"]
    checks.quantile_order_statistic(q_hat, sups, DELTA)
    k = math.ceil(301 * 0.9)
    rejects(checks.quantile_order_statistic, float(sups[k]), sups, DELTA)
    rejects(checks.quantile_order_statistic, q_hat, sups[::-1].copy(), DELTA)


def test_selection_off_by_one(data):
    checks.selection_argmin(data["select"], data["mean_p"], data["mean_c"], R)
    rejects(checks.selection_argmin, data["select"] + 1, data["mean_p"], data["mean_c"], R)
    rejects(checks.selection_argmin, data["select"] - 1, data["mean_p"], data["mean_c"], R)


def test_compose_ratio_perturbed(data):
    num, den = data["rr"][0]["upper"], data["rr_lower"][0]["lower"]
    upper = data["ratio"]["upper"]
    checks.compose_ratio(upper, num, den, 1 / (2 * N))
    bad = upper.copy()
    bad[np.argmax(bad < 1.0)] *= 0.9
    rejects(checks.compose_ratio, bad, num, den, 1 / (2 * N))


def test_pointwise_upper_shrunk(data):
    upper = data["pointwise"][0]["upper"]
    cols = np.arange(upper.size)
    checks.pointwise_upper(upper, data["losses"], DELTA, cols)
    rejects(checks.pointwise_upper, 0.9 * upper, data["losses"], DELTA, cols)
    rejects(checks.pointwise_upper, np.minimum(1.0, upper + 1e-3), data["losses"], DELTA, cols)


def test_population_sup_shifted(data):
    grid = default_synthetic_grid(60).values
    checks.population_sup(data["mean_p"], grid, N)
    rejects(checks.population_sup, np.clip(data["mean_p"] + 0.2, 0, 1), grid, N)


def _eval(tmp_path, runs=3, seed=3):
    desc = {"generator": {"family": "equicorrelated", "rho": 0.2,
                          "grid": {"low": -3.0, "high": 3.0, "size": 40}},
            "methods": [{"name": m, "B": 200} for m in ("nasm", "rr", "rrr", "pointwise")],
            "n": [300], "runs": runs, "seed": seed,
            "metrics": ["anywhere", "selected", "conservatism"], "trace": True}
    (tmp_path / "d.json").write_text(json.dumps(desc))
    prefix = tmp_path / "mc"
    assert main(["eval", "--descriptor", str(tmp_path / "d.json"),
                 "--output-prefix", str(prefix)]) == 0
    return (checks.read_metrics_csv(prefix.with_suffix(".csv")),
            json.loads(prefix.with_suffix(".trace.json").read_text()), prefix)


def test_mc_trace_event_flipped(tmp_path):
    estimates, trace, _ = _eval(tmp_path)
    methods = ("nasm", "rr", "rrr", "pointwise")
    checks.mc_trace(trace, estimates, methods, 300, 3)

    flipped = json.loads(json.dumps(trace))
    row = flipped["rr_n300_anywhere"][0]
    row["event"] = not row["event"]
    rejects(checks.mc_trace, flipped, estimates, methods, 300, 3)

    def consistent(mutate):
        t = json.loads(json.dumps(trace))
        mutate(t)
        est = dict(estimates)
        for (method, label) in est:
            metric = {"miscoverage-anywhere": "anywhere",
                      "miscoverage-selected": "selected"}.get(label)
            if metric:
                ev = [r["event"] for r in t[f"{method}_n300_{metric}"]]
                est[(method, label)] = sum(ev) / len(ev)
            else:
                gaps = [r["gap"] for r in t[f"{method}_n300_conservatism"] if r["gap"] is not None]
                est[(method, label)] = float(np.mean(gaps))
        return t, est

    def selected_only(t):
        t["nasm_n300_selected"][0]["event"] = True
        t["nasm_n300_anywhere"][0]["event"] = False
    rejects(checks.mc_trace, *consistent(selected_only), methods, 300, 3)

    def nasm_only(t):
        t["nasm_n300_anywhere"][1]["event"] = True
        t["rr_n300_anywhere"][1]["event"] = False
        t["rr_n300_selected"][1]["event"] = False
    rejects(checks.mc_trace, *consistent(nasm_only), methods, 300, 3)

    def rr_wider(t):
        t["rr_n300_conservatism"][2]["gap"] = t["nasm_n300_conservatism"][2]["gap"] + 0.01
    rejects(checks.mc_trace, *consistent(rr_wider), methods, 300, 3)


def test_mc_rates():
    nasm = np.zeros(20, dtype=bool)
    point = np.zeros(20, dtype=bool)
    point[3] = True
    checks.mc_rates(nasm, point, DELTA)
    rejects(checks.mc_rates, nasm, nasm, DELTA)
    many = np.zeros(20, dtype=bool)
    many[:8] = True
    rejects(checks.mc_rates, many, np.ones(20, dtype=bool), DELTA)


def test_eval_outputs_repeat_byte_for_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    outs = []
    for sub in ("a", "b"):
        prefix = _eval(tmp_path / sub, runs=2, seed=9)[2]
        outs.append(prefix.with_suffix(".csv").read_bytes()
                    + prefix.with_suffix(".trace.json").read_bytes())
    assert outs[0] == outs[1]


def test_tracer_spans_and_layer_metrics():
    import riskbands
    import riskbands.bootstrap as bootstrap
    import riskbands.rrr

    spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(50), rho=0.2)
    matrix, _ = spec.realize(300, SeedRecord(1))
    original = bootstrap.resample_counts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names are looked up after install, as the workloads do
        tracer.enabled = True
        band = riskbands.rr_band(matrix, DELTA, 100, SeedRecord(2))
        result = riskbands.rrr_band(matrix, RRRConfig(seed=SeedRecord(2), B=100))
        tracer.enabled = False
        # the private pass rrr calls is wrapped where rrr looks it up
        assert riskbands.rrr._sup_values.__wrapped__ is bootstrap._sup_values.__wrapped__
    finally:
        tracer.uninstall()
    assert bootstrap.resample_counts is original
    names = [s[0] for s in tracer.spans]
    assert names.count("bootstrap.rr_band") == 1
    assert names.count("bootstrap.resample_counts") == 200
    values = tracing.layer_metrics(tracer.spans, 2, [0.5], [], None)
    assert set(values) == {name for name, _ in tracing.layer_metric_names()}
    assert values["bootstrap.replicate_reuse"][0] == 0.5
    assert values["bootstrap.gemm_gflop"][0] == pytest.approx(
        2 * 100 * 300 * (50 + 50 + len(result.adjusted)) / 1e9 / 2)
    assert values["rrr.adjusted_fraction"][0] == len(result.adjusted) / 50
    for name, (value, _) in values.items():
        if name.endswith("self_s"):
            assert value >= 0.0, name
    # the untraced library computes the same band
    assert np.array_equal(band.upper, rr_band(matrix, DELTA, 100, SeedRecord(2)).upper)


def test_benchmark_json_lists_what_the_runs_report(tmp_path):
    import workloads

    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        tracing.layer_metric_names()
    reported = workloads.Workload(1, tmp_path, None).end_to_end([workloads.Op(1.0)])
    reported["setup_s"] = (1.0, "s")
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in reported.items()}
