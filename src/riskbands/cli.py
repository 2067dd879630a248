"""Command-line interface.

Subcommands:

- ``band``       compute a ``MethodSpec`` band for a loss matrix CSV
- ``select``     pick a threshold trading off two empirical risks
- ``suggest-b``  recommend a bootstrap replicate count
- ``simulate``   Monte Carlo metrics for one synthetic configuration; a
                 one-entry ``eval``
- ``eval``       run a JSON experiment descriptor (methods x sample sizes x
                 metrics), run-major: each run is realized once and each
                 method's band built once, shared by every metric; method
                 entries hold ``MethodSpec`` fields only
- ``compose``    combine component bands through a named map
- ``dump-sups``  dump the sorted bootstrap supremum distribution

Every run writes a JSON sidecar echoing all effective parameters (defaults
and the seed included), so it can be re-executed from its own output. Exit
codes: 0 success, 2 usage, 3 parse error, 4 missing file, 5 domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import fileio
from .bootstrap import SeedRecord, suggest_b, sup_distribution
from .compose import combine, selective_ratio_upper
from .empirical import empirical_risk, sublevel_set
from .harness import (
    CONSTANT,
    EQUICORRELATED,
    METHOD_NAMES,
    GeneratorSpec,
    MethodSpec,
    default_classification_grid,
    default_synthetic_grid,
    run_metrics,
    surrogate_generator,
)
from .losses import ORIENTATIONS, UNCONSTRAINED, ParameterGrid, threshold_losses
from .selection import select_elbow, select_even_tradeoff

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_MISSING = 4
EXIT_DOMAIN = 5

def _default_workers() -> int:
    # thread count only; never affects results
    raw = os.environ.get("RISKBANDS_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _resolve_seed(value: int | None) -> SeedRecord:
    if value is None:
        value = secrets.randbits(63)
    return SeedRecord(value)


_METHOD_PARAMS = tuple(f.name for f in fields(MethodSpec))[1:]  # each a --flag

_DESCRIPTOR_KEYS = ("generator", "methods", "n", "runs", "seed", "metrics", "r", "scheme",
                    "trace")

# generator keys each family reads, besides "family"
_FAMILY_KEYS = {
    "equicorrelated": ("grid", "rho", "batch_size", "tradeoff_shift"),
    "constant": ("grid", "value"),
    "panel-surrogate": ("grid", "scores", "labels", "kind", "tradeoff_kind"),
    "matrix-surrogate": ("path", "orientation"),
}


def _refuse_unknown(entry: dict, known, where: str) -> None:
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}")


def _required(entry: dict, key: str, where: str):
    if key not in entry:
        raise ValueError(f"missing key {key!r} in {where}")
    return entry[key]


def _add_method_args(parser) -> None:
    parser.add_argument("--method", required=True, choices=METHOD_NAMES)
    for name in _METHOD_PARAMS:
        default = getattr(MethodSpec, name)
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=type(default),
                            default=default)


def _method_spec(args) -> MethodSpec:
    return MethodSpec(args.method, **{name: getattr(args, name) for name in _METHOD_PARAMS})


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; drawn from OS entropy (and echoed) if omitted")
    parser.add_argument("--workers", type=int, default=_default_workers(),
                        help="thread count for replicate/run loops (results unaffected)")


def cmd_band(args) -> int:
    matrix = fileio.read_loss_matrix(args.input, orientation=args.orientation)
    seed = _resolve_seed(args.seed)
    band = _method_spec(args).band(matrix, seed, side=args.side, workers=args.workers)
    out = Path(args.output)
    extra = {
        "command": "band",
        "input": str(args.input),
        "orientation": args.orientation,
        "seed": seed.as_dict(),
        "side": args.side,
    }
    sidecar = fileio.write_band(band, out, sidecar_extra=extra)
    print(f"band written to {out} (sidecar {sidecar})")
    return EXIT_OK


def cmd_select(args) -> int:
    loss = fileio.read_loss_matrix(args.loss)
    tradeoff = fileio.read_loss_matrix(args.tradeoff)
    curve_l = empirical_risk(loss)
    curve_q = empirical_risk(tradeoff)
    constraint = sublevel_set(curve_l, args.constraint_r)
    picker = select_even_tradeoff if args.scheme == "even-tradeoff" else select_elbow
    result = picker(curve_l, curve_q, constraint)
    out = Path(args.output)
    with out.open("w", newline="") as fh:
        fh.write("scheme,index,t,objective\n")
        fh.write(f"{result.scheme},{result.index},{result.t_value!r},{result.objective!r}\n")
    fileio.write_json(out.with_suffix(out.suffix + ".json"), {
        "command": "select",
        "scheme": result.scheme,
        "index": result.index,
        "t": result.t_value,
        "objective": result.objective,
        "constraint_r": args.constraint_r,
        "constraint_size": len(result.constraint),
        "flags": list(result.flags),
        "loss": str(args.loss),
        "tradeoff": str(args.tradeoff),
    })
    print(f"selected index {result.index} (t={result.t_value}) by {result.scheme}")
    return EXIT_OK


def cmd_suggest_b(args) -> int:
    matrix = fileio.read_loss_matrix(args.input)
    seed = _resolve_seed(args.seed)
    result = suggest_b(matrix, args.delta, seed, initial_b=args.initial_b,
                       sign=args.sign, workers=args.workers)
    payload = {
        "command": "suggest-b",
        "input": str(args.input),
        "delta": args.delta,
        "initial_b": args.initial_b,
        "sign": args.sign,
        "seed": seed.as_dict(),
        "recommended_B": result.B,
        "q_boot": result.q_boot,
        "bracket_width": result.bracket_width,
        "criterion_met": result.met,
        "degenerate": result.degenerate,
        "capped": result.capped,
        "history": [list(h) for h in result.history],
    }
    if args.output:
        fileio.write_json(args.output, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _generator_from_config(cfg: dict) -> GeneratorSpec:
    family = cfg.get("family", "equicorrelated")
    if family == EQUICORRELATED:
        family = "equicorrelated"
    if family not in _FAMILY_KEYS:
        raise ValueError(f"unknown generator family {family!r}")
    _refuse_unknown(cfg, ("family", *_FAMILY_KEYS[family]), f"generator {cfg}")
    if family == "matrix-surrogate":
        matrix = fileio.read_loss_matrix(_required(cfg, "path", f"generator {cfg}"),
                                         cfg.get("orientation", UNCONSTRAINED))
        return surrogate_generator(matrix, label="matrix")
    grid_cfg = cfg.get("grid")
    if grid_cfg is not None:
        grid = ParameterGrid.linspace(*(_required(grid_cfg, key, f"grid {grid_cfg}")
                                        for key in ("low", "high", "size")))
    elif family == "panel-surrogate":
        grid = default_classification_grid()
    else:
        grid = default_synthetic_grid()
    if family == "equicorrelated":
        return GeneratorSpec(EQUICORRELATED, grid, rho=cfg.get("rho", 0.2),
                             batch_size=cfg.get("batch_size", 5),
                             tradeoff_shift=cfg.get("tradeoff_shift", 1.0))
    if family == "constant":
        return GeneratorSpec(CONSTANT, grid, value=cfg.get("value", 0.5))
    panel = fileio.read_panel(*(_required(cfg, key, f"generator {cfg}")
                                for key in ("scores", "labels")))
    kind = cfg.get("kind", "FNP")
    matrix = threshold_losses(panel, grid, kind)
    companion = None
    if "tradeoff_kind" in cfg:
        companion = threshold_losses(panel, grid, cfg["tradeoff_kind"])
    return surrogate_generator(matrix, companion=companion, label=f"panel:{kind}")


def _method_from_entry(entry: dict, r: float) -> MethodSpec:
    _refuse_unknown(entry, ("name", *_METHOD_PARAMS), f"method entry {entry}")
    if "name" not in entry:
        raise ValueError(f"method entry {entry} has no 'name'")
    return MethodSpec(**{"r": r, **entry})


def _run_experiment(desc: dict, seed: SeedRecord, workers: int, prefix: Path,
                    header: dict) -> list:
    """Run a descriptor and write its metrics CSV/JSON (and trace) at ``prefix``.

    Each sample size is one run-major pass over every method and metric, so
    the cells share one realization per run and one band per (method, run).
    Reports come out in method -> n -> metric order.
    """
    spec = _generator_from_config(desc.get("generator", {}))
    runs = int(desc.get("runs", 1000))
    n_list = desc.get("n", [1000])
    if isinstance(n_list, int):
        n_list = [n_list]
    metrics = desc.get("metrics", ["anywhere"])
    r = float(desc.get("r", MethodSpec.r))
    scheme = desc.get("scheme", "even-tradeoff")
    methods = [_method_from_entry(mc, r) for mc in desc.get("methods", [{"name": "rr"}])]

    by_n = []
    for n in n_list:
        t0 = time.perf_counter()
        traces = []
        by_n.append((run_metrics(methods, spec, int(n), runs, seed, metrics, r=r,
                                 scheme=scheme, workers=workers, traces=traces), traces))
        print(f"n={n}: {len(methods)} method(s) x {len(metrics)} metric(s) "
              f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    reports, traces = [], {}
    for i, method in enumerate(methods):
        for n, (cells, cell_traces) in zip(n_list, by_n):
            for rep, trace, metric in zip(cells[i], cell_traces[i], metrics):
                reports.append(rep)
                traces[f"{method.name}_n{n}_{metric}"] = trace
                print(f"{method.name} n={n} {metric}: estimate={rep.estimate:.6g} "
                      f"se={rep.std_error:.3g}", file=sys.stderr)
    fileio.write_metrics_csv(reports, prefix.with_suffix(".csv"))
    fileio.write_metrics_json(reports, prefix.with_suffix(".json"), header=header)
    if desc.get("trace", False):
        fileio.write_json(prefix.with_suffix(".trace.json"), traces, indent=1)
    return reports


def _exit_code(reports: list) -> int:
    """EXIT_DOMAIN, with one stderr line per cell whose every run was
    excluded, once every file is written; EXIT_OK when there is none."""
    empty = [rep for rep in reports if rep.extra.get("excluded_runs") == rep.runs]
    for rep in empty:
        print(f"error[domain]: {rep.config['method']} n={rep.config['n']} {rep.metric}: "
              f"every run was excluded", file=sys.stderr)
    return EXIT_DOMAIN if empty else EXIT_OK


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    gen_cfg = {"family": args.family}
    if args.family == "equicorrelated":
        gen_cfg["rho"] = args.rho
    if args.grid_size:
        gen_cfg["grid"] = {"low": args.grid_low, "high": args.grid_high,
                           "size": args.grid_size}
    desc = {"generator": gen_cfg, "n": [args.n], "runs": args.runs, "r": args.r,
            "scheme": args.scheme, "metrics": [m.strip() for m in args.metric.split(",")],
            "methods": [asdict(_method_spec(args))]}
    reports = _run_experiment(desc, seed, args.workers, Path(args.output_prefix), header={
        "command": "simulate",
        "seed": seed.as_dict(),
        "workers_hint": args.workers,
    })
    for rep in reports:
        print(f"{rep.metric}: {rep.estimate!r} (se {rep.std_error!r})")
    return _exit_code(reports)


def cmd_eval(args) -> int:
    desc_path = Path(args.descriptor)
    try:
        desc = json.loads(desc_path.read_text())
    except json.JSONDecodeError as exc:
        raise fileio.ParseError(f"{desc_path}: invalid JSON ({exc})") from None
    _refuse_unknown(desc, _DESCRIPTOR_KEYS, "descriptor")
    seed = _resolve_seed(desc.get("seed", args.seed))
    prefix = Path(args.output_prefix)
    reports = _run_experiment(desc, seed, args.workers, prefix, header={
        "command": "eval",
        "descriptor": str(desc_path),
        "seed": seed.as_dict(),
    })
    print(f"{len(reports)} report(s) written to {prefix.with_suffix('.csv')}")
    return _exit_code(reports)


def cmd_compose(args) -> int:
    bands = [fileio.read_band(p) for p in args.inputs]
    seedless_extra = {"command": "compose", "psi": args.psi,
                      "inputs": [str(p) for p in args.inputs]}
    if args.psi == "ratio":
        if len(bands) != 2:
            raise ValueError("ratio composition needs exactly two bands "
                             "(numerator upper, denominator lower)")
        band = selective_ratio_upper(bands[0], bands[1], floor=args.floor)
        seedless_extra["floor"] = band.info["ratio_floor"]
    else:
        k = len(bands)
        if args.psi == "sum":
            weights = np.ones(k)
        else:
            if not args.weights:
                raise ValueError("weighted-sum needs --weights w1,w2,...")
            weights = np.array([float(w) for w in args.weights.split(",")])
            if len(weights) != k or (weights < 0).any():
                raise ValueError("need one nonnegative weight per input band")
        psi = lambda *parts: sum(w * p for w, p in zip(weights, parts))
        band = combine(bands, psi, psi_monotonicity=["increasing"] * k)
        seedless_extra["weights"] = weights.tolist()
    sidecar = fileio.write_band(band, Path(args.output), sidecar_extra=seedless_extra)
    print(f"composed band written to {args.output} (sidecar {sidecar})")
    return EXIT_OK


def cmd_dump_sups(args) -> int:
    matrix = fileio.read_loss_matrix(args.input, orientation=args.orientation)
    seed = _resolve_seed(args.seed)
    dist = sup_distribution(matrix, None, args.sign, args.B, seed,
                            workers=args.workers)
    fileio.write_sup_distribution(dist, args.output)
    print(f"{args.B} supremum values written to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbands",
        description="Simultaneous confidence bands for monotone risk curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("band", help="compute a confidence band for a loss matrix CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--orientation", choices=ORIENTATIONS, default=UNCONSTRAINED)
    p.add_argument("--side", choices=("upper", "lower", "two-sided"), default="upper")
    _add_method_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("select", help="choose a threshold trading off two risks")
    p.add_argument("--loss", required=True)
    p.add_argument("--tradeoff", required=True)
    p.add_argument("--scheme", choices=("even-tradeoff", "elbow"), default="even-tradeoff")
    p.add_argument("--constraint-r", dest="constraint_r", type=float, default=0.1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("suggest-b", help="recommend a bootstrap replicate count")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--initial-b", dest="initial_b", type=int, default=1000)
    p.add_argument("--sign", choices=("plus", "minus", "two-sided"), default="minus")
    p.add_argument("--output", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_suggest_b)

    p = sub.add_parser("simulate", help="Monte Carlo metrics for one synthetic configuration")
    p.add_argument("--family", choices=("equicorrelated", "constant"), default="equicorrelated")
    p.add_argument("--rho", type=float, default=0.2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--metric", default="anywhere",
                   help="comma-separated subset of anywhere,selected,conservatism")
    p.add_argument("--scheme", choices=("even-tradeoff", "elbow"), default="even-tradeoff")
    p.add_argument("--grid-low", type=float, default=-3.0)
    p.add_argument("--grid-high", type=float, default=3.0)
    p.add_argument("--grid-size", type=int, default=0,
                   help="override the default 1000-point grid")
    p.add_argument("--output-prefix", required=True)
    _add_method_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="run a JSON experiment descriptor")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--output-prefix", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compose", help="combine component band CSVs via a named map")
    p.add_argument("--inputs", nargs="+", required=True,
                   help="component band CSVs (each with its .json sidecar)")
    p.add_argument("--psi", choices=("ratio", "sum", "weighted-sum"), required=True)
    p.add_argument("--weights", default=None, help="comma-separated weights for weighted-sum")
    p.add_argument("--floor", type=float, default=None,
                   help="denominator floor for ratio (default 1/(2n))")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("dump-sups", help="dump the sorted bootstrap supremum distribution")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--orientation", choices=ORIENTATIONS, default=UNCONSTRAINED)
    p.add_argument("--sign", choices=("plus", "minus", "two-sided"), default="minus")
    p.add_argument("--B", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_dump_sups)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error[missing-file]: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except fileio.ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
