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
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import fileio
from .bootstrap import SIGNS, SeedRecord, suggest_b, sup_distribution
from .bounds import SIDES
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
from .losses import LOSS_KINDS, ORIENTATIONS, UNCONSTRAINED, ParameterGrid, threshold_losses
from .selection import SCHEMES, select_elbow, select_even_tradeoff

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_MISSING = 4
EXIT_DOMAIN = 5

def _worker_count(text: str) -> int:
    # thread count only; never affects results
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"need a positive integer (from --workers or RISKBANDS_WORKERS), not {text!r}")
    return value


def _with_sidecar(path) -> tuple[Path, Path]:
    """A written file and the ``.json`` sidecar next to it."""
    path = Path(path)
    return path, path.with_suffix(path.suffix + ".json")


def _refuse_overwrite(outputs, inputs, what: str = "command") -> None:
    """Refuse, before any work, an output that resolves to one of ``inputs``."""
    sources = {os.path.realpath(p) for p in inputs}
    for out in outputs:
        if os.path.realpath(out) in sources:
            raise ValueError(f"output {out} would overwrite an input of the {what}")


def _resolve_seed(value: int | None) -> SeedRecord:
    if value is None:
        # 63 random bits from the OS; the secrets module would import hashlib
        value = int.from_bytes(os.urandom(8), "little") >> 1
    return SeedRecord(value)


_REQUIRED = object()  # the default of a key that must be given

# Each descriptor object's keys: key -> (JSON kind, default). A kind is a JSON
# type (float: any number), [kind] a nonempty list of that kind, (kind, [kind])
# one entry or a list of them, read as a list. A null stands for a null default.
_GRID = {"low": (float, _REQUIRED), "high": (float, _REQUIRED), "size": (int, _REQUIRED)}
_FAMILIES = {
    "equicorrelated": {"grid": (dict, None), "rho": (float, 0.2), "batch_size": (int, 5),
                       "tradeoff_shift": (float, 1.0)},
    "constant": {"grid": (dict, None), "value": (float, 0.5)},
    "panel-surrogate": {"grid": (dict, None), "scores": (str, _REQUIRED),
                        "labels": (str, _REQUIRED), "kind": (str, "FNP"),
                        "tradeoff_kind": (str, None)},
    "matrix-surrogate": {"path": (str, _REQUIRED), "orientation": (str, UNCONSTRAINED)},
}
_METHOD = {f.name: (str, _REQUIRED) if f.default is MISSING else (type(f.default), f.default)
           for f in fields(MethodSpec)}
_METHOD_PARAMS = tuple(_METHOD)[1:]  # each a --flag of band and simulate
_DESCRIPTOR = {"generator": (dict, {}), "methods": ([dict], [{"name": "rr"}]),
               "n": ((int, [int]), [1000]), "runs": (int, 1000), "seed": (int, None),
               "metrics": ([str], ["anywhere"]), "r": (float, MethodSpec.r),
               "scheme": (str, "even-tradeoff"), "trace": (bool, False)}

# The keys, in any table, whose string must be one of a fixed set of names.
_CHOICES = {"scheme": SCHEMES, "orientation": ORIENTATIONS, "kind": LOSS_KINDS,
            "tradeoff_kind": LOSS_KINDS}

_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean"}


def _typed(value, kind, what: str):
    """``value`` when it is of JSON ``kind`` (see ``_DESCRIPTOR``); a boolean is only a bool."""
    if isinstance(kind, tuple):
        lone = not isinstance(value, list)
        return [_typed(value, kind[0], what)] if lone else _typed(value, kind[1], what)
    if isinstance(kind, list):
        if not _typed(value, list, what):
            raise ValueError(f"{what} must be a nonempty list, not []")
        return [_typed(v, kind[0], f"each entry of {what}") for v in value]
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{what} must be {_JSON_NAMES[kind]}, not {json.dumps(value)}")
    return value


def _read(obj, table: dict, what: str, where: str) -> dict:
    """Every key of ``table``, from the JSON object ``obj`` or by default.

    Refused: a non-object, a key not in the table, a missing required key, a
    value of the wrong kind and a name outside its key's ``_CHOICES``.
    """
    unknown = sorted(set(_typed(obj, dict, what)) - set(table))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}")
    out = {}
    for key, (kind, default) in table.items():
        if key not in obj and default is _REQUIRED:
            raise ValueError(f"missing key {key!r} in {where}")
        value = obj.get(key, default)
        out[key] = None if value is None and default is None else _typed(value, kind, repr(key))
        if key in _CHOICES and out[key] not in (None, *_CHOICES[key]):
            raise ValueError(f"{key!r} must be one of {list(_CHOICES[key])}, "
                             f"not {json.dumps(value)}")
    return out


def _add_method_args(parser) -> None:
    parser.add_argument("--method", required=True, choices=METHOD_NAMES)
    for name in _METHOD_PARAMS:
        kind, default = _METHOD[name]
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=default)


def _method_spec(args) -> MethodSpec:
    return MethodSpec(args.method, **{name: getattr(args, name) for name in _METHOD_PARAMS})


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; drawn from OS entropy (and echoed) if omitted")
    parser.add_argument("--workers", type=_worker_count,
                        default=os.environ.get("RISKBANDS_WORKERS", "1"),
                        help="thread count for replicate/run loops (results unaffected)")


def cmd_band(args) -> int:
    _refuse_overwrite(_with_sidecar(args.output), [args.input])
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
    out, sidecar = _with_sidecar(args.output)
    _refuse_overwrite((out, sidecar), [args.loss, args.tradeoff])
    loss = fileio.read_loss_matrix(args.loss)
    tradeoff = fileio.read_loss_matrix(args.tradeoff)
    curve_l = empirical_risk(loss)
    curve_q = empirical_risk(tradeoff)
    constraint = sublevel_set(curve_l, args.constraint_r)
    picker = select_even_tradeoff if args.scheme == "even-tradeoff" else select_elbow
    result = picker(curve_l, curve_q, constraint)
    with out.open("w", newline="") as fh:
        fh.write("scheme,index,t,objective\n")
        fh.write(f"{result.scheme},{result.index},{result.t_value!r},{result.objective!r}\n")
    fileio.write_json(sidecar, {
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
    _refuse_overwrite([args.output] if args.output else [], [args.input])
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
        "lattice": result.lattice,
        "history": [list(h) for h in result.history],
    }
    if args.output:
        fileio.write_json(args.output, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _generator_from_config(cfg) -> GeneratorSpec:
    family = _typed(_typed(cfg, dict, "'generator'").get("family", "equicorrelated"), str,
                    "'family'")
    if family == EQUICORRELATED:
        family = "equicorrelated"
    if family not in _FAMILIES:
        raise ValueError(f"unknown generator family {family!r}")
    g = _read(cfg, {"family": (str, family), **_FAMILIES[family]}, "'generator'",
              f"generator {cfg}")
    if family == "matrix-surrogate":
        return surrogate_generator(fileio.read_loss_matrix(g["path"], g["orientation"]),
                                   label="matrix")
    if g["grid"] is not None:
        grid = ParameterGrid.linspace(*_read(g["grid"], _GRID, "'grid'",
                                             f"grid {g['grid']}").values())
    elif family == "panel-surrogate":
        grid = default_classification_grid()
    else:
        grid = default_synthetic_grid()
    if family == "equicorrelated":
        return GeneratorSpec(EQUICORRELATED, grid, rho=g["rho"], batch_size=g["batch_size"],
                             tradeoff_shift=g["tradeoff_shift"])
    if family == "constant":
        return GeneratorSpec(CONSTANT, grid, value=g["value"])
    panel = fileio.read_panel(g["scores"], g["labels"])
    matrix = threshold_losses(panel, grid, g["kind"])
    companion = None
    if g["tradeoff_kind"] is not None:
        companion = threshold_losses(panel, grid, g["tradeoff_kind"])
    return surrogate_generator(matrix, companion=companion, label=f"panel:{g['kind']}")


def _run_experiment(raw, seed: int | None, workers: int, prefix: Path, header: dict,
                    inputs: tuple = ()) -> list:
    """Run a descriptor and write its metrics CSV/JSON (and trace) at ``prefix``.

    The descriptor's own seed, when it has one, replaces ``seed``. Each sample
    size is one run-major pass over every method and metric, so the cells
    share one realization per run and one band per (method, run). Reports
    come out in method -> n -> metric order. An output that is one of
    ``inputs`` or a file the generator names, and two method entries with
    one name (their cells would share a trace key), are refused before any run.
    """
    desc = _read(raw, _DESCRIPTOR, "the descriptor", "descriptor")
    named = [desc["generator"].get(key) for key in ("path", "scores", "labels")]
    _refuse_overwrite([prefix.with_suffix(suffix) for suffix in (".csv", ".json", ".trace.json")],
                      [*inputs, *(p for p in named if isinstance(p, str))], "experiment")
    r = float(desc["r"])
    # a method entry's r defaults to the descriptor's
    method_table = {**_METHOD, "r": (float, r)}
    methods = [MethodSpec(**_read(entry, method_table, "each entry of 'methods'",
                                  f"method entry {entry}")) for entry in desc["methods"]]
    names = [method.name for method in methods]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"'methods' lists {name!r} more than once; "
                             f"each method entry needs its own name")
    seed = _resolve_seed(seed if desc["seed"] is None else desc["seed"])
    header["seed"] = seed.as_dict()
    spec = _generator_from_config(desc["generator"])
    n_list, metrics = desc["n"], desc["metrics"]

    by_n = []
    for n in n_list:
        t0 = time.perf_counter()
        traces = []
        by_n.append((run_metrics(methods, spec, n, desc["runs"], seed, metrics, r=r,
                                 scheme=desc["scheme"], workers=workers, traces=traces),
                     traces))
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
    if desc["trace"]:
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
    gen_cfg = {"family": args.family}
    if args.family == "equicorrelated":
        gen_cfg["rho"] = args.rho
    if args.grid_size:
        gen_cfg["grid"] = {"low": args.grid_low, "high": args.grid_high,
                           "size": args.grid_size}
    desc = {"generator": gen_cfg, "n": [args.n], "runs": args.runs, "r": args.r,
            "scheme": args.scheme, "metrics": [m.strip() for m in args.metric.split(",")],
            "methods": [asdict(_method_spec(args))]}
    reports = _run_experiment(desc, args.seed, args.workers, Path(args.output_prefix), header={
        "command": "simulate",
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
    prefix = Path(args.output_prefix)
    reports = _run_experiment(desc, args.seed, args.workers, prefix, header={
        "command": "eval",
        "descriptor": str(desc_path),
    }, inputs=(desc_path,))
    print(f"{len(reports)} report(s) written to {prefix.with_suffix('.csv')}")
    return _exit_code(reports)


def cmd_compose(args) -> int:
    # each input band is read with its sidecar
    _refuse_overwrite(_with_sidecar(args.output),
                      [p for path in args.inputs for p in _with_sidecar(path)])
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
            if len(weights) != k or not (np.isfinite(weights) & (weights >= 0)).all():
                raise ValueError("need one finite, nonnegative weight per input band")
        psi = lambda *parts: sum(w * p for w, p in zip(weights, parts))
        band = combine(bands, psi, psi_monotonicity=["increasing"] * k)
        seedless_extra["weights"] = weights.tolist()
    sidecar = fileio.write_band(band, Path(args.output), sidecar_extra=seedless_extra)
    print(f"composed band written to {args.output} (sidecar {sidecar})")
    return EXIT_OK


def cmd_dump_sups(args) -> int:
    out, sidecar = _with_sidecar(args.output)
    _refuse_overwrite((out, sidecar), [args.input])
    matrix = fileio.read_loss_matrix(args.input)
    seed = _resolve_seed(args.seed)
    dist = sup_distribution(matrix, None, args.sign, args.B, seed,
                            workers=args.workers)
    fileio.write_sup_distribution(dist, out)
    fileio.write_json(sidecar, {"command": "dump-sups", "input": str(args.input),
                                "sign": args.sign, "B": args.B, "seed": seed.as_dict()})
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
    p.add_argument("--side", choices=SIDES, default="upper")
    _add_method_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("select", help="choose a threshold trading off two risks")
    p.add_argument("--loss", required=True)
    p.add_argument("--tradeoff", required=True)
    p.add_argument("--scheme", choices=SCHEMES, default="even-tradeoff")
    p.add_argument("--constraint-r", dest="constraint_r", type=float, default=0.1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("suggest-b", help="recommend a bootstrap replicate count")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--initial-b", dest="initial_b", type=int, default=1000)
    p.add_argument("--sign", choices=SIGNS, default="minus")
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
    p.add_argument("--scheme", choices=SCHEMES, default="even-tradeoff")
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
    p.add_argument("--sign", choices=SIGNS, default="minus")
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
