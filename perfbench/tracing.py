"""Span tracing of riskbands from outside the package.

The tracer replaces selected public functions (and the private
``_sup_values``, which ``rrr`` calls directly) with timing wrappers at every
place a caller looks them up: the defining module, each ``riskbands``
module that imported the name, and the class for methods. Nothing inside the
package is edited. Spans live in memory as tuples and are written out when
the run ends; per-layer metrics are computed from them afterwards.

The wrappers keep one call stack, so the traced code must run in one thread
(the benchmark sets ``RISKBANDS_WORKERS=1``).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _seed_key(seed) -> str:
    return ":".join(str(x) for x in (seed.seed, *seed.path))


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _replicate(args, kwargs, result):
    seed = _arg(args, kwargs, 1, "seed")
    return {"key": f"{_seed_key(seed)}/{_arg(args, kwargs, 2, 'replicate_index')}"}


def _gemm_flop(args, kwargs, result):
    # one pass multiplies (B x n) counts by the (n x |subset|) losses
    sub = _arg(args, kwargs, 0, "sub")
    return {"flop": 2 * int(_arg(args, kwargs, 4, "B")) * sub.shape[0] * sub.shape[1]}


def _adjusted(args, kwargs, result):
    return {"adjusted_fraction": len(result.adjusted) / len(result.band.grid)}


def _realization(args, kwargs, result):
    return {"key": _seed_key(_arg(args, kwargs, 2, "seed"))}


def _band_key(seed_pos):
    def hook(args, kwargs, result):
        seed = _arg(args, kwargs, seed_pos, "seed")
        return {"key": f"{args[0].name}/{_seed_key(seed)}"}
    return hook


# (module, attribute, span name, attribute hook). Several attributes may share
# a span name; the per-layer metrics aggregate by span name.
TARGETS = (
    ("riskbands.cli", "main", "cli.main", None),
    ("riskbands.fileio", "read_loss_matrix", "fileio.read_loss_matrix", _bytes_read),
    ("riskbands.fileio", "write_loss_matrix", "fileio.write_loss_matrix", None),
    ("riskbands.fileio", "write_band", "fileio.write_band", None),
    ("riskbands.fileio", "read_band", "fileio.read_band", None),
    ("riskbands.fileio", "write_sup_distribution", "fileio.write_sup_distribution", None),
    ("riskbands.fileio", "write_metrics_csv", "fileio.write_metrics", None),
    ("riskbands.fileio", "write_metrics_json", "fileio.write_metrics", None),
    ("riskbands.losses", "validate", "losses.validate", None),
    ("riskbands.empirical", "empirical_risk", "empirical.empirical_risk", None),
    ("riskbands.bootstrap", "resample_counts", "bootstrap.resample_counts", _replicate),
    ("riskbands.bootstrap", "sup_distribution", "bootstrap.sup_distribution", None),
    ("riskbands.bootstrap", "_sup_values", "bootstrap.sup_distribution", _gemm_flop),
    ("riskbands.bootstrap", "rr_band", "bootstrap.rr_band", None),
    ("riskbands.rrr", "rrr_band", "rrr.rrr_band", _adjusted),
    ("riskbands.bounds", "nasm_band", "bounds.nasm_band", None),
    ("riskbands.bounds", "wsr_band", "bounds.wsr_band", None),
    ("riskbands.bounds", "wsr_rejects", "bounds.wsr_rejects", None),
    ("riskbands.harness", "GeneratorSpec.realize", "harness.realize", _realization),
    ("riskbands.harness", "GeneratorSpec.realize_pair", "harness.realize", _realization),
    ("riskbands.harness", "MethodSpec.upper_band", "harness.band", _band_key(2)),
    ("riskbands.harness", "MethodSpec.miscovers", "harness.band", _band_key(3)),
    ("riskbands.harness", "miscoverage_anywhere", "harness.run_loop", None),
    ("riskbands.harness", "miscoverage_selected", "harness.run_loop", None),
    ("riskbands.harness", "conservatism", "harness.run_loop", None),
    ("riskbands.selection", "select_even_tradeoff", "selection.select", None),
    ("riskbands.selection", "select_elbow", "selection.select", None),
    ("riskbands.compose", "combine", "compose.combine", None),
    ("riskbands.compose", "selective_ratio_upper", "compose.combine", None),
)


class Tracer:
    """Records (name, start, end, parent, op, attrs) spans while enabled."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if hook is not None:
                spans[idx] = (name, start, end, parent, self.op, hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded riskbands module refers to it."""
        import riskbands.cli  # noqa: F401  (loads every module that holds a target)

        modules = [m for k, m in sys.modules.items()
                   if k == "riskbands" or k.startswith("riskbands.")]
        for mod_name, attr, name, hook in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def records(self) -> list[dict]:
        """The spans as JSON-ready dicts (start and end in seconds)."""
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op, "attrs": attrs}
                for name, start, end, parent, op, attrs in self.spans]


def span_tuples(records: list[dict], offset: int, op: int) -> list[tuple]:
    """Spans read back from a launcher's dump, re-indexed behind ``offset``."""
    return [(r["name"], r["start"], r["end"],
             r["parent"] + offset if r["parent"] >= 0 else -1, op, r["attrs"])
            for r in records]


# span name -> reported as .self_s (mean per call); these also get .calls
_SELF = (
    "fileio.read_loss_matrix", "fileio.write_loss_matrix", "fileio.write_band",
    "fileio.read_band", "fileio.write_sup_distribution", "fileio.write_metrics",
    "losses.validate", "empirical.empirical_risk", "bootstrap.resample_counts",
    "bootstrap.sup_distribution", "rrr.rrr_band", "bounds.wsr_band",
    "bounds.wsr_rejects", "harness.realize", "harness.run_loop",
    "selection.select", "compose.combine",
)
_CALLS = (
    "fileio.read_loss_matrix", "losses.validate", "empirical.empirical_risk",
    "bootstrap.resample_counts", "bounds.wsr_band", "bounds.wsr_rejects",
    "harness.realize",
)
_TOTAL = ("bootstrap.rr_band", "rrr.rrr_band")


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [("cli.import_s", "s"), ("cli.call_overhead_s", "s")]
    for span in _SELF:
        names.append((f"{span}.self_s", "s"))
        if span in _CALLS:
            names.append((f"{span}.calls", "count"))
    names += [(f"{span}.total_s", "s") for span in _TOTAL]
    names += [
        ("fileio.read_loss_matrix.mb_per_s", "MB/s"),
        ("bootstrap.replicate_reuse", "ratio"),
        ("bootstrap.gemm_gflop", "GFLOP/op"),
        ("bootstrap.gemm_gflop_per_s", "GFLOP/s"),
        ("rrr.adjusted_fraction", "ratio"),
        ("harness.realize_reuse", "ratio"),
        ("harness.band_calls", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], ops: int, import_s: list[float],
                  cli_calls: list[tuple[int, float]], overhead: tuple[float, float] | None
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced spans, as name -> (value, unit).

    ``ops``: traced workload operations. ``import_s``: fresh-interpreter
    import times. ``cli_calls``: (op, wall seconds) of each CLI call; its
    overhead is the wall time minus the traced library time under
    ``cli.main``. ``overhead``: typical traced and untraced seconds per
    operation of the same workload, or None without untraced rounds.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    keys: dict[str, set] = defaultdict(set)
    flop = read_bytes = 0
    adjusted: list[float] = []
    library_by_op: dict[int, float] = defaultdict(float)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        self_s[name] += end - start - child[i]
        # a span nested in one of the same name (sup_distribution calling
        # _sup_values, upper_band inside miscovers) is part of the same call
        if parent < 0 or spans[parent][0] != name:
            calls[name] += 1
            total_s[name] += end - start
        if name == "cli.main":
            library_by_op[op] += child[i]
        if attrs:
            if "key" in attrs:
                keys[name].add(attrs["key"])
            flop += attrs.get("flop", 0)
            read_bytes += attrs.get("bytes", 0)
            if "adjusted_fraction" in attrs:
                adjusted.append(attrs["adjusted_fraction"])

    out = {
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.call_overhead_s": statistics.median(
            wall - library_by_op[op] for op, wall in cli_calls) if cli_calls else 0.0,
    }
    for span in _SELF:
        out[f"{span}.self_s"] = _ratio(self_s[span], calls[span])
        if span in _CALLS:
            out[f"{span}.calls"] = calls[span]
    for span in _TOTAL:
        out[f"{span}.total_s"] = _ratio(total_s[span], calls[span])
    sup_self = self_s["bootstrap.sup_distribution"]
    out.update({
        "fileio.read_loss_matrix.mb_per_s": _ratio(read_bytes / 1e6,
                                                   self_s["fileio.read_loss_matrix"]),
        "bootstrap.replicate_reuse": _ratio(len(keys["bootstrap.resample_counts"]),
                                            calls["bootstrap.resample_counts"]),
        "bootstrap.gemm_gflop": _ratio(flop / 1e9, ops),
        "bootstrap.gemm_gflop_per_s": _ratio(flop / 1e9, sup_self),
        "rrr.adjusted_fraction": statistics.fmean(adjusted) if adjusted else 0.0,
        "harness.realize_reuse": _ratio(len(keys["harness.realize"]),
                                        calls["harness.realize"]),
        "harness.band_calls": _ratio(calls["harness.band"], len(keys["harness.band"])),
        "trace.overhead_s": overhead[0] - overhead[1] if overhead else 0.0,
        "trace.overhead_frac": (overhead[0] - overhead[1]) / overhead[1] if overhead else 0.0,
    })
    return {name: (out[name], unit) for name, unit in layer_metric_names()}
