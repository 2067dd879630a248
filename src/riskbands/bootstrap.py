"""Multinomial resampling of loss rows and supremum-statistic distributions.

Each replicate reweights the sample rows by multinomial counts (equivalent to
drawing n rows with replacement), forms the resampled risk curve, and records
the supremum over a grid subset of the centered, rescaled deviation from the
empirical curve. Quantiles of those suprema give fixed-width uniform bands.

One replicate engine serves every band: the deviations of B replicates on
the full grid are computed once per (matrix, seed record, B), kept on the
matrix (O(B·m) memory, independent of n), and reduced to signed suprema over
any index set. ``rr_band``, ``sup_distribution`` and both passes of
``rrr_band`` on the same matrix and seed therefore share their replicates.
``suggest_b`` streams its suprema instead, so it never holds a B×m array,
and draws each replicate once however often it doubles B.

Each matrix has one deviation kernel (``_kernel``), and every consumer
calls it. A matrix the generators built in step form (``LossMatrix._steps``)
gets a weighted histogram of its jump bins and a cumulative sum over the
grid, O(nK + m) per replicate, with the histograms of up to 2**14 / n
replicates filled by one bincount per bin column (exact integer sums, so
the grouping changes no bit); every other matrix gets one GEMM per block of
replicates, O(nm) per replicate. Both draw the same counts from the same
streams and agree to within float rounding (1e-12 on the quantiles). The
suprema are reduced in place from the kept deviations, over a slice view
when the index set is one run of consecutive grid points (the full grid,
rrr's adjusted set), so no B x m copy is made.

Determinism contract: replicates come in blocks of 64. Block j (replicates
64j .. 64j+63) has one generator, keyed by (seed record, j), and replicate
64j + r is row r of that generator's 64 x n uniform draw of row indices, so
a prefix of replicates is the same whatever B is. A block is drawn in
chunks of about 2**16 indices, which the chunking cannot change, and the
counts reach the kernels one row at a time. Deviations are computed
per block, so the sorted output is bit-identical under serial and parallel
execution, under any scheduling of the blocks, and whether the replicates
were computed for this call or shared with an earlier one. Across B, the
step kernel's deviations of a replicate prefix are exact; the GEMM's last
block has B mod 64 rows, and BLAS may round that shape differently, by
about 1e-15.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bounds import SIDES, ConfidenceBand, _fixed_width_band
from .empirical import IndexSet, empirical_risk
from .losses import LossMatrix, _frozen

SIGNS = ("plus", "minus", "two-sided")

# Replicates per block, and per generator. Part of the stream scheme (not
# tied to the executor), so scheduling cannot change the draws or which GEMM
# calls are made.
_BLOCK = 64

# Row indices per draw call, about: a block is drawn max(1, _CHUNK // n) rows
# at a time, so its working memory does not grow with _BLOCK * n.
_CHUNK = 2**16

# Bin entries per weighted bincount of the step kernel, about: its count rows
# are taken max(1, _GROUP // n) at a time (see ``_kernel``).
_GROUP = 2**14

# Hard cap on replicate growth in suggest_b.
_B_CAP = 2**20


@dataclass(frozen=True)
class SeedRecord:
    """Master seed plus a stream-splitting path; fully determines all draws.

    Streams are derived by spawn keys, so ``child(i)`` and ``generator(i)``
    depend only on (seed, path, i) and never on evaluation order. ``scheme``
    and ``algorithm`` name that derivation and PCG64 in every sidecar; the
    scheme also names the bootstrap's use of it, one generator per block of
    64 replicates.
    """

    seed: int
    path: tuple[int, ...] = ()
    scheme: ClassVar[str] = "numpy-seedsequence-spawn-key-block64"
    algorithm: ClassVar[str] = "pcg64"

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def child(self, *indices: int) -> "SeedRecord":
        return SeedRecord(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self, *indices: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=self.path + tuple(int(i) for i in indices))
        return np.random.Generator(np.random.PCG64(ss))

    def as_dict(self) -> dict:
        return {"seed": self.seed, "path": list(self.path),
                "scheme": self.scheme, "algorithm": self.algorithm}


def _seed_record(seed: SeedRecord | int) -> SeedRecord:
    """``seed`` itself, or the record of an int master seed."""
    return SeedRecord(seed) if isinstance(seed, int) else seed


def _replicate_count(B) -> int:
    """``B`` as an int of at least 1: a non-integer B is refused, not truncated."""
    try:
        B = operator.index(B)
    except TypeError:
        raise ValueError(f"B must be an integer, not {B!r}") from None
    if B < 1:
        raise ValueError("need B >= 1")
    return B


@dataclass(frozen=True)
class BootstrapSupDistribution:
    """Sorted supremum statistics from B replicates, with full provenance."""

    sorted_values: np.ndarray
    B: int
    sign: str
    subset: IndexSet
    seed: SeedRecord

    def __post_init__(self):
        v = np.asarray(self.sorted_values, dtype=float)
        if v.ndim != 1 or v.size != self.B or self.B < 1:
            raise ValueError("need B >= 1 sorted supremum values")
        if np.any(np.diff(v) < 0):
            raise ValueError("supremum values must be sorted nondecreasing")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}")
        if self.sign == "two-sided" and v.size and v[0] < 0:
            raise ValueError("two-sided suprema must be nonnegative")
        object.__setattr__(self, "sorted_values", _frozen(v))


def resample_counts(n: int, seed: SeedRecord, replicate_index: int) -> np.ndarray:
    """Multinomial(n; uniform) row counts for one replicate.

    Replicate b is row b % 64 of block b // 64's draw of n uniform row
    indices with replacement, tallied; the result is a deterministic function
    of (seed, replicate_index).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    block, row = divmod(int(replicate_index), _BLOCK)
    for counts in _count_rows(n, seed.generator(block), row + 1):
        pass  # keep only the last row, so no earlier chunk stays alive
    return counts.copy()


def _count_rows(n: int, rng: np.random.Generator, rows: int):
    """The next ``rows`` count rows of a block's generator, one at a time.

    Each row tallies n uniform row indices. They are drawn in chunks of
    max(1, _CHUNK // n) rows, each tallied by one offset bincount; how the
    draws are split does not change them, since the generator's stream is
    the same.
    """
    step = max(1, _CHUNK // n)
    for start in range(0, rows, step):
        k = min(step, rows - start)
        idx = rng.integers(0, n, size=(k, n))
        idx += np.arange(0, k * n, n)[:, None]
        yield from np.bincount(idx.ravel(), minlength=k * n).reshape(k, n)


def conservative_quantile(sorted_values: np.ndarray, delta: float) -> float:
    """Order statistic k = min(B, ceil((B+1)(1-delta))) of a sorted sample.

    This finite-B convention keeps the exceedance probability of the returned
    value at most delta (up to Monte Carlo error), which the plain empirical
    quantile does not guarantee. When B < (1-delta)/delta, k is clamped to B
    (see ``_clamped_note``).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    b = len(sorted_values)
    if b < 1:
        raise ValueError("empty sample")
    k = max(1, min(b, _order_index(b, delta)))
    return float(sorted_values[k - 1])


def _order_index(b: int, delta: float) -> int:
    # the 1e-9 guard keeps float dust from pushing an exactly-integer
    # (B+1)(1-delta) up to the next order statistic
    return math.ceil((b + 1) * (1.0 - delta) - 1e-9)


def _clamped_note(B: int, *deltas: float) -> tuple[str, ...]:
    """The ``quantile-clamped`` note when B replicates are too few for any
    of the conservative 1-delta quantiles.

    Then ``conservative_quantile`` returns the sample maximum, whose
    exceedance probability can reach 1/(B+1) > delta.
    """
    clamped = any(_order_index(int(B), delta) > int(B) for delta in deltas)
    return ("quantile-clamped",) if clamped else ()


def _signed_sups(g: np.ndarray, sign: str) -> np.ndarray:
    """Per-row supremum of deviation rows (replicates x grid points).

    No columns means an empty supremum, taken as zero. No negated or
    absolute copy of ``g`` is made: -min is the maximum of the negation, and
    max(max, -min) the largest absolute value.
    """
    if g.shape[1] == 0:
        return np.zeros(g.shape[0])
    if sign == "plus":
        return g.max(axis=1)
    minus = -g.min(axis=1)
    if sign == "minus":
        return minus
    # + 0.0: an all-zero row's largest absolute value is +0.0, whatever the
    # signs of its zeros
    return np.maximum(g.max(axis=1), minus) + 0.0


def _kernel(matrix: LossMatrix):
    """The deviation kernel of ``matrix``: ``kernel(rows, out)`` fills the k x m
    ``out`` with the deviation rows sqrt(n) (L* - L) of k count rows c.

    A stepped matrix (``LossMatrix._steps``: row i rises by 1/K at each of
    its K bins) gets sum_{j' <= j} sum_{i,k: bins[i, k] = j'} (c_i - 1) /
    (K sqrt(n)) at grid point j: a weighted histogram of the bins and a
    cumulative sum, O(nK + m) per replicate. The count rows come in groups
    of g = max(1, _GROUP // n): bin column k holds the bins offset by
    r (m + 1) for r < g, so one weighted bincount per column fills the
    histograms of a whole group (K calls over g n entries, not g K calls
    over n). At n > _GROUP / 2, g is 1 and the columns are the bins
    themselves. The weights sum to zero, so no centering is needed, and
    every histogram entry is an exact integer until the one division, so
    neither the grouping nor the order of the adds can change a bit. Every
    other matrix gets ((c - 1) @ centered) / sqrt(n), one GEMM per call,
    O(nm) per replicate: valid because the counts sum to n, and exactly zero
    on constant columns because the values are column-centered, once per
    kernel.
    """
    n, m = matrix.n, matrix.m
    if matrix._steps is not None:
        g = max(1, _GROUP // n)
        # K x (g n): the one copy of the bins, offset per row of a group
        columns = np.add(matrix._steps.T[:, None, :], np.arange(0, g * (m + 1), m + 1)[:, None],
                         order="C").reshape(-1, g * n)
        scale = len(columns) * math.sqrt(n)

        def kernel(rows, out):
            rows = iter(rows)
            hist = np.zeros((len(out), m + 1))
            weights = np.empty((g, n))
            for start in range(0, len(out), g):
                h = min(g, len(out) - start)
                for row, counts in zip(weights[:h], rows):
                    np.subtract(counts, 1.0, out=row)
                flat, group = weights[:h].ravel(), hist[start:start + h].ravel()
                for column in columns:
                    group += np.bincount(column[:h * n], flat, minlength=h * (m + 1))
            np.cumsum(hist[:, :m], axis=1, out=out)
            out /= scale
        return kernel

    centered = matrix.values - matrix.values.mean(axis=0)

    def kernel(rows, out):
        weights = np.empty((len(out), n))
        for row, counts in zip(weights, rows):
            np.subtract(counts, 1.0, out=row)
        np.matmul(weights, centered, out=out)
        out /= math.sqrt(n)
    return kernel


@dataclass
class _Carry:
    """What ``_sup_values`` keeps between calls at a growing B, so that no
    replicate is drawn twice: the suprema of every complete block, and the
    generator and count rows of a block drawn only in part."""

    sups: np.ndarray = field(default_factory=lambda: np.empty(0))
    rng: np.random.Generator | None = None
    counts: list = field(default_factory=list)


def _sup_values(matrix: LossMatrix, kernel, sign: str, seed: SeedRecord, B: int,
                carry: _Carry, workers: int = 1) -> np.ndarray:
    """Unsorted per-replicate suprema of the deviation rows of ``matrix``'s
    ``kernel``, in fixed blocks.

    Only the O(B) suprema outlive a block. ``carry`` continues an earlier
    call with the same kernel, sign and seed at a smaller B: it starts at the
    first incomplete block, and draws only the replicates that call did not.
    Every kernel call has the shape it has in a fresh call at this B, so the
    suprema are bit for bit a fresh call's.
    """
    start = carry.sups.size
    out = np.empty(B)
    out[:start] = carry.sups
    # read before any block runs, written after all have: the first block
    # resumes the old partial block, the last may leave a new one
    resumed = (carry.rng, carry.counts)
    partial = [None, []]

    def work(b0):
        k = min(_BLOCK, B - b0)
        if b0 == start and resumed[0] is not None:
            rng, drawn = resumed
        else:
            rng, drawn = seed.generator(b0 // _BLOCK), []
        rows = itertools.chain(drawn, _count_rows(matrix.n, rng, k - len(drawn)))
        if k < _BLOCK:
            rows = list(rows)
            partial[:] = rng, rows
        g = np.empty((k, matrix.m))
        kernel(rows, g)
        out[b0:b0 + k] = _signed_sups(g, sign)

    _map(work, range(start, B, _BLOCK), workers)
    carry.sups = out[:B - B % _BLOCK].copy()
    carry.rng, carry.counts = partial
    return out


def _map(fn, items, workers: int) -> None:
    """Call ``fn`` on each item, on a pool of ``workers`` threads when above 1."""
    if workers > 1:
        # imported here: concurrent.futures (and logging) would cost every
        # serial run and every CLI call a few ms of import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fn, items))
    else:
        for item in items:
            fn(item)


def _deviations(matrix: LossMatrix, seed: SeedRecord, B: int, workers: int = 1) -> np.ndarray:
    """Read-only B x m deviations of the replicates on the full grid.

    Row b is ``_kernel``'s sqrt(n) (L*_b - L) for replicate b. The matrix
    keeps the last (seed, B) entry (the worker count cannot change the bits,
    so it is not part of the key) and frees it with itself.
    """
    key = (seed, B)
    memo = matrix._replicates
    if memo is not None and memo[0] == key:
        return memo[1]
    # g first: the other order raised peak RSS by 3.7 MB at n = 20 000 (heap layout)
    g = np.empty((B, matrix.m))
    kernel = _kernel(matrix)

    def work(b0):
        k = min(_BLOCK, B - b0)
        kernel(_count_rows(matrix.n, seed.generator(b0 // _BLOCK), k), g[b0:b0 + k])

    _map(work, range(0, B, _BLOCK), workers)
    g.flags.writeable = False
    object.__setattr__(matrix, "_replicates", (key, g))
    return g


def sup_distribution(
    matrix: LossMatrix,
    subset: IndexSet | None,
    sign: str,
    B: int,
    seed: SeedRecord,
    workers: int = 1,
) -> BootstrapSupDistribution:
    """Distribution of the supremum deviation statistic over B replicates.

    For each replicate, rows are reweighted by multinomial counts, the
    resampled curve is formed, and the supremum over ``subset`` of the signed
    (or, for ``two-sided``, absolute) centered, rescaled deviation is taken.
    An empty subset yields all-zero suprema. Calls on the same matrix, seed
    and B share one set of replicates, whatever the subset and sign.
    """
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}")
    B = _replicate_count(B)
    if subset is None:
        subset = IndexSet.full(matrix.grid)
    subset.check_against(matrix.grid)
    g = _deviations(matrix, seed, B, workers=workers)
    # index sets are sorted and unique, so a run of consecutive indices (the
    # full grid, or rrr's adjusted set) is a slice: a view, not a gathered copy
    idx = subset.indices
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        g = g[:, idx[0]:idx[-1] + 1]
    else:
        g = g[:, idx]
    values = _signed_sups(g, sign)
    values.sort()
    return BootstrapSupDistribution(values, B, sign, subset, seed)


def _sup_quantile(matrix: LossMatrix, subset: IndexSet | None, sign: str, delta: float,
                  B: int, seed: SeedRecord, workers: int) -> float:
    """Conservative 1-delta quantile of the bootstrap suprema over ``subset``."""
    dist = sup_distribution(matrix, subset, sign, B, seed, workers=workers)
    return conservative_quantile(dist.sorted_values, delta)


def rr_band(
    matrix: LossMatrix,
    delta: float,
    B: int,
    seed: SeedRecord | int,
    side: str = "upper",
    workers: int = 1,
) -> ConfidenceBand:
    """Risk-resampling band: empirical curve +/- bootstrap quantile / sqrt(n).

    The upper band uses the quantile of the negated-process supremum, the
    lower band the positive-process supremum, and the two-sided band a single
    quantile of the two-sided supremum at the full delta.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    seed, B = _seed_record(seed), _replicate_count(B)
    curve = empirical_risk(matrix)
    full = IndexSet.full(matrix.grid)
    sign = {"upper": "minus", "lower": "plus", "two-sided": "two-sided"}[side]
    q = _sup_quantile(matrix, full, sign, delta, B, seed, workers)
    return _fixed_width_band(curve, q / math.sqrt(matrix.n), side, delta, "rr", full,
                             _clamped_note(B, delta),
                             {"B": B, "q_hat": q, "side": side, "seed": seed.as_dict()})


@dataclass(frozen=True)
class SuggestBResult:
    """Replicate-count recommendation with bracket diagnostics."""

    B: int
    q_boot: float
    bracket_low: float
    bracket_high: float
    bracket_width: float
    met: bool
    degenerate: bool = False
    capped: bool = False
    history: tuple[tuple[int, float, float], ...] = field(default=())
    lattice: bool = False


# Suprema closer than this are one value: GEMM rounding moves a lattice atom
# by about 1.5e-13.
_ATOM_DUST = 1e-12


def suggest_b(
    matrix: LossMatrix,
    delta: float,
    seed: SeedRecord | int,
    initial_b: int = 1000,
    sign: str = "minus",
    rel_tol: float = 0.01,
    bracket_confidence: float = 0.95,
    workers: int = 1,
) -> SuggestBResult:
    """Grow B until the quantile is pinned down to ``rel_tol`` relative width.

    An ECDF confidence band of half-width sqrt(log(2/eta)/(2B)) around the
    replicate distribution brackets the target quantile between two order
    statistics; B doubles until that bracket is narrower than
    ``rel_tol * q_boot`` or the hard cap 2**20 is reached; a ``delta``
    outside (0, 1) or an ``initial_b`` above the cap is refused before any
    draw. Each doubling draws only the new replicates, and runs the matrix's
    own deviation kernel. Lattice-valued suprema can keep the bracket wide at
    any B: when no supremum lies strictly between its ends, the search stops
    with ``lattice`` set. A zero bootstrap quantile (degenerate matrix)
    short-circuits with a zero-width flag.
    """
    seed = _seed_record(seed)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    b = _replicate_count(initial_b)
    if not 100 <= b <= _B_CAP:
        raise ValueError(f"initial_b must lie in [100, {_B_CAP}]")
    if not 0.0 < bracket_confidence < 1.0:
        raise ValueError("bracket_confidence must lie in (0, 1)")
    eps_num = math.log(2.0 / (1.0 - bracket_confidence))
    history: list[tuple[int, float, float]] = []
    kernel, carry = _kernel(matrix), _Carry()
    while True:
        # streamed, not shared: B grows to 2**20, where B x m deviations would not fit
        v = _sup_values(matrix, kernel, sign, seed, b, carry, workers=workers)
        v.sort()
        q_boot = conservative_quantile(v, delta)
        if q_boot == 0.0:
            history.append((b, 0.0, 0.0))
            return SuggestBResult(b, 0.0, 0.0, 0.0, 0.0, met=False,
                                  degenerate=True, history=tuple(history))
        eps = math.sqrt(eps_num / (2.0 * b))
        k_low = max(1, math.ceil(b * (1.0 - delta - eps) - 1e-9))
        k_high = math.ceil(b * (1.0 - delta + eps) - 1e-9)
        if k_high > b:
            low, high, width = float(v[k_low - 1]), math.inf, math.inf
        else:
            low, high = float(v[k_low - 1]), float(v[k_high - 1])
            width = high - low
        history.append((b, q_boot, width))
        if width < rel_tol * q_boot:
            return SuggestBResult(b, q_boot, low, high, width, met=True,
                                  history=tuple(history))
        between = (np.searchsorted(v, high - _ATOM_DUST)
                   - np.searchsorted(v, low + _ATOM_DUST, side="right"))
        if math.isfinite(width) and between <= 0:
            return SuggestBResult(b, q_boot, low, high, width, met=False,
                                  history=tuple(history), lattice=True)
        if b >= _B_CAP:
            return SuggestBResult(b, q_boot, low, high, width, met=False,
                                  capped=True, history=tuple(history))
        b = min(_B_CAP, 2 * b)
