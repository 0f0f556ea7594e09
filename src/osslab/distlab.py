"""Distribution experiments over dual-level chains and the collapse
distinguisher.

The chain samplers all emit tuples (T_1, ..., T_{l+1}) of subspaces of
Z2^n built over a fixed full-column-rank matrix A with levels
S_j = {v : v orthogonal to columns j..n-r of A}.  Five recipes exist:

* by_vector      - extend every level by one vector drawn outside S_{l+1}
* by_syndrome    - same law phrased through the image y = v^T A only
* by_shear       - shear A's tail columns and pick a nonzero tail target
* by_basis       - extend every level by s independent vectors clear of
                   the top level
* by_matrix      - widen the dual of a column-multiplied matrix with s
                   middle columns dropped; the Dprime oracle builds its
                   chains with the same gf2 pieces

The first three induce one distribution, the last two another; checking
those equalities exactly (by enumerating the finite randomness domains)
is the point of this module.  Subspaces canonicalize to RREF bases, so
distributions are plain dictionaries keyed by tuples of subspaces.
Every matrix here is built from its columns, and every level is a left
kernel, so the samplers transpose and solve nothing.

The collapse distinguisher estimates the acceptance probability of the
dual-check test applied after a decode round trip, either with the full
coset superposition intact ("hash-only") or with the first input bit
measured away ("hash-first-bit"); the gap between the two cases is what
separates the hash from a compressing one.  The hash-only worlds are
hashed one by one and then drawn, reduced and checked in bulk, as uint64
words across a chunk of worlds.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .gf2 import (
    BitMatrix,
    BitVec,
    Subspace,
    chain_from_top,
    span_arrays,
    widened_normals,
    widened_top,
)
from .oracles import (
    _BLOCK_BYTES,
    OracleSet,
    Params,
    SeededStream,
    _coset_deriver,
    _coset_stream,
    _meter,
    build_oracles,
)
from .qsim import StateVector, coset_state, walsh_hadamard

__all__ = [
    "ChainSampler",
    "chain_by_vector",
    "chain_by_syndrome",
    "chain_by_shear",
    "chain_by_basis",
    "chain_by_matrix",
    "exact_distribution",
    "tv_distance",
    "collapse_acceptance_exact",
    "run_collapse_distinguisher",
    "DISTINGUISHER_TRIALS",
    "validate_collapse_shortcut",
    "coset_points",
    "signature_set_census",
    "Metric",
    "ExperimentReport",
]

_EXACT_LIMIT = 1 << 24
_CENSUS_LIMIT = 20
# A hash-only world reads its coset stream up front as one slab: the fewest
# whole blocks of this size that hold n - r + 1 candidates, so a world may
# reject one and often more.  A world whose slab runs out derives.
_SLAB_BLOCK = _BLOCK_BYTES
# Dual points per chunk of hash-only worlds (a chunk holds at least one
# world): 1024 worlds at r = 2, one world from r = 12 on.
_CHUNK_POINTS = 1 << 12

# Each case's trial count in the distinguisher battery, and the CLI's default.
DISTINGUISHER_TRIALS = {"hash-only": 10_000, "hash-first-bit": 100_000}

SubspaceTuple = tuple[Subspace, ...]


def _outside_words(span: Subspace) -> list[int]:
    """The words of Z2^ambient outside ``span``, in ascending order."""
    inside = set(span.element_ints())
    return [w for w in range(1 << span.ambient) if w not in inside]


def _syndrome_level(sub: BitMatrix, target: int) -> Subspace:
    """{w : w^T sub in {0, target}} for a nonzero target packed over sub's
    columns: the left kernel of sub with target as one more, last row,
    with that coordinate dropped (no dimension is lost, as t != 0)."""
    k = sub.cols
    words = tuple((c << 1) | ((target >> (k - 1 - i)) & 1) for i, c in enumerate(sub.col_words))
    basis = BitMatrix._from_columns(sub.rows + 1, k, words).left_kernel().basis
    if not any(b & 1 for b in basis):
        raise AssertionError("target must be attainable")
    return Subspace(sub.rows, tuple(b >> 1 for b in basis))


class ChainSampler:
    """Base for tuple samplers with an enumerable randomness domain.

    Subclasses define domain_size and tuple_at(index), the tuple that
    each point of the domain yields; exact_distribution reads counts(),
    how many points yield each tuple.  The base class counts tuple_at
    over the whole domain; chain_by_matrix counts each list of chains
    that several points share once, weighted by how many share it.
    """

    domain_size: int

    def __init__(self, mat: BitMatrix, n: int, r: int, ell: int) -> None:
        if mat.rows != n or mat.cols != n - r:
            raise ValueError("matrix shape must be n x (n - r)")
        if mat.rank() != n - r:
            raise ValueError("chain samplers need a full-column-rank matrix")
        if r + ell > n:
            raise ValueError("need r + ell <= n")
        self.mat = mat
        self.n = n
        self.r = r
        self.ell = ell
        self.levels = mat.dual_chain(ell)

    def tuple_at(self, index: int) -> SubspaceTuple:
        raise NotImplementedError

    def counts(self) -> Counter[SubspaceTuple]:
        """How many points of the domain yield each tuple."""
        return Counter(map(self.tuple_at, range(self.domain_size)))


class chain_by_vector(ChainSampler):
    """T_j = span(S_j, v) for one uniform v outside the top level."""

    def __init__(self, mat: BitMatrix, n: int, r: int, ell: int) -> None:
        super().__init__(mat, n, r, ell)
        self._outside = _outside_words(self.levels[-1])
        self.domain_size = len(self._outside)

    def tuple_at(self, index: int) -> SubspaceTuple:
        v = BitVec(self.n, self._outside[index])
        return tuple(level.extend([v]) for level in self.levels)


class chain_by_syndrome(chain_by_vector):
    """Same v domain, but each level is rebuilt from the image y = v^T A:
    T_j collects the w with w^T A^{(j..)} equal to zero or to y's suffix.

    The construction forgets v and takes each level as one left kernel
    of the syndrome alone (_syndrome_level), so agreement with
    chain_by_vector is a real check rather than shared code.
    """

    def tuple_at(self, index: int) -> SubspaceTuple:
        v = BitVec(self.n, self._outside[index])
        y, width = self.mat.rmatvec(v), self.mat.cols
        return tuple(
            _syndrome_level(self.mat.col_range(j, width), y.sub(j, width).bits)
            for j in range(1, self.ell + 2)
        )


class chain_by_shear(ChainSampler):
    """Shear the tail columns by a random block and aim at a nonzero tail
    target: C = A [[I, 0], [B, I]], T_j = {w : w^T C^{(j..)} in {0, 0..0||z}}.

    index = b_bits * (2^d - 1) + z - 1, with B's columns packed into b_bits.
    Each level is its own _syndrome_level rather than a cut of a
    dual_chain, so this sampler stays an independent reference for the
    chain routine."""

    def __init__(self, mat: BitMatrix, n: int, r: int, ell: int) -> None:
        super().__init__(mat, n, r, ell)
        d = n - r - ell
        if d < 1:
            raise ValueError("shear sampler needs n - r - l >= 1")
        self._d = d
        self.domain_size = (1 << (d * ell)) * ((1 << d) - 1)

    def tuple_at(self, index: int) -> SubspaceTuple:
        d, ell = self._d, self.ell
        mask = (1 << d) - 1  # also the count of nonzero z
        b_bits, z_index = divmod(index, mask)
        # [[I, 0], [B, I]] by columns: I's columns, with B's below the first l
        b_cols = [(b_bits >> (d * (ell - 1 - i))) & mask for i in range(ell)] + [0] * d
        eye = BitMatrix.identity(ell + d).col_words
        factor = BitMatrix._from_columns(ell + d, ell + d, tuple(e | b for e, b in zip(eye, b_cols)))
        sheared = self.mat @ factor
        # z's zero-padded suffix is the same word at every level
        levels = range(1, ell + 2)
        return tuple(_syndrome_level(sheared.col_range(j, ell + d), z_index + 1) for j in levels)


class chain_by_basis(ChainSampler):
    """T_j = span(S_j, v_1..v_s) with the v ordered, independent, and
    jointly clear of the top level."""

    def __init__(self, mat: BitMatrix, n: int, r: int, ell: int, s: int) -> None:
        super().__init__(mat, n, r, ell)
        if s < 1 or n - r - ell < s:
            raise ValueError("need 1 <= s <= n - r - l")
        self.s = s
        self._radix = [(1 << n) - (1 << (r + ell + k)) for k in range(s)]
        size = 1
        for c in self._radix:
            size *= c
        self.domain_size = size
        self._outside: dict[tuple[int, ...], list[int]] = {}
        self._prefix: dict[tuple[int, ...], SubspaceTuple] = {(): self.levels}

    def _pick(self, span: Subspace, position: int) -> BitVec:
        """The position-th word outside span, counting up from zero.  Each
        span's outside words are listed once and kept."""
        outside = self._outside.get(span.basis)
        if outside is None:
            outside = self._outside[span.basis] = _outside_words(span)
        return BitVec(self.n, outside[position])

    def _extended(self, levels: SubspaceTuple, digit: int) -> SubspaceTuple:
        """Every level extended by the digit-th vector outside the top."""
        v = self._pick(levels[-1], digit)
        return tuple(level.extend([v]) for level in levels)

    def _levels_after(self, prefix: tuple[int, ...]) -> SubspaceTuple:
        """Every level extended by the vectors that the digits of
        ``prefix`` pick in turn.  Each prefix's levels are built once and
        kept, so an index extends its prefix's levels by one vector."""
        levels = self._prefix.get(prefix)
        if levels is None:
            below = self._levels_after(prefix[:-1])
            levels = self._prefix[prefix] = self._extended(below, prefix[-1])
        return levels

    def tuple_at(self, index: int) -> SubspaceTuple:
        digits = []
        for c in reversed(self._radix):
            index, digit = divmod(index, c)
            digits.append(digit)
        digits.reverse()
        return self._extended(self._levels_after(tuple(digits[:-1])), digits[-1])


class chain_by_matrix(ChainSampler):
    """Widened duals of A [[I, 0], [M', M]] with s middle columns dropped:
    T_j is the dual of the span of columns j..l and l+s+1..n-r.

    With index = m_index * 2^(d l) + mp_bits, the top level depends on M
    only through its kept columns s+1..d, and the lower levels on M' only
    through the l cut normals.  So each distinct top is built once, the
    normals once per mp_bits, and each chain once per (top, mp_bits),
    all in the constructor: index m_index's chains are one list, indexed
    by mp_bits, shared by every M with the same top, and counts() counts
    each list once, weighted by that number of M.
    """

    def __init__(self, mat: BitMatrix, n: int, r: int, ell: int, s: int) -> None:
        super().__init__(mat, n, r, ell)
        if s < 1 or n - r - ell < s:
            raise ValueError("need 1 <= s <= n - r - l")
        self.s = s
        d = n - r - ell
        if d * d > 24:
            raise ValueError("matrix-chain enumeration capped at d^2 <= 24")
        self._mp_count = 1 << (d * ell)
        col_mask = (1 << d) - 1
        normals = []
        for mp_bits in range(self._mp_count):
            # M' packs its columns first to last into mp_bits, d bits a column
            cols = tuple((mp_bits >> (d * (ell - 1 - t))) & col_mask for t in range(ell))
            normals.append(widened_normals(mat, ell, BitMatrix._from_columns(d, ell, cols)))
        # one chain list per distinct top; _entries holds each m_index's
        # list number, the same for equal kept columns and equal tops
        by_kept: dict[tuple[int, ...], int] = {}
        by_top: dict[Subspace, int] = {}
        self._lists: list[list[SubspaceTuple]] = []
        self._entries: list[int] = []
        for cols in _invertible_rows(d):
            # each tuple is M's columns; columns s+1..d survive the drop
            kept = cols[s:]
            at = by_kept.get(kept)
            if at is None:
                top = widened_top(mat, ell, BitMatrix._from_columns(d, d - s, kept))
                at = by_top.get(top)
                if at is None:
                    at = by_top[top] = len(self._lists)
                    self._lists.append([chain_from_top(top, nm) for nm in normals])
                by_kept[kept] = at
            self._entries.append(at)
        self.domain_size = len(self._entries) * self._mp_count

    def tuple_at(self, index: int) -> SubspaceTuple:
        m_index, mp_bits = divmod(index, self._mp_count)
        return self._lists[self._entries[m_index]][mp_bits]

    def counts(self) -> Counter[SubspaceTuple]:
        """The tuple at (m_index, mp_bits) is entry mp_bits of m_index's
        list, so each distinct list's chains are counted once, weighted by
        the number of M that share the list."""
        counts: Counter[SubspaceTuple] = Counter()
        for at, weight in Counter(self._entries).items():
            for chain in self._lists[at]:
                counts[chain] += weight
        return counts


def _invertible_rows(
    d: int, rows: tuple[int, ...] = (), span: frozenset[int] = frozenset({0})
) -> Iterator[tuple[int, ...]]:
    """Every ordered basis of Z2^d that completes ``rows`` (whose span is
    ``span``), which chain_by_matrix reads as the columns of an invertible
    d x d matrix, in ascending order of the d*d-bit word that packs its
    words first to last (d >= 1).

    Words are chosen first to last, each in ascending order among the
    words outside the span of those before it, so the order matches a
    scan of all 2^(d*d) words and no rank is ever tested.
    """
    for w in range(1 << d):
        if w in span:
            continue
        if len(rows) == d - 1:  # the last word completes the basis
            yield rows + (w,)
        else:
            yield from _invertible_rows(d, rows + (w,), span | {w ^ x for x in span})


Distribution = dict[SubspaceTuple, Fraction]


def exact_distribution(sampler: ChainSampler) -> Distribution:
    """Exhaust the randomness domain and return exact probabilities: each
    tuple's share of the domain, as the sampler's counts() gives it."""
    size = sampler.domain_size
    if size > _EXACT_LIMIT:
        raise ValueError(f"domain of {size} points exceeds exact-mode cap {_EXACT_LIMIT}")
    return {k: Fraction(c, size) for k, c in sampler.counts().items()}


def tv_distance(p: Distribution, q: Distribution) -> Fraction:
    total = Fraction(0)
    for key in set(p) | set(q):
        total += abs(p.get(key, Fraction(0)) - q.get(key, Fraction(0)))
    return total / 2


# -- collapse distinguisher --------------------------------------------


def collapse_acceptance_exact(n: int, r: int) -> Fraction:
    """Closed-form acceptance of the hash-first-bit case:
    1/2 + 2^-(n-r+1) (2^n - 2^(n-r)) / (2^n - 1)."""
    return Fraction(1, 2) + Fraction((1 << n) - (1 << (n - r)), (1 << (n - r + 1)) * ((1 << n) - 1))


def _trial_seed(seed: bytes, index: int) -> bytes:
    return hashlib.blake2b(index.to_bytes(8, "big"), key=seed, digest_size=32).digest()


def _hash_only_worlds(
    params: Params, trials: int, seed: bytes
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The hash-only worlds of run_collapse_distinguisher, chunk by chunk:
    each world's generator columns (worlds x (n - r)), the 2^r points of
    its left kernel (worlds x 2^r) and how many of them pass the dual
    check, all as uint64 words.

    Only the hashing runs per world: the trial seed, y off the pick-y
    stream and one slab read of y's coset stream, whose C candidates come
    first as the world has l = 0.  C's draw, the kernel, its points and
    the dual check then run across the chunk in numpy.  Each chunk spends
    its 2^r D queries per world at once, one for each point checked.
    """
    n, r = params.n, params.r
    k = n - r
    nbytes = (n + 7) // 8
    slab = -(-(k + 1) * nbytes // _SLAB_BLOCK) * _SLAB_BLOCK
    per_chunk = max(1, _CHUNK_POINTS >> r)
    for start in range(0, trials, per_chunk):
        seeds, ys, slabs = [], [], []
        for t in range(start, min(trials, start + per_chunk)):
            world_seed = _trial_seed(seed, t)
            y = SeededStream(world_seed, b"pick-y").bits(r)
            seeds.append(world_seed)
            ys.append(y)
            slabs.append(_coset_stream(params, world_seed, y).read(slab))
        cands = _split_candidates(b"".join(slabs), len(slabs), nbytes, n)
        cols, rows, done = _first_independent(cands, k)
        short = np.flatnonzero(~done)
        if short.size:  # a slab ran out: those worlds take the derive's columns
            derived = [_coset_deriver(params, seeds[w])(ys[w])[0][0].col_words for w in short]
            cols[short], rows[short], _ = _first_independent(np.array(derived, np.uint64), k)
        points = span_arrays(_kernel_bases(rows, n), 0)
        hits = _dual_hits(points, cols)
        _meter("D", points.size)
        yield cols, points, hits


def _split_candidates(data: bytes, worlds: int, nbytes: int, n: int) -> np.ndarray:
    """The whole n-bit candidates of each world's equal share of data,
    each the top n bits of its own nbytes bytes, as SeededStream.bits(n)
    reads a draw: a (worlds, candidates) uint64 array."""
    raw = np.frombuffer(data, np.uint8).reshape(worlds, -1)
    count = raw.shape[1] // nbytes
    raw = raw[:, : count * nbytes].reshape(worlds, count, nbytes)
    words = np.zeros((worlds, count), np.uint64)
    for b in range(nbytes):
        words <<= 8
        words |= raw[:, :, b]
    return words >> (8 * nbytes - n)


def _first_independent(cands: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each world's first k independent candidates, in order, which are
    the columns _draw_columns keeps from the same draws; their
    Gauss-Jordan rows, each pivoted on its lowest set bit and the only row
    that holds it; and whether the world found all k.

    One elimination steps through the candidate index, across every world
    still short of k.  A candidate that reduces to zero depends on the
    rows before it and is rejected.
    """
    worlds = cands.shape[0]
    cols = np.zeros((worlds, k), np.uint64)
    rows = np.zeros((worlds, k), np.uint64)
    pivots = np.zeros((worlds, k), np.uint64)
    kept = np.zeros(worlds, np.intp)
    for cand in cands.T:
        short = kept < k
        if not short.any():
            break
        # each pivot lies in one row only, so one pass reduces a candidate
        x = cand ^ np.bitwise_xor.reduce(np.where(cand[:, None] & pivots, rows, 0), axis=1)
        take = short & (x != 0)
        x[~take] = 0
        p = x & -x
        rows ^= np.where(rows & p[:, None], x[:, None], 0)  # clear the new pivot from the rows
        at, slot = np.flatnonzero(take), kept[take]
        rows[at, slot] = x[at]
        pivots[at, slot] = p[at]
        cols[at, slot] = cand[at]
        kept += take
    return cols, rows, kept == k


def _kernel_bases(rows: np.ndarray, n: int) -> np.ndarray:
    """A basis of each world's left kernel, (worlds, n - k), from the k
    Gauss-Jordan rows of its columns: per free coordinate f, one on which
    no row pivots, e_f plus the pivot of every row that holds f."""
    pivots = rows & -rows
    free = np.uint64((1 << n) - 1) ^ np.bitwise_or.reduce(pivots, axis=1)
    basis = np.empty((rows.shape[0], n - rows.shape[1]), np.uint64)
    for i in range(basis.shape[1]):
        f = free & -free
        free ^= f
        basis[:, i] = f | np.bitwise_or.reduce(np.where(rows & f[:, None], pivots, 0), axis=1)
    return basis


def _dual_hits(points: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """How many of each world's points pass its dual check.  A point
    passes when its parity with each of the world's columns is even; the
    even parities are counted, so a check that reads too few columns
    passes nothing."""
    even = np.zeros(points.shape, np.uint8)
    word = np.empty_like(points)
    parity = np.empty(points.shape, np.uint8)
    for col in cols.T:
        np.bitwise_and(points, col[:, None], out=word)
        np.bitwise_count(word, out=parity)
        parity &= 1
        parity ^= 1
        even += parity
    return np.count_nonzero(even == cols.shape[1], axis=1)


def run_collapse_distinguisher(
    n: int,
    r: int,
    case: str,
    trials: int,
    seed: bytes,
) -> "ExperimentReport":
    """Monte Carlo over fresh worlds; acceptance computed per world from
    the support census rather than a dense simulation.

    hash-only: every world accepts with probability exactly 1 (checked by
    averaging the dual check over the dual support).

    hash-first-bit: measuring the first input bit splits the 2^(n-r)
    preimages of y into classes of sizes k and 2^(n-r) - k, and the
    acceptance given the split is (k^2 + (K - k)^2) / K^2.  A uniform
    permutation (the table construction's law) sends a uniform K-subset
    of inputs onto the fiber of y, so k is one hypergeometric draw: K
    inputs out of 2^n, of which the 2^(n-1) with first bit 0 count.
    """
    if case not in DISTINGUISHER_TRIALS:
        raise ValueError(f"unknown case {case!r}")
    # The cosets and the dual check never read the permutation, and a
    # coset's stream label has no perm_mode, so Feistel worlds carry the
    # table worlds' cosets and reach past the table limit of n = 24.
    params = Params(n=n, r=r, ell=0, variant="original", perm_mode="feistel")
    if case == "hash-first-bit" and n > 30:
        raise ValueError(
            "hash-first-bit needs n <= 30: numpy's hypergeometric draw takes "
            "fewer than 10^9 good and bad items (2^(n-1) each)"
        )
    if case == "hash-only" and r > 16:
        # At r = 16 a world holds 2^16 points, 512 KB, and takes about 0.7 ms
        # at n = 20 and 3.5 ms at n = 64.
        raise ValueError("hash-only needs r <= 16: each trial lists all 2^r dual points")
    if case == "hash-only" and n > 64:
        raise ValueError("hash-only needs n <= 64: its worlds are checked as uint64 words")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if case == "hash-first-bit" and trials < 2:
        raise ValueError("hash-first-bit needs at least 2 trials for its standard error")
    report_params = {"n": n, "r": r, "case": case}
    expected_exact = collapse_acceptance_exact(n, r)
    metrics: list[Metric] = []
    if case == "hash-only":
        # a world accepts with probability exactly 1 when all its 2^r dual points pass
        exact_ones = 0
        for _, points, hits in _hash_only_worlds(params, trials, seed):
            exact_ones += int(np.count_nonzero(hits == points.shape[1]))
        metrics.append(
            Metric(
                id="acceptance_always_one",
                estimate=exact_ones / trials,
                expected=1.0,
                source="theory",
                passed=exact_ones == trials,
                detail=f"{exact_ones}/{trials} worlds accepted with probability exactly 1",
            )
        )
    else:
        k_coset = 1 << (n - r)
        half = 1 << (n - 1)
        rng = np.random.default_rng(int.from_bytes(_trial_seed(seed, 0), "big") % (1 << 63))
        k = rng.hypergeometric(half, half, k_coset, size=trials)
        # (k^2 + (K - k)^2) / K^2, squared and summed in place: the same
        # int64 values as the plain expression, with two fewer arrays alive
        rest = k_coset - k
        rest *= rest
        k *= k
        k += rest
        accs = k / float(k_coset**2)
        del k, rest
        mean = float(np.mean(accs))
        se = float(np.std(accs, ddof=1) / math.sqrt(trials))
        expected = float(expected_exact)
        metrics.append(
            Metric(
                id="acceptance_mean",
                estimate=mean,
                expected=expected,
                source="theory",
                passed=abs(mean - expected) <= 3 * se,
                ci_low=mean - 3 * se,
                ci_high=mean + 3 * se,
                detail="within 3 standard errors of the closed form",
            )
        )
        adv = 1.0 - mean
        z99 = 2.3263478740408408  # one-sided 99% normal quantile
        metrics.append(
            Metric(
                id="advantage_over_quarter",
                estimate=adv,
                expected=0.25,
                source="theory",
                passed=(adv - z99 * se) >= 0.25,
                ci_low=adv - z99 * se,
                ci_high=adv + z99 * se,
                detail="distinguishing advantage exceeds 1/4 at 99% confidence",
            )
        )
    return ExperimentReport(
        name=f"collapse-distinguisher-{case}",
        params=report_params,
        metrics=metrics,
        seed=seed.hex(),
        trials=trials,
    )


def validate_collapse_shortcut(n: int, r: int, seed: bytes) -> float:
    """Check the census shortcut against dense simulation on five real
    worlds.

    For each world and its y: simulate transform-then-check acceptance
    for the intact coset state (must be 1) and for both first-bit slices
    (must equal the slice weight), and compare the per-world acceptance
    against the census formula.  Returns the max absolute error.
    """
    if n > 10:
        raise ValueError("dense validation is for n <= 10")
    params = Params(n=n, r=r, ell=0, variant="original", perm_mode="table")
    worst = 0.0
    k_coset = 1 << (n - r)
    for t in range(5):
        o = build_oracles(params, _trial_seed(seed, 1000 + t))
        stream = SeededStream(_trial_seed(seed, 1000 + t), b"pick-y")
        y = stream.bitvec(r)
        accept_idx = [w for w in range(1 << n) if o.dual_check(1, y, BitVec(n, w))]
        # intact coset state
        state = coset_state(o, y)
        walsh_hadamard(state)
        acc = float(np.sum(np.abs(state.amp[accept_idx]) ** 2))
        worst = max(worst, abs(acc - 1.0))
        # first-bit slices
        preimages = [x for x in range(1 << n) if o.hash_bits(BitVec(n, x)).bits == y.bits]
        census_total = 0.0
        for bit in (0, 1):
            xs = [x for x in preimages if (x >> (n - 1)) == bit]
            if not xs:
                continue
            points = []
            for x in xs:
                _, u = o.encode(BitVec(n, x))
                points.append(u.bits)
            slice_state = StateVector.from_support(n, points)
            walsh_hadamard(slice_state)
            acc_b = float(np.sum(np.abs(slice_state.amp[accept_idx]) ** 2))
            weight = len(xs) / k_coset
            worst = max(worst, abs(acc_b - weight))
            census_total += weight * (len(xs) / k_coset)
        k = sum(1 for x in preimages if (x >> (n - 1)) == 0)
        formula = (k**2 + (k_coset - k) ** 2) / k_coset**2
        worst = max(worst, abs(census_total - formula))
    return worst


# -- signature-set census ----------------------------------------------


def coset_points(o: OracleSet, y: BitVec) -> np.ndarray:
    """All 2^(n-r) points of the shifted coset for y, as a sorted uint64
    array (unsigned, so 64-bit worlds fit)."""
    p = o.params
    if p.n - p.r > _CENSUS_LIMIT:
        raise ValueError("coset enumeration capped at 2^20 points")
    gen, shift = o.coset_of(y)
    pts = gen.span_array(shift.bits)
    pts.sort()
    return pts


def signature_set_census(o: OracleSet, y: BitVec, messages: Sequence[BitVec]) -> list[list[int]]:
    """For each message m, count the coset points agreeing with m on the
    first j bits, for j = 0..len(m).  The coset is enumerated once for
    all messages.  Healthy worlds give 2^(n - r - j) at every level."""
    p = o.params
    if any(m.n > p.n for m in messages):
        raise ValueError("prefix longer than signatures")
    points = coset_points(o, y)
    return [
        [int(np.count_nonzero((points >> (p.n - j)) == m.prefix(j).bits)) for j in range(m.n + 1)]
        for m in messages
    ]


# -- reporting ----------------------------------------------------------


@dataclass
class Metric:
    """One checked quantity: what was measured, what was expected, where
    the expectation comes from ("theory" for closed-form analysis,
    "oracle" for an independent computation), and whether the check
    passed."""

    id: str
    estimate: float
    expected: float
    source: str
    passed: bool
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "estimate": self.estimate,
            "expected": self.expected,
            "source": self.source,
            "pass": self.passed,
        }
        if self.ci_low is not None:
            out["ci_low"] = self.ci_low
            out["ci_high"] = self.ci_high
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ExperimentReport:
    name: str
    params: dict
    metrics: list[Metric]
    seed: str
    trials: int

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "metrics": [m.to_json() for m in self.metrics],
            "seed": self.seed,
            "trials": self.trials,
            "pass": self.passed,
        }

    def render(self) -> str:
        lines = [f"{self.name}  (trials={self.trials}, seed={self.seed[:16]}...)"]
        for m in self.metrics:
            verdict = "PASS" if m.passed else "FAIL"
            ci = ""
            if m.ci_low is not None:
                ci = f"  ci=[{m.ci_low:.6g}, {m.ci_high:.6g}]"
            lines.append(
                f"  [{verdict}] {m.id}: got {m.estimate:.6g}, expected {m.expected:.6g}"
                f" ({m.source}){ci}"
            )
            if m.detail:
                lines.append(f"         {m.detail}")
        return "\n".join(lines)
