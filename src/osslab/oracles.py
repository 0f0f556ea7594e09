"""Seeded oracle worlds.

A world is fully determined by (params, 32-byte seed).  It bundles a
pseudorandom permutation of {0,1}^n together with a family of affine
cosets, one per r-bit hash value y: a generator matrix with an identity
block on top, [[I_l, 0], [B_y, C_y]], and a shift vector b_y.  All query
interfaces (encode/decode/dual checks/membership) are derived from those
two ingredients and count their invocations.

Randomness is expanded with BLAKE2b in counter mode, so rebuilding a
world from the same seed reproduces it bit for bit on any platform.
"""

from __future__ import annotations

import functools
import hashlib
import io
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .gf2 import (
    BitMatrix,
    BitVec,
    ColumnDecoder,
    Subspace,
    _draw_columns,
    chain_from_top,
    split_columns,
    split_draws,
    widened_normals,
    widened_top,
)

__all__ = [
    "Params",
    "SeededStream",
    "PermutationEngine",
    "CosetFamily",
    "OracleSet",
    "build_oracles",
    "metered",
    "VARIANTS",
    "PERM_MODES",
    "QUERY_KEYS",
]

VARIANTS = ("standard", "incompressible", "bloated", "original")
PERM_MODES = ("table", "feistel")
QUERY_KEYS = ("P", "Pinv", "D", "D0", "Dprime")
# Cosets (and widened chains) kept per world: well above any battery's
# working set and the 2^8 cosets of r = 8; about 4.2 KB each at (64, 32, 16),
# the ColumnDecoder kept beside each coset included.
COSET_CACHE_SIZE = 1024
# The decorator of every per-world cache of that size, made once.
_per_world_cache = functools.lru_cache(maxsize=COSET_CACHE_SIZE)

# Widest n each permutation backend builds: a table holds 2^n entries, and
# a Feistel round hashes a half as 8 bytes and XORs in at most 64 digest
# bits, so neither half may pass 64 bits.
_PERM_MAX_N = {"table": 24, "feistel": 128}
_FEISTEL_ROUNDS = 16
# A stream block: one BLAKE2b digest of the counter.
_BLOCK_BYTES = 64

# The spent-query dicts of the metered() blocks open in this context.
_METERS: ContextVar[tuple[dict[str, int], ...]] = ContextVar("osslab_meters", default=())


@contextmanager
def metered() -> Iterator[dict[str, int]]:
    """Yield a dict of the oracle queries spent inside the block, on any
    OracleSet.  Meters nest and follow contextvars, so a thread counts only
    its own queries even when threads share one OracleSet.  On exit the
    dict lists the spent keys in QUERY_KEYS order; unspent keys are absent.
    """
    spent: dict[str, int] = {}
    token = _METERS.set(_METERS.get() + (spent,))
    try:
        yield spent
    finally:
        _METERS.reset(token)
        spent.update({k: spent.pop(k) for k in QUERY_KEYS if k in spent})  # re-insert in order


def _meter(key: str, k: int) -> None:
    """Add k queries of kind key to each metered() block open in this context."""
    meters = _METERS.get()
    if not meters:
        return
    for spent in meters:
        spent[key] = spent.get(key, 0) + k


class SeededStream:
    """Deterministic byte/bit stream: BLAKE2b in counter mode.

    The key is hashed from length-prefixed label parts, so distinct
    labels give independent-looking streams and no label is a prefix of
    another.
    """

    def __init__(self, *parts: bytes) -> None:
        material = b"".join([len(p).to_bytes(2, "big") + p for p in parts])
        key = hashlib.blake2b(material, digest_size=32, person=b"osslab.stream").digest()
        # Block i is BLAKE2b(i as 8 bytes, key=key, digest_size=64); each
        # block copies this keyed state rather than keying a new hasher.
        self._keyed = hashlib.blake2b(key=key, digest_size=_BLOCK_BYTES)
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def read(self, nbytes: int) -> bytes:
        if nbytes < 0:  # a negative count would move the position back
            raise ValueError(f"cannot read {nbytes} bytes")
        pos = self._pos
        end = pos + nbytes
        buf = self._buf
        if end <= len(buf):
            self._pos = end
            return buf[pos:end]
        need = end - len(buf)
        if need <= _BLOCK_BYTES:  # at most one new block, as short reads need
            hasher = self._keyed.copy()
            hasher.update(self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._buf = block = hasher.digest()
            self._pos = need
            return buf[pos:] + block[:need]
        # BytesIO.getvalue hands over its buffer without a copy, so a long
        # read (1 MiB in the hashsign battery) holds its bytes only once.
        out = io.BytesIO()
        out.write(buf[pos:])
        keyed = self._keyed
        counter = self._counter
        while True:
            hasher = keyed.copy()
            hasher.update(counter.to_bytes(8, "big"))
            counter += 1
            buf = hasher.digest()
            if need <= len(buf):
                break
            out.write(buf)
            need -= len(buf)
        self._counter = counter
        self._buf = buf
        self._pos = need
        out.write(buf[:need])
        return out.getvalue()

    def bits(self, k: int) -> int:
        """Next k bits as an int, MSB first."""
        if k < 0:
            raise ValueError(f"cannot read {k} bits")
        data = self.read((k + 7) // 8)
        return int.from_bytes(data, "big") >> (8 * len(data) - k)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = (bound - 1).bit_length()
        while True:
            x = self.bits(k)
            if x < bound:
                return x

    def shuffle(self, size: int) -> list[int]:
        """A permutation of range(size) by Fisher-Yates over below draws."""
        if size < 0:
            raise ValueError(f"cannot shuffle {size} items")
        perm = list(range(size))
        for i in range(size - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def bitvec(self, n: int) -> BitVec:
        return BitVec(n, self.bits(n))

    def matrix(self, rows: int, cols: int) -> BitMatrix:
        """rows x cols matrix whose rows are ``rows`` successive bits(cols)
        draws, taken from one read of all their bytes and built by columns
        (``split_columns``)."""
        if rows < 0 or cols < 0:
            raise ValueError(f"cannot read {rows} rows of {cols} bits")
        if not rows or not cols:
            return BitMatrix.zeros(rows, cols)
        data = self.read(rows * ((cols + 7) // 8))
        return BitMatrix._from_columns(rows, cols, tuple(split_columns(data, cols)))


@dataclass(frozen=True)
class Params:
    """Shape of a world: vector length n, hash width r, message length l,
    bloat width s, sampling variant, and permutation backend.

    The one gate on a world's shape: a Params that constructs is a world
    that builds, signs (unless 'original') and verifies; the constructor
    raises ValueError for every other shape."""

    n: int
    r: int
    ell: int
    s: int = 0
    variant: str = "standard"
    perm_mode: str = "table"
    lam: Optional[int] = None

    def __post_init__(self) -> None:
        shape = {"n": self.n, "r": self.r, "l": self.ell, "s": self.s}
        if self.lam is not None:
            shape["lambda"] = self.lam
        for name, value in shape.items():
            if type(value) is not int:  # refuses a float such as 8.0 and a bool
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.perm_mode not in PERM_MODES:
            raise ValueError(f"unknown perm_mode {self.perm_mode!r}")
        if self.n < 1 or self.r < 1 or self.ell < 0 or self.s < 0:
            raise ValueError("n, r must be >= 1 and ell, s >= 0")
        if self.r + self.ell > self.n:
            raise ValueError(f"need r + ell <= n, got {self.r} + {self.ell} > {self.n}")
        if self.variant == "original":
            if self.ell != 0:
                raise ValueError("variant 'original' fixes ell = 0 (unstructured cosets)")
        elif self.ell < 1:
            raise ValueError(f"variant {self.variant!r} needs ell >= 1")
        if self.lam is not None:
            if self.variant == "original":
                raise ValueError("variant 'original' takes no lambda")
            shape = _lambda_shape(self.lam, self.variant)
            if (self.n, self.r, self.ell, self.s) != shape:
                raise ValueError(
                    f"lambda = {self.lam} gives (n, r, l, s) = {shape} for variant "
                    f"{self.variant!r}, not {(self.n, self.r, self.ell, self.s)}"
                )
        if self.variant == "bloated":
            if self.s < 1:
                raise ValueError("bloat needs s >= 1")
            if self.n - self.r - self.ell < self.s:
                raise ValueError("bloat needs n - r - l >= s")
        if self.r > 63:  # scheme.draw_key's rng.integers(0, 1 << r) stops at r = 63
            raise ValueError(f"r = {self.r} exceeds the widest hash value, 63 bits")
        _check_perm_width(self.n, self.perm_mode)

    @classmethod
    def from_lambda(cls, lam: int, variant: str = "standard", perm_mode: str = "feistel") -> "Params":
        """Scale parameters from a single security knob (see _lambda_shape)."""
        n, r, ell, s = _lambda_shape(lam, variant)
        return cls(n=n, r=r, ell=ell, s=s, variant=variant, perm_mode=perm_mode, lam=lam)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "r": self.r,
            "l": self.ell,
            "s": self.s,
            "variant": self.variant,
            "perm_mode": self.perm_mode,
        }
        if self.lam is not None:
            out["lambda"] = self.lam
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Params":
        return cls(
            n=obj["n"],
            r=obj["r"],
            ell=obj["l"],
            s=obj.get("s", 0),
            variant=obj.get("variant", "standard"),
            perm_mode=obj.get("perm_mode", "table"),
            lam=obj.get("lambda"),
        )


def _lambda_shape(lam: int, variant: str) -> tuple[int, int, int, int]:
    """(n, r, l, s) of the lambda rule for ``variant``.

    Standard rule (bloated worlds too): s = 16*lam, r = s*(lam - 1), l = lam.
    Incompressible rule: s = 16*(lam + 1), r = s*lam, l = lam + 1.
    Either way n = r + l + (3/2)*s.
    """
    if lam < 2:
        raise ValueError("lambda-derived parameters need lam >= 2 (lam = 1 degenerates)")
    if variant == "incompressible":
        s = 16 * (lam + 1)
        r = s * lam
        ell = lam + 1
    else:
        s = 16 * lam
        r = s * (lam - 1)
        ell = lam
    return r + ell + (3 * s) // 2, r, ell, s


def _check_perm_width(n: int, mode: str) -> None:
    """Refuse a width the permutation backend ``mode`` cannot build."""
    limit = _PERM_MAX_N.get(mode)
    if limit is None:
        raise ValueError(f"unknown permutation mode {mode!r}")
    if n > limit:
        raise ValueError(f"n = {n} exceeds the {mode!r} permutation limit of {limit}")


class PermutationEngine:
    """Bijection on {0,1}^n, either a stored table or a keyed Feistel network.

    Table mode (n <= 24) shuffles its table on the first query, by
    SeededStream.shuffle off the stream labelled b"perm-table" and n.
    Feistel mode (n <= 128, so each half is at most 64 bits) splits x into
    a left half of n // 2 bits and a right half of the rest, and runs 16
    alternating rounds: even rounds i XOR F_i(left) into right, odd rounds
    XOR F_i(right) into left.  With K = BLAKE2b-256(seed || b"perm-feistel"
    || n as 1 byte), F_i(h) is the top w bits of BLAKE2b(i as 2 bytes || h
    as 8 bytes, key=K, digest_size=8) read big-endian, w the width of the
    half it is XORed into (0 when w = 0).  Inverse replays the rounds
    backwards.
    """

    def __init__(self, n: int, mode: str, seed: bytes) -> None:
        _check_perm_width(n, mode)
        self.n = n
        self.mode = mode
        self._size = 1 << n
        self._seed = seed
        self._left = n // 2
        self._right = n - self._left

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """A table world's (forward, inverse) int64 arrays.

        Threads racing on the first query build equal tables, and either
        may be kept.  Built on the first query because most table worlds
        the batteries and the CLI build never read their permutation.
        """
        stream = SeededStream(self._seed, b"perm-table", self.n.to_bytes(1, "big"))
        fwd = np.array(stream.shuffle(self._size), dtype=np.int64)
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(self._size, dtype=np.int64)
        return fwd, inv

    @functools.cached_property
    def _hashers(self) -> list:
        """Round i's BLAKE2b state, keyed with K and fed i, for every i.

        A round copies its state and never updates it, so threads may share
        them; threads racing on the first query build equal lists, and
        either may be kept.  Built on the first query because most Feistel
        worlds the batteries build never read their permutation.
        """
        key = hashlib.blake2b(
            self._seed + b"perm-feistel" + self.n.to_bytes(1, "big"), digest_size=32
        ).digest()
        keyed = hashlib.blake2b(key=key, digest_size=8)
        hashers = []
        for i in range(_FEISTEL_ROUNDS):
            hasher = keyed.copy()
            hasher.update(i.to_bytes(2, "big"))
            hashers.append(hasher)
        return hashers

    def _feistel(self, value: int, rounds) -> int:
        right_bits = self._right
        left, right = value >> right_bits, value & ((1 << right_bits) - 1)
        hashers = self._hashers
        from_bytes = int.from_bytes
        left_shift, right_shift = 64 - self._left, 64 - right_bits
        for i in rounds:
            hasher = hashers[i].copy()
            if i & 1:
                hasher.update(right.to_bytes(8, "big"))
                left ^= from_bytes(hasher.digest(), "big") >> left_shift
            else:
                hasher.update(left.to_bytes(8, "big"))
                right ^= from_bytes(hasher.digest(), "big") >> right_shift
        return (left << right_bits) | right

    def forward(self, x: int) -> int:
        if not 0 <= x < self._size:
            raise ValueError("input outside domain")
        if self.mode == "table":
            return int(self._table[0][x])
        return self._feistel(x, range(_FEISTEL_ROUNDS))

    def inverse(self, u: int) -> int:
        if not 0 <= u < self._size:
            raise ValueError("input outside domain")
        if self.mode == "table":
            return int(self._table[1][u])
        return self._feistel(u, reversed(range(_FEISTEL_ROUNDS)))


_CosetEntry = tuple[tuple[BitMatrix, BitVec], ColumnDecoder]


def _coset_stream(p: Params, seed: bytes, y: int) -> SeededStream:
    """The stream that y's coset in the world (p, seed) is drawn from, in
    the order CosetFamily gives: B, then C's candidates, then the shift.
    Its label names the variant and y, not the permutation mode."""
    return SeededStream(seed, b"coset", p.variant.encode(), y.to_bytes((p.r + 7) // 8, "big"))


def _coset_deriver(p: Params, seed: bytes) -> Callable[[int], _CosetEntry]:
    """The derive of the world (p, seed): a plain function of y that
    returns y's (generator, shift) and the generator's ColumnDecoder,
    which the rank check of C's candidates fills."""
    n, r, ell = p.n, p.r, p.ell
    k = n - r
    rows = n - ell
    b_bytes = rows * ((ell + 7) // 8)
    first = b_bytes + (k - ell) * ((rows + 7) // 8)  # B, then C's first candidates
    forced = 1 << (n - ell) if p.variant == "incompressible" else 0  # bit l, 1-based from the top
    # Column j <= l is e_j over B's column j: it has head bit n - j, and in
    # the decoder it leads at bit n - j + k with tag bit k - j.  Their leads
    # strictly descend, so the identity block is already in echelon form.
    heads = [1 << (n - 1 - j) for j in range(ell)]
    entries = [(n - 1 - j + k, 1 << (k - 1 - j)) for j in range(ell)]

    def derive(y: int) -> _CosetEntry:
        if not 0 <= y < 1 << r:
            raise ValueError(f"y = {y} is not an r = {r} bit hash value")
        stream = _coset_stream(p, seed, y)
        data = stream.read(first)
        cols = [h | c for h, c in zip(heads, split_columns(data[:b_bytes], ell))]
        basis = {lead: (c << k) | tag for (lead, tag), c in zip(entries, cols)}
        decoder = ColumnDecoder._seeded(k, basis)
        # C's candidates have no bits in the top l rows, so one depends on
        # the columns kept before it iff it depends on C's alone; more are
        # read only when one is rejected.
        cols += decoder._admit(split_draws(data[b_bytes:], rows))
        cols += _draw_columns(stream, rows, k - len(cols), decoder)
        shift = stream.bits(n) | forced
        return (BitMatrix._from_columns(n, k, tuple(cols)), BitVec(n, shift)), decoder

    return derive


class CosetFamily:
    """Lazy, seed-derived map y -> (generator matrix, shift vector).

    For each y in [0, 2^r) the stream labelled by y yields, in order: the
    B block ((n - l) x l, one row at a time, each ceil(l/8) bytes), the
    full-column-rank C block ((n - l) x (n - r - l), one candidate column
    of ceil((n - l)/8) bytes at a time, redrawn while it lies in the span
    of the columns kept), and the shift b (ceil(n/8) bytes).  Each draw of
    k bits is the top k bits of its bytes read big-endian.  Reading several
    rows or candidates at once yields the same bytes, so a bulk read never
    changes a world.  The incompressible variant then forces bit l of the
    shift to 1.  With l = 0 the identity block vanishes and the generator
    is just C, a uniform full-column-rank matrix (the unstructured flavor).
    A derive reads B and C's first n - r - l candidates in one read, more
    candidates only when one is rejected, and then the shift.  The
    generator is assembled by columns from those bytes: column j <= l is
    e_j over B's column j, parsed off B's bytes by ``split_columns`` as
    SeededStream.matrix parses a matrix, and the columns after it are C's
    kept candidates, so neither block is transposed and no matrix but the
    generator is built.  C's rank check reduces each candidate into the
    generator's ColumnDecoder, seeded with the identity-headed columns'
    entries, so the one elimination of a coset's columns both picks C and
    builds the decoder that decode, decodes and coset_check read.  A y
    outside [0, 2^r) is refused with ``ValueError``.

    ``derive_cache``, a ``functools.lru_cache`` wrapper around the plain
    function that ``_coset_deriver`` builds for the world, keeps the last
    COSET_CACHE_SIZE entries ``((generator, shift), decoder)``; its
    ``cache_info()`` reports hits and misses.  ``derive`` returns the
    entry's ``(generator, shift)``, the same object on every hit.
    """

    def __init__(self, params: Params, seed: bytes) -> None:
        self.params = params
        self.seed = seed
        self.derive_cache = _per_world_cache(_coset_deriver(params, seed))

    def derive(self, y: int) -> tuple[BitMatrix, BitVec]:
        return self.derive_cache(y)[0]


def _dual_chain(cosets: CosetFamily, y: int) -> tuple[Subspace, ...]:
    """Dual levels (S_1, ..., S_{l+1}) of the generator for y, where S_j
    is the left kernel of columns j..n-r and so has dimension r + j - 1."""
    gen, _ = cosets.derive(y)
    chain = gen.dual_chain(cosets.params.ell)
    r = cosets.params.r
    if any(level.dim != r + j for j, level in enumerate(chain)):
        raise AssertionError("dual level has unexpected dimension")
    return chain


class OracleSet:
    """Query interface over one world, with thread-safe query counters.

    decode/encode speak BitVec on the outside; y is r bits, coset points
    are n bits.  query_counts() is the monotone total over all users of
    the instance; wrap an operation in metered() to profile it.  The
    constructor makes the world's PermutationEngine, whose round states
    or table are built on the first query that reads the permutation, and
    ``dual_chain``, a one-slot ``functools.lru_cache`` of y's dual levels
    (y an int).  The inverse and membership queries read y's
    ColumnDecoder from the coset cache, where derive put it.  The chain
    caches build from ``self.cosets`` and never refer back to their
    owner, so a dropped world is freed at once rather than by the cycle
    collector.
    """

    def __init__(self, params: Params, seed: bytes) -> None:
        if len(seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        self.perm = PermutationEngine(params.n, params.perm_mode, seed)  # refuses a width first
        self.params = params
        self.seed = seed
        cosets = self.cosets = CosetFamily(params, seed)
        # phase_dual's walks in the grover and backends batteries read one y l
        # times; a closure, as update_wrapper copies a partial's metadata slowly
        self.dual_chain = functools.lru_cache(maxsize=1)(lambda y: _dual_chain(cosets, y))
        self._counts = dict.fromkeys(QUERY_KEYS, 0)
        self._lock = threading.Lock()

    # -- bookkeeping ----------------------------------------------------

    def _count(self, key: str, k: int = 1) -> None:
        """Count k queries of kind key, under one lock and in each open meter
        once; k = 0 counts nothing, so no meter lists the key."""
        if not k:
            return
        with self._lock:
            self._counts[key] += k
        _meter(key, k)

    def query_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def coset_of(self, y: BitVec) -> tuple[BitMatrix, BitVec]:
        """Seed-derived (generator, shift) for y.  Not a counted query:
        protocol parties only ever see the cosets through the oracles."""
        if y.n != self.params.r:
            raise ValueError("y must have r bits")
        return self.cosets.derive(y.bits)

    def _coset_coordinates(self, y: int, u: int) -> Optional[int]:
        """The w with A_y w + b_y = u, or None when u is off y's coset."""
        (_, shift), decoder = self.cosets.derive_cache(y)
        return decoder.solve_word(u ^ shift.bits)

    # -- primary oracles ------------------------------------------------

    def encode(self, x: BitVec) -> tuple[BitVec, BitVec]:
        """Forward oracle: permute x, split into (y, w), return (y, Aw + b)."""
        p = self.params
        if x.n != p.n:
            raise ValueError("x must have n bits")
        self._count("P")
        image = self.perm.forward(x.bits)
        y = BitVec(p.r, image >> (p.n - p.r))
        w = BitVec(p.n - p.r, image & ((1 << (p.n - p.r)) - 1))
        gen, shift = self.cosets.derive(y.bits)
        return y, gen.matvec(w) ^ shift

    def _pinv_coordinates(self, y: BitVec, u: BitVec) -> Optional[int]:
        """One Pinv query on (y, u): u's coset coordinates w, or None.
        Refuses a wrong width before counting."""
        p = self.params
        if y.n != p.r or u.n != p.n:
            raise ValueError("a Pinv query expects r-bit y and n-bit u")
        self._count("Pinv")
        return self._coset_coordinates(y.bits, u.bits)

    def decode(self, y: BitVec, u: BitVec) -> Optional[BitVec]:
        """Inverse oracle: recover x with encode(x) = (y, u), or None."""
        w = self._pinv_coordinates(y, u)
        if w is None:
            return None
        p = self.params
        return BitVec(p.n, self.perm.inverse((y.bits << (p.n - p.r)) | w))

    def decodes(self, y: BitVec, u: BitVec) -> bool:
        """The verifier's inverse query: decode(y, u) is not None, at the
        same cost of one Pinv, without inverting the permutation."""
        return self._pinv_coordinates(y, u) is not None

    def hash_bits(self, x: BitVec) -> BitVec:
        """First r bits of the permuted input.  Derived view of encode;
        kept un-counted so tests can use it as ground truth."""
        if x.n != self.params.n:
            raise ValueError("x must have n bits")
        image = self.perm.forward(x.bits)
        return BitVec(self.params.r, image >> (self.params.n - self.params.r))

    def dual_check(self, j: int, y: BitVec, v: BitVec) -> int:
        """1 iff v is orthogonal to columns j..n-r of the generator for y
        and 1 <= j <= l + 1; otherwise 0.  One D query; refuses, uncounted,
        a y that is not r bits and a v that is not n bits."""
        p = self.params
        if y.n != p.r or v.n != p.n:
            raise ValueError("dual_check expects r-bit y and n-bit v")
        self._count("D")
        if not 1 <= j <= p.ell + 1:
            return 0
        w = v.bits
        cols = self.cosets.derive(y.bits)[0].col_words[j - 1 :]
        return 0 if any((c & w).bit_count() & 1 for c in cols) else 1

    def spend_walk(self, y: BitVec) -> None:
        """The signing walk's l D queries on y, one at each level 1..l, counted
        at once; none reads a level, so nothing is built.  Refuses, uncounted,
        a y that is not r bits."""
        if y.n != self.params.r:
            raise ValueError("y must have r bits")
        self._count("D", self.params.ell)

    def _level(self, key: str, chain, j: int, y: BitVec) -> Subspace:
        """One ``key`` query's accepted set: level j of ``chain(y)``.
        Refuses, uncounted, a j outside 1..l+1 and a y that is not r bits."""
        if not 1 <= j <= self.params.ell + 1:
            raise ValueError(f"a {key} query needs 1 <= j <= l + 1")
        if y.n != self.params.r:
            raise ValueError("y must have r bits")
        self._count(key)
        return chain(y.bits)[j - 1]

    def dual_support(self, j: int, y: BitVec) -> Subspace:
        """Accepted set of dual_check(j, y, .) as a subspace.

        This is the superposition form of the dual oracle: callers that
        apply the check across a whole register use it once per logical
        query, and it counts as one D query.  Every level comes from the
        chain for y, which is built once and shared by all l + 1 levels.
        """
        return self._level("D", self.dual_chain, j, y)

    def coset_check(self, y: BitVec, u: BitVec) -> int:
        """Membership oracle: 1 iff u lands in the shifted column span for y."""
        p = self.params
        if y.n != p.r or u.n != p.n:
            raise ValueError("coset_check expects r-bit y and n-bit u")
        self._count("D0")
        return 1 if self._coset_coordinates(y.bits, u.bits) is not None else 0

    # -- bloated dual ---------------------------------------------------

    def sample_bloat(self, rng) -> None:
        """Install the widened dual oracle.

        Draws a 32-byte sub-seed from rng once; per-y bloat data then
        derives lazily and deterministically from it: M' uniform and M
        uniform invertible, which widen the generator to
        A [[I_l, 0], [M', M]].  Level j accepts the dual of that matrix's
        columns j..l and l+s+1..n-r, with the s middle columns dropped.
        """
        if self.params.variant != "bloated":  # Params checks a bloated world's s
            raise ValueError("bloat needs variant 'bloated'")
        sub = rng.bytes(32)
        self._bloat_for = _per_world_cache(functools.partial(_bloat_chain, self.cosets, sub))

    def _bloat_for(self, y: int) -> tuple[Subspace, ...]:
        """y's widened dual chain; sample_bloat replaces it per world."""
        raise RuntimeError("bloat not sampled; call sample_bloat first")

    def dual_check_bloated(self, j: int, y: BitVec, v: BitVec) -> int:
        """Widened dual check: like dual_check but with s middle columns
        of the (bloated) generator dropped, so the accepted set at level j
        is a 2^(r+s+j-1)-point superspace of the plain one."""
        p = self.params
        if y.n != p.r or v.n != p.n:
            raise ValueError("dual_check_bloated expects r-bit y and n-bit v")
        self._count("Dprime")
        if not 1 <= j <= p.ell + 1:
            return 0
        return 1 if self._bloat_for(y.bits)[j - 1].contains(v) else 0

    def bloated_support(self, j: int, y: BitVec) -> Subspace:
        """Accepted set of dual_check_bloated at level j (one Dprime query)."""
        return self._level("Dprime", self._bloat_for, j, y)


def _bloat_chain(cosets: CosetFamily, seed: bytes, y: int) -> tuple[Subspace, ...]:
    """The widened dual chain for y, built by the same gf2 pieces as
    distlab.chain_by_matrix."""
    p = cosets.params
    d = p.n - p.r - p.ell
    stream = SeededStream(seed, b"bloat", y.to_bytes((p.r + 7) // 8, "big"))
    m_prime = stream.matrix(d, p.ell)
    while True:
        m_full = stream.matrix(d, d)
        if m_full.rank() == d:
            break
    gen, _ = cosets.derive(y)
    top = widened_top(gen, p.ell, m_full.col_range(p.s + 1, d))
    return chain_from_top(top, widened_normals(gen, p.ell, m_prime))


def build_oracles(params: Params, seed: bytes) -> OracleSet:
    """Materialize the world for (params, seed)."""
    return OracleSet(params, seed)
