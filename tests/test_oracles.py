"""World derivation and the five query oracles."""

import hashlib
import itertools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from osslab import gf2, scheme
from osslab.gf2 import BitMatrix, BitVec, ColumnDecoder, Subspace, _rref_words
from osslab.oracles import (
    COSET_CACHE_SIZE,
    PERM_MODES,
    QUERY_KEYS,
    VARIANTS,
    OracleSet,
    Params,
    PermutationEngine,
    SeededStream,
    _lambda_shape,
    build_oracles,
    metered,
)

SEED = bytes(range(32))


def small_world(**kw):
    return build_oracles(Params(n=8, r=3, ell=2, **kw), SEED)


# -- streams ------------------------------------------------------------


def test_stream_deterministic_and_label_separated():
    a = SeededStream(SEED, b"x")
    b = SeededStream(SEED, b"x")
    c = SeededStream(SEED, b"y")
    assert a.read(64) == b.read(64)
    assert a.read(16) != c.read(16)
    # length prefixing keeps part boundaries from aliasing
    assert SeededStream(b"ab", b"c").read(8) != SeededStream(b"a", b"bc").read(8)


def test_stream_below_stays_in_range():
    s = SeededStream(SEED, b"range")
    draws = [s.below(10) for _ in range(500)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10  # 500 draws hit every residue


def replay_bytes(*parts):
    """The stream's bytes one at a time, straight from its contract:
    64-byte BLAKE2b blocks of the counter, keyed by the hashed,
    length-prefixed label."""
    material = b"".join(len(p).to_bytes(2, "big") + p for p in parts)
    key = hashlib.blake2b(material, digest_size=32, person=b"osslab.stream").digest()
    for counter in itertools.count():
        yield from hashlib.blake2b(counter.to_bytes(8, "big"), key=key, digest_size=64).digest()


def replay_below(source, bound):
    k = (bound - 1).bit_length()
    width = (k + 7) // 8
    while True:
        x = int.from_bytes(bytes(next(source) for _ in range(width)), "big") >> (8 * width - k)
        if x < bound:
            return x


def test_stream_read_and_below_match_a_byte_at_a_time_replay():
    # sizes and bounds that fit a block, end on its edge and cross it
    stream = SeededStream(SEED, b"replay")
    source = replay_bytes(SEED, b"replay")
    steps = [3, 1 << 16, 61, 65, 64, 257, 0, 1, 2, 1 << 13, 130, 1 << 9, 7, 1 << 20] * 6
    for step, arg in enumerate(steps):
        if step % 2:
            assert stream.below(arg) == replay_below(source, arg)
        else:
            assert stream.read(arg) == bytes(itertools.islice(source, arg))
    # a negative count is refused and moves the stream neither way
    for draw in (lambda: stream.read(-3), lambda: stream.bits(-5), lambda: stream.matrix(-2, 8)):
        with pytest.raises(ValueError, match="cannot read -"):
            draw()
    # so is a negative shape beside an empty side, which reads nothing
    for draw, message in [
        (lambda: stream.matrix(0, -8), "cannot read 0 rows of -8 bits"),
        (lambda: stream.matrix(-3, 0), "cannot read -3 rows"),
        (lambda: stream.shuffle(-4), "cannot shuffle -4"),
        (lambda: BitMatrix.zeros(-2, 3), "negative shape"),
    ]:
        with pytest.raises(ValueError, match=message):
            draw()
    assert stream.bits(0) == 0
    assert stream.read(3) == bytes(itertools.islice(source, 3))


@pytest.mark.parametrize("n", [9, 13, 16])
def test_shuffle_consumes_the_same_bytes_as_below(n):
    # draws at these n are two bytes wide and straddle block edges; the
    # 61-byte lead also makes the very first draw cross one
    label = (SEED, b"perm-table", n.to_bytes(1, "big"))
    stream = SeededStream(*label)
    source = replay_bytes(*label)
    assert stream.read(61) == bytes(itertools.islice(source, 61))
    expect = list(range(1 << n))
    for i in range((1 << n) - 1, 0, -1):
        j = replay_below(source, i + 1)
        expect[i], expect[j] = expect[j], expect[i]
    assert stream.shuffle(1 << n) == expect
    assert stream.read(16) == bytes(itertools.islice(source, 16))


def test_stream_matrix_matches_a_byte_by_byte_replay():
    # one stream for every shape, so the reads start mid-block and cross
    # block edges; rows = 0 and cols = 0 read nothing
    stream = SeededStream(SEED, b"matrix")
    source = replay_bytes(SEED, b"matrix")
    shapes = [(rows, cols) for cols in (1, 3, 8, 9, 13, 16) for rows in (1, 5, 70)]
    for rows, cols in shapes + [(0, 9), (7, 0), (0, 0), (33, 13)]:
        nbytes = (cols + 7) // 8
        expect = [
            int.from_bytes(bytes(itertools.islice(source, nbytes)), "big") >> (8 * nbytes - cols)
            for _ in range(rows)
        ]
        assert stream.matrix(rows, cols) == BitMatrix(rows, cols, tuple(expect)), (rows, cols)
        assert stream.read(3) == bytes(itertools.islice(source, 3))


@settings(max_examples=150)
@given(
    st.lists(st.integers(0, 130), max_size=8),
    st.sampled_from(["bits", "below"]),
    st.integers(1, 70),
    st.binary(min_size=1, max_size=8),
)
@example([64], "bits", 8, b"edge")  # a fresh stream's first read is one whole block
@example([10, 54, 64], "below", 3, b"edge")  # reads that end on the first two edges
@example([63, 1, 0, 64], "bits", 64, b"edge")
@example([1, 127], "below", 70, b"edge")  # a whole new block, ending on its edge
@example([1, 128], "bits", 9, b"edge")  # two new blocks in one read
@example([130, 62], "bits", 17, b"edge")  # a long read, then one to the edge
def test_short_reads_on_fresh_streams_match_the_replay(sizes, draw, arg, label):
    stream = SeededStream(SEED, label)
    source = replay_bytes(SEED, label)
    for size in sizes:
        assert stream.read(size) == bytes(itertools.islice(source, size))
    if draw == "bits":
        width = (arg + 7) // 8
        expect = int.from_bytes(bytes(itertools.islice(source, width)), "big") >> (8 * width - arg)
        assert stream.bits(arg) == expect
    else:
        assert stream.below(arg) == replay_below(source, arg)
    assert stream.read(3) == bytes(itertools.islice(source, 3))


# -- parameters ---------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        Params(n=4, r=3, ell=2)  # r + l > n
    with pytest.raises(ValueError):
        Params(n=8, r=3, ell=0)  # structured variants need l >= 1
    with pytest.raises(ValueError):
        Params(n=8, r=3, ell=2, variant="original")  # original fixes l = 0
    with pytest.raises(ValueError):
        Params(n=8, r=3, ell=2, variant="nope")
    Params(n=8, r=3, ell=0, variant="original")  # fine


@pytest.mark.parametrize(
    "kw, field",
    [
        ({"n": 8.0}, "n"),
        ({"n": 8.5}, "n"),
        ({"r": True}, "r"),
        ({"ell": 2.0}, "l"),
        ({"s": False}, "s"),
        ({"lam": 2.0}, "lambda"),
        ({"n": "8"}, "n"),
    ],
)
def test_params_refuse_a_shape_that_is_not_an_int(kw, field):
    # a float n reached PermutationEngine's shifts and raised TypeError there
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        Params(**{"n": 8, "r": 3, "ell": 2, **kw})


def test_params_lambda_scaling():
    p = Params.from_lambda(2)
    assert (p.n, p.r, p.ell, p.s) == (82, 32, 2, 32)
    assert p.perm_mode == "feistel" and p.lam == 2
    assert _lambda_shape(2, "incompressible") == (171, 96, 3, 48)
    with pytest.raises(ValueError, match="^r = 96 exceeds"):  # n = 171 is past the Feistel limit too
        Params.from_lambda(2, variant="incompressible")
    with pytest.raises(ValueError):
        Params.from_lambda(1)


@pytest.mark.parametrize("variant", ["standard", "incompressible", "bloated"])
def test_params_refuse_a_lambda_that_contradicts_the_shape(variant):
    n, r, ell, s = _lambda_shape(2, variant)
    rule = {"n": n, "r": r, "ell": ell, "s": s, "variant": variant, "perm_mode": "feistel", "lam": 2}
    if variant != "incompressible":  # whose n = 171 world Params refuses after the lambda check
        p = Params(**rule)
        assert Params.from_json(p.to_json()) == p  # the rule's own shape is kept
    for shape in ({"n": n + 1}, {"r": r - 1, "n": n - 1}, {"s": 0}, {"lam": 3}):
        with pytest.raises(ValueError, match=r"^lambda = \d gives \(n, r, l, s\)"):
            Params(**{**rule, **shape})
    with pytest.raises(ValueError, match=r"^lambda = 2 gives"):
        Params(n=8, r=3, ell=2, variant=variant, lam=2)


@pytest.mark.parametrize("lam", [1, 0, -5])
def test_params_refuse_a_lambda_below_two(lam):
    with pytest.raises(ValueError, match="need lam >= 2"):
        Params(n=8, r=3, ell=2, lam=lam)
    with pytest.raises(ValueError, match="need lam >= 2"):
        Params.from_lambda(lam)


def test_params_refuse_a_lambda_on_an_original_world():
    with pytest.raises(ValueError, match="^variant 'original' takes no lambda$"):
        Params(n=8, r=3, ell=0, variant="original", lam=2)


def test_params_json_round_trip():
    p = Params(n=10, r=4, ell=3, s=2, variant="bloated", perm_mode="feistel")
    assert Params.from_json(json.loads(json.dumps(p.to_json()))) == p
    assert p.to_json()["l"] == 3


def test_oracle_seed_length_enforced():
    with pytest.raises(ValueError):
        OracleSet(Params(n=8, r=3, ell=2), b"short")


# -- golden world regression -------------------------------------------
#
# Frozen outputs for one fixed world.  If derivation ever drifts, every
# stored artifact (worlds, keys, signatures) silently changes meaning,
# so this test is strict about exact values.


def test_golden_world_values():
    o = small_world()
    for xv, y_hex, u_hex in [(0x00, "6", "b0"), (0x2A, "0", "58"), (0xFF, "3", "64")]:
        y, u = o.encode(BitVec(8, xv))
        assert (y.to_hex(), u.to_hex()) == (y_hex, u_hex)
    gen, shift = o.coset_of(BitVec(3, 5))
    assert [gen.row(i).to_hex() for i in range(1, 9)] == ["10", "08", "19", "11", "1e", "0c", "10", "03"]
    assert shift.to_hex() == "c2"


def test_golden_world_against_replayed_shuffle():
    """Recompute the permutation table straight from the stream contract
    and check the oracle's hash against it."""
    stream = SeededStream(SEED, b"perm-table", (8).to_bytes(1, "big"))
    fwd = list(range(256))
    for i in range(255, 0, -1):
        j = stream.below(i + 1)
        fwd[i], fwd[j] = fwd[j], fwd[i]
    o = small_world()
    for xv in (0x00, 0x2A, 0x77, 0xFF):
        assert o.hash_bits(BitVec(8, xv)).bits == fwd[xv] >> 5


def replay_coset(p, seed, y):
    """y's (generator, shift) rebuilt from the stream contract, a byte at
    a time: B row by row, C candidate column by candidate column with
    rejection, then the shift and the incompressible bit."""
    source = replay_bytes(seed, b"coset", p.variant.encode(), y.to_bytes((p.r + 7) // 8, "big"))

    def draw(k):
        width = (k + 7) // 8
        return int.from_bytes(bytes(next(source) for _ in range(width)), "big") >> (8 * width - k)

    rows, d = p.n - p.ell, p.n - p.r - p.ell
    b_block = BitMatrix(rows, p.ell, tuple(draw(p.ell) for _ in range(rows)))
    kept, basis = [], []  # basis: reduced, leading bits distinct and descending
    while len(kept) < d:
        cand = residue = draw(rows)
        for b in basis:
            residue = min(residue, residue ^ b)
        if residue:
            kept.append(BitVec(rows, cand))
            basis = sorted(basis + [residue], reverse=True)
    c_block = BitMatrix.from_rows(kept).transpose() if kept else BitMatrix.zeros(rows, 0)
    gen = b_block.hstack(c_block)
    if p.ell:
        gen = BitMatrix.identity(p.ell).hstack(BitMatrix.zeros(p.ell, d)).vstack(gen)
    shift = BitVec(p.n, draw(p.n))
    if p.variant == "incompressible":
        shift = shift.with_bit(p.ell, 1)
    return gen, shift


@st.composite
def coset_worlds(draw):
    variant = draw(st.sampled_from(VARIANTS))
    perm_mode = draw(st.sampled_from(PERM_MODES))
    structured = variant != "original"
    n = draw(st.integers(1 + structured, 64 if perm_mode == "feistel" else 10))
    r = draw(st.integers(1, min(n - structured, 63)))  # Params refuses r > 63
    ell = draw(st.integers(1, n - r)) if structured else 0
    assume(variant != "bloated" or n - r - ell >= 1)  # a bloated world needs 1 <= s <= n - r - l
    s = draw(st.integers(1, n - r - ell)) if variant == "bloated" else 0
    p = Params(n=n, r=r, ell=ell, s=s, variant=variant, perm_mode=perm_mode)
    seed = draw(st.binary(min_size=32, max_size=32))
    return p, seed, draw(st.lists(st.integers(0, (1 << r) - 1), min_size=1, max_size=3))


@settings(max_examples=150)
@given(coset_worlds())
@example((Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED, [0, (1 << 32) - 1]))
@example((Params(n=6, r=2, ell=0, variant="original"), SEED, [0, 1, 2, 3]))
@example((Params(n=8, r=3, ell=2, variant="incompressible"), SEED, [5]))
@example((Params(n=6, r=2, ell=1), SEED, [0, 1, 2, 3]))  # y = 0 rejects a first-batch C candidate
def test_derive_matches_a_byte_by_byte_replay(world):
    p, seed, ys = world
    o = build_oracles(p, seed)
    for y in ys:
        assert o.coset_of(BitVec(p.r, y)) == replay_coset(p, seed, y)


def assert_decoder_of(decoder, gen):
    ref = ColumnDecoder(gen)
    assert (decoder._basis, decoder._width) == (ref._basis, ref._width)


@settings(max_examples=150)
@given(coset_worlds())
@example((Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED, [0, (1 << 32) - 1]))
@example((Params(n=6, r=2, ell=0, variant="original"), SEED, [0, 1, 2, 3]))
@example((Params(n=8, r=3, ell=5, variant="incompressible"), SEED, [0, 5]))  # r + l = n: no C
@example((Params(n=40, r=30, ell=9, s=1, variant="bloated", perm_mode="feistel"), SEED, [7]))
@example((Params(n=6, r=2, ell=1), SEED, [0, 1, 2, 3]))  # y = 0 rejects a first-batch C candidate
def test_derive_caches_the_decoder_of_its_generator(world):
    """derive's rank check of C's candidates builds the decoder that a
    fresh ColumnDecoder of the generator would, entry for entry."""
    p, seed, ys = world
    o = build_oracles(p, seed)
    for y in ys:
        coset, decoder = o.cosets.derive_cache(y)
        assert o.cosets.derive(y) is coset
        assert_decoder_of(decoder, coset[0])


def _cosets_digest(pairs) -> str:
    h = hashlib.sha256()
    for o, y in pairs:
        gen, shift = o.coset_of(BitVec(o.params.r, y))
        for w in gen.row_words + (shift.bits,):
            h.update(w.to_bytes(8, "big"))
    return h.hexdigest()


def test_wide_feistel_cosets_are_pinned():
    o = build_oracles(Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED)
    ys = [(i * 0x9E3779B9) % (1 << 32) for i in range(64)]
    assert _cosets_digest((o, y) for y in ys) == (
        "5ce002909fdef2e935c1e9e427d982c3e965ca101c4aa9b86dc26905c055433a"
    )


def test_unstructured_cosets_are_pinned():
    # r = 2 gives four cosets a world, so 16 worlds give 64; between them
    # they redraw 12 candidate columns, so the rejection path is pinned too
    p = Params(n=6, r=2, ell=0, variant="original")
    worlds = [build_oracles(p, hashlib.sha256(bytes([i])).digest()) for i in range(16)]
    assert _cosets_digest((o, y) for o in worlds for y in range(4)) == (
        "803ca020a7f14597deffc0fb17c1f60772edf81d1e89079cfb5382fd6471eccb"
    )


def recorded_reads(monkeypatch) -> list[int]:
    """The byte count of every SeededStream.read from here on, in order."""
    reads = []
    real = SeededStream.read
    monkeypatch.setattr(SeededStream, "read", lambda self, nbytes: reads.append(nbytes) or real(self, nbytes))
    return reads


def test_unstructured_derive_reads_no_b_block(monkeypatch):
    # with l = 0 there is no B block: a derive that rejects no candidate reads
    # the n - r candidates' bytes in one call, then the shift's
    reads = recorded_reads(monkeypatch)
    o = build_oracles(Params(n=6, r=2, ell=0, variant="original", perm_mode="feistel"), SEED)
    gen, _ = o.cosets.derive(3)
    assert (gen.rows, gen.cols) == (6, 4)
    assert reads == [4, 1]


def test_cold_wide_derive_reads_twice_and_builds_only_the_generator(monkeypatch):
    """A cold derive at (64, 32, 16) whose C draw rejects nothing reads its
    stream twice, B's 48 rows of 2 bytes with C's 16 candidates of 6 bytes
    and then the shift, and builds one BitMatrix, the generator: B's
    columns go straight into the generator and its decoder."""
    reads = recorded_reads(monkeypatch)
    built = []
    real = BitMatrix._from_columns.__func__

    def from_columns(cls, rows, cols, col_words):
        built.append((rows, cols))
        return real(cls, rows, cols, col_words)

    def refuse(*args):
        raise AssertionError("built a BitMatrix from rows")

    monkeypatch.setattr(BitMatrix, "_from_columns", classmethod(from_columns))
    monkeypatch.setattr(BitMatrix, "__init__", refuse)
    o = build_oracles(Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED)
    for y in (0, (1 << 32) - 1):
        reads.clear()
        built.clear()
        o.cosets.derive(y)
        assert reads == [48 * 2 + 16 * 6, 8]
        assert built == [(64, 32)]


def test_derive_cache_wraps_a_plain_function():
    # lru_cache copies a function's metadata without the AttributeErrors a
    # functools.partial raises, so a world is quicker to build
    wrapped = build_oracles(Params(n=8, r=3, ell=2), SEED).cosets.derive_cache.__wrapped__
    assert type(wrapped) is type(test_derive_cache_wraps_a_plain_function)


def test_derive_refuses_a_y_outside_r_bits():
    o = small_world()  # r = 3
    for y in (9, 256, -1):
        with pytest.raises(ValueError, match="r = 3"):
            o.cosets.derive(y)
    assert o.cosets.derive_cache.cache_info().currsize == 0
    assert o.cosets.derive(7) == o.coset_of(BitVec(3, 7))


# -- permutation backends ----------------------------------------------


def test_table_permutation_digest_is_pinned():
    # SHA-256 of forward(x) for every x as 4-byte big-endian words, frozen
    # from the per-draw below() shuffle that table worlds were built with
    perm = PermutationEngine(16, "table", SEED)
    data = b"".join(perm.forward(x).to_bytes(4, "big") for x in range(1 << 16))
    assert (
        hashlib.sha256(data).hexdigest()
        == "434182bdbc5aa5a6cf5826a6c0fa8c68438a11e487f9a3437ffed9688295c68b"
    )


def test_table_permutation_is_a_bijection():
    perm = PermutationEngine(8, "table", SEED)
    images = {perm.forward(x) for x in range(256)}
    assert images == set(range(256))
    assert all(perm.inverse(perm.forward(x)) == x for x in range(256))


def test_feistel_permutation_small_bijection():
    perm = PermutationEngine(9, "feistel", SEED)  # odd width: unbalanced halves
    images = {perm.forward(x) for x in range(512)}
    assert images == set(range(512))


def test_feistel_permutation_wide_round_trip():
    perm = PermutationEngine(40, "feistel", SEED)
    for x in (0, 1, 0x12345678AB, (1 << 40) - 1):
        u = perm.forward(x)
        assert 0 <= u < 1 << 40
        assert perm.inverse(u) == x
    with pytest.raises(ValueError):
        perm.forward(1 << 40)


@pytest.mark.parametrize(
    "n, digest",
    [
        (9, "273b0d2562551aab2972c3abc9d994c8557805ac8342d5bad8c3254f96ba54ac"),
        (40, "877816199d2461c7a7811fed257dcc51e7532d47b9dd8277cbb9e42b7cba0b2a"),
        (64, "ea7806b14d7ece6703f73bf1d417e634377061d96de5ab804cc16395e11af75d"),
    ],
)
def test_feistel_permutation_digest_is_pinned(n, digest):
    # SHA-256 of forward(x) as 8-byte big-endian words over 512 fixed
    # inputs (all of them at n = 9): existing Feistel worlds keep their bits
    perm = PermutationEngine(n, "feistel", SEED)
    xs = [(k * 0x9E3779B97F4A7C15) % (1 << n) for k in range(512)]
    images = [perm.forward(x) for x in xs]
    assert hashlib.sha256(b"".join(u.to_bytes(8, "big") for u in images)).hexdigest() == digest
    assert [perm.inverse(u) for u in images] == xs


def _reference_feistel(n, seed, x, rounds):
    # The round function written out in one shot, as the world format states
    # it: F_i(h) = top w bits of BLAKE2b(i || h, key=K, digest_size=8)
    key = hashlib.blake2b(seed + b"perm-feistel" + n.to_bytes(1, "big"), digest_size=32).digest()
    left_bits = n // 2
    right_bits = n - left_bits

    def round_fn(i, half, width):
        data = i.to_bytes(2, "big") + half.to_bytes(8, "big")
        digest = hashlib.blake2b(data, key=key, digest_size=8).digest()
        return int.from_bytes(digest, "big") >> (64 - width) if width else 0

    left, right = x >> right_bits, x & ((1 << right_bits) - 1)
    for i in rounds:
        if i % 2 == 0:
            right ^= round_fn(i, left, right_bits)
        else:
            left ^= round_fn(i, right, left_bits)
    return (left << right_bits) | right


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 128), st.binary(min_size=32, max_size=32), st.integers(0, (1 << 128) - 1))
@example(1, SEED, 1)  # the left half has no bits
@example(9, SEED, 0x1FF)
@example(127, SEED, (1 << 127) - 1)
@example(128, SEED, (1 << 128) - 1)  # both halves 64 bits wide
def test_feistel_matches_the_one_shot_reference_round(n, seed, x):
    perm = PermutationEngine(n, "feistel", seed)
    x %= 1 << n
    u = perm.forward(x)
    assert u == _reference_feistel(n, seed, x, range(16))
    assert perm.inverse(x) == _reference_feistel(n, seed, x, reversed(range(16)))
    assert perm.inverse(u) == x


def test_threads_sharing_an_engine_get_the_single_thread_answers():
    alone = PermutationEngine(33, "feistel", SEED)
    xs = [(k * 0x9E3779B97F4A7C15) % (1 << 33) for k in range(400)]
    expected = ([alone.forward(x) for x in xs], [alone.inverse(x) for x in xs])
    shared = PermutationEngine(33, "feistel", SEED)  # its round states are built under the race
    start = threading.Barrier(4)
    results = [None] * 4

    def run(slot):
        start.wait()
        results[slot] = ([shared.forward(x) for x in xs], [shared.inverse(x) for x in xs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads between bytecodes
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


@pytest.mark.parametrize("mode, limit", [("table", 24), ("feistel", 128)])
def test_permutation_refuses_a_width_past_its_limit(mode, limit, monkeypatch):
    def nothing_built(*args, **kwargs):
        raise AssertionError("a refused width started building its permutation")

    monkeypatch.setattr(SeededStream, "shuffle", nothing_built)
    monkeypatch.setattr(hashlib, "blake2b", nothing_built)
    message = f"n = {limit + 1} exceeds the {mode!r} permutation limit of {limit}"
    with pytest.raises(ValueError) as refused:
        PermutationEngine(limit + 1, mode, SEED)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        Params(n=limit + 1, r=1, ell=1, perm_mode=mode)
    assert str(refused.value) == message
    with pytest.raises(ValueError, match="permutation limit"):
        PermutationEngine(130, mode, SEED)  # a half wider than the 8-byte encoding
    with pytest.raises(ValueError, match="unknown permutation mode"):
        PermutationEngine(8, mode + "s", SEED)


# -- a table is shuffled on its first query ---------------------------


@pytest.mark.parametrize(
    "variant, n, r, ell",
    [("standard", 12, 4, 3), ("incompressible", 12, 4, 3), ("standard", 24, 8, 8)],
    ids=["standard", "incompressible", "standard-24"],
)
def test_table_worlds_sign_verify_and_check_without_a_shuffle(variant, n, r, ell, monkeypatch):
    # at n = 24 a shuffle would draw 2^24 entries
    def refuse(self, size):
        raise AssertionError("a table was shuffled")

    monkeypatch.setattr(SeededStream, "shuffle", refuse)
    o = build_oracles(Params(n=n, r=r, ell=ell, variant=variant), SEED)
    rng = np.random.default_rng(3)
    m = BitVec(scheme.message_bits(o.params), 0b10)
    for backend in ("symbolic", "statevector"):
        pk, sk = scheme.generate(o, backend, rng)
        sig = scheme.sign(o, pk, sk, m, rng)
        assert scheme.verify(o, pk, m, sig)
        assert o.decodes(pk.y, sig.sigma) and o.coset_check(pk.y, sig.sigma) == 1
        assert o.dual_check(1, pk.y, BitVec(n, 0)) == 1


@pytest.mark.parametrize("first", ["hash_bits", "encode", "decode"])
def test_first_read_shuffles_the_table_once(first, monkeypatch):
    calls = []  # the size of each table shuffled
    shuffle = SeededStream.shuffle

    def counted(self, size):
        calls.append(size)
        return shuffle(self, size)

    monkeypatch.setattr(SeededStream, "shuffle", counted)
    o = small_world()
    gen, shift = o.coset_of(BitVec(3, 5))
    u = gen.matvec(BitVec(5, 0b01101)) ^ shift
    reads = {
        "hash_bits": lambda: o.hash_bits(BitVec(8, 0x2A)),
        "encode": lambda: o.encode(BitVec(8, 0x2A)),
        "decode": lambda: o.decode(BitVec(3, 5), u),
    }
    assert calls == []
    reads[first]()
    assert calls == [256]
    for read in reads.values():
        read()
    assert calls == [256]
    # the table is the one the stream contract gives, both ways
    source = replay_bytes(SEED, b"perm-table", (8).to_bytes(1, "big"))
    fwd = list(range(256))
    for i in range(255, 0, -1):
        j = replay_below(source, i + 1)
        fwd[i], fwd[j] = fwd[j], fwd[i]
    assert [o.perm.forward(x) for x in range(256)] == fwd
    assert [o.perm.inverse(fwd[x]) for x in range(256)] == list(range(256))
    assert calls == [256]


def test_threads_racing_on_a_fresh_table_get_equal_answers():
    params = Params(n=12, r=4, ell=3)
    xs = [BitVec(12, (k * 0x9E3779B9) % (1 << 12)) for k in range(300)]
    alone = build_oracles(params, SEED)
    expected = [alone.hash_bits(x) for x in xs]
    shared = build_oracles(params, SEED)  # its table is built under the race
    start = threading.Barrier(4)
    results = [None] * 4

    def run(slot):
        start.wait()
        results[slot] = [shared.hash_bits(x) for x in xs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads between bytecodes
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


# -- encode / decode ----------------------------------------------------


def test_preimage_balance():
    o = small_world()
    counts = {}
    for xv in range(256):
        y = o.hash_bits(BitVec(8, xv)).bits
        counts[y] = counts.get(y, 0) + 1
    assert counts == {y: 32 for y in range(8)}


def test_decode_inverts_encode_everywhere():
    o = small_world()
    for xv in range(256):
        x = BitVec(8, xv)
        y, u = o.encode(x)
        assert o.decode(y, u) == x


def test_decode_accepts_exactly_the_coset():
    o = small_world()
    y = BitVec(3, 4)
    accepted = sum(o.decode(y, BitVec(8, uv)) is not None for uv in range(256))
    assert accepted == 32  # 2^(n-r); rejection fraction 1 - 2^-r


def test_decode_validates_shapes():
    o = small_world()
    with pytest.raises(ValueError):
        o.decode(BitVec(2, 0), BitVec(8, 0))
    with pytest.raises(ValueError):
        o.encode(BitVec(7, 0))


# -- dual oracles -------------------------------------------------------


def test_dual_support_sizes_and_pointwise_agreement():
    o = small_world()
    for y in (BitVec(3, 0), BitVec(3, 6)):
        for j in range(1, 4):  # j = 1 .. l + 1
            sup = o.dual_support(j, y)
            assert sup.dim == 3 + j - 1  # r + j - 1
            members = set(sup.element_ints())
            for vv in range(256):
                assert o.dual_check(j, y, BitVec(8, vv)) == (vv in members)


def test_dual_check_out_of_range_rejects():
    o = small_world()
    y = BitVec(3, 1)
    assert o.dual_check(0, y, BitVec(8, 0)) == 0
    assert o.dual_check(4, y, BitVec(8, 0)) == 0  # beyond l + 1
    with pytest.raises(ValueError):
        o.dual_support(4, y)


def test_dual_support_counts_one_query_and_refuses_uncounted():
    o = small_world()
    y = BitVec(3, 1)
    for j, yy in ((0, y), (4, y), (1, BitVec(4, 1)), (1, BitVec(2, 1))):  # l + 2 = 4
        with metered() as spent, pytest.raises(ValueError):
            o.dual_support(j, yy)
        assert spent == {}
    assert o.query_counts()["D"] == 0
    with metered() as spent:
        for j in range(1, 4):  # j = 1 .. l + 1
            o.dual_support(j, y)
    assert spent == {"D": 3}


def test_spend_walk_counts_l_queries_at_once_and_refuses_uncounted():
    o = small_world()
    for yy in (BitVec(4, 1), BitVec(2, 1), BitVec(0, 0)):
        with metered() as spent, pytest.raises(ValueError):
            o.spend_walk(yy)
        assert spent == {}
    assert o.query_counts()["D"] == 0
    with metered() as outer:
        with metered() as inner:
            assert o.spend_walk(BitVec(3, 1)) is None
    assert inner == outer == {"D": 2}  # l = 2
    assert o.query_counts() == {"P": 0, "Pinv": 0, "D": 2, "D0": 0, "Dprime": 0}
    assert o.dual_chain.cache_info().currsize == 0  # a spend builds no chain


@st.composite
def dual_check_worlds(draw):
    variant = draw(st.sampled_from(VARIANTS))
    structured = variant != "original"
    n = draw(st.integers(1 + structured, 9))
    r = draw(st.integers(1, n - structured))
    ell = draw(st.integers(1, n - r)) if structured else 0
    assume(variant != "bloated" or n - r - ell >= 1)  # a bloated world needs 1 <= s <= n - r - l
    s = draw(st.integers(1, n - r - ell)) if variant == "bloated" else 0
    p = Params(n=n, r=r, ell=ell, s=s, variant=variant)
    j = draw(st.integers(0, ell + 2))
    y = draw(st.integers(0, (1 << r) - 1))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    return p, j, y, words


@settings(max_examples=150)
@given(dual_check_worlds(), st.binary(min_size=32, max_size=32))
@example((Params(n=6, r=2, ell=0, variant="original"), 1, 3, list(range(64))), SEED)
@example((Params(n=8, r=3, ell=2), 3, 5, [0, 255, 17]), SEED)
def test_dual_check_is_membership_in_its_dual_level(world, seed):
    p, j, y, words = world
    o = build_oracles(p, seed)
    yv = BitVec(p.r, y)
    with metered() as spent:
        answers = [o.dual_check(j, yv, BitVec(p.n, w)) for w in words]
    # level j of the dual chain, built uncounted; no level outside 1..l+1
    level = build_oracles(p, seed).dual_chain(y)[j - 1] if 1 <= j <= p.ell + 1 else None
    assert answers == [int(level is not None and level.contains_word(w)) for w in words]
    assert o.query_counts() == {"P": 0, "Pinv": 0, "D": len(words), "D0": 0, "Dprime": 0}
    assert spent == ({"D": len(words)} if words else {})


def test_dual_check_refuses_a_wrong_width_uncounted():
    o = small_world()  # n = 8, r = 3
    y = BitVec(3, 1)
    v = BitVec(8, 0)
    refused = [(1, y, BitVec(9, 0)), (1, y, BitVec(7, 0)), (4, y, BitVec(9, 1)), (1, BitVec(4, 1), v), (1, BitVec(2, 1), v)]
    for j, yy, vv in refused:
        with metered() as spent, pytest.raises(ValueError):
            o.dual_check(j, yy, vv)
        assert spent == {}
    assert o.query_counts()["D"] == 0
    assert o.cosets.derive_cache.cache_info().currsize == 0  # nothing derived either


def test_dual_levels_nest():
    o = small_world()
    y = BitVec(3, 2)
    levels = [o.dual_support(j, y) for j in range(1, 4)]
    assert levels[0].is_subspace_of(levels[1])
    assert levels[1].is_subspace_of(levels[2])


CHAIN_WORLDS = {
    "no-tail": build_oracles(Params(n=8, r=4, ell=4), SEED),  # n - r - l = 0
    "original": build_oracles(Params(n=8, r=3, ell=0, variant="original"), SEED),
    "incompressible": build_oracles(Params(n=8, r=3, ell=2, variant="incompressible"), SEED),
    "feistel-wide": build_oracles(Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED),
}


@settings(max_examples=40)
@given(st.sampled_from(sorted(CHAIN_WORLDS)), st.integers(0, (1 << 32) - 1))
def test_dual_support_matches_per_level_left_kernel(name, yv):
    o = CHAIN_WORLDS[name]
    p = o.params
    y = BitVec(p.r, yv % (1 << p.r))
    gen, _ = o.coset_of(y)
    for j in range(1, p.ell + 2):
        sup = o.dual_support(j, y)
        if j > p.n - p.r:
            assert sup == Subspace.full(p.n)
        else:
            assert sup == gen.col_range(j, p.n - p.r).left_kernel()
        assert tuple(_rref_words(sup.basis)) == sup.basis
        assert sup.dim == p.r + j - 1


def _levels_digest(chains) -> str:
    """BLAKE2b of every level's ambient, dimension and basis words, in order."""
    h = hashlib.blake2b(digest_size=16)
    for chain in chains:
        for level in chain:
            h.update(level.ambient.to_bytes(2, "big") + level.dim.to_bytes(2, "big"))
            for b in level.basis:
                h.update(b.to_bytes((level.ambient + 7) // 8, "big"))
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, r, ell, s, digest",
    [
        (64, 32, 16, 0, "ccd0a44808b9b7caa3c1db34ab7a9319"),
        (32, 8, 8, 0, "2f58712df107414f948ca3bc085c12a4"),
        (32, 8, 8, 4, "d121216d98e6b5e2ea26d1aacdcd4ca9"),
    ],
)
def test_chains_are_bit_identical_to_the_pinned_bases(n, r, ell, s, digest):
    # Canonical bases are unique, so these digests pin the subspaces and
    # the word-for-word RREF form of every dual (s = 0) or widened (s > 0)
    # level for 8 fixed y on a fixed Feistel world, as the earlier
    # two-pass kernel (pivot scan, then a row reduction) produced them.
    if s:
        o = build_oracles(Params(n=n, r=r, ell=ell, s=s, variant="bloated", perm_mode="feistel"), SEED)
        o.sample_bloat(np.random.default_rng(7))
        support = o.bloated_support
    else:
        o = build_oracles(Params(n=n, r=r, ell=ell, perm_mode="feistel"), SEED)
        support = o.dual_support
    ys = [0, (1 << r) - 1] + [(0x9E3779B9 * k) % (1 << r) for k in range(1, 7)]
    chains = [[support(j, BitVec(r, y)) for j in range(1, ell + 2)] for y in ys]
    assert _levels_digest(chains) == digest


def test_coset_check_matches_decode():
    o = small_world()
    for yv in range(8):
        y = BitVec(3, yv)
        for uv in range(0, 256, 7):
            u = BitVec(8, uv)
            assert o.coset_check(y, u) == (o.decode(y, u) is not None)


@settings(max_examples=80)
@given(
    st.sampled_from(["standard", "incompressible", "bloated", "original"]),
    st.sampled_from(["table", "feistel"]),
    st.data(),
)
def test_column_decoder_agrees_with_solve_on_and_off_the_coset(variant, perm_mode, data):
    """The decoder cached with y's coset gives solve's answer, value or
    None, and decode, decodes and coset_check follow it, for points on y's
    coset and off it."""
    n = data.draw(st.integers(2, 12 if perm_mode == "table" else 64))
    if variant == "original":
        r, ell = data.draw(st.integers(1, min(n, 63))), 0  # Params refuses r > 63
    else:
        r = data.draw(st.integers(1, n - 1))
        ell = data.draw(st.integers(1, n - r))
    assume(variant != "bloated" or n - r - ell >= 1)  # a bloated world needs 1 <= s <= n - r - l
    s = data.draw(st.integers(1, n - r - ell)) if variant == "bloated" else 0
    params = Params(n=n, r=r, ell=ell, s=s, variant=variant, perm_mode=perm_mode)
    o = build_oracles(params, data.draw(st.binary(min_size=32, max_size=32)))
    y = BitVec(r, data.draw(st.integers(0, (1 << r) - 1)))
    gen, shift = o.coset_of(y)
    on = gen.matvec(BitVec(n - r, data.draw(st.integers(0, (1 << (n - r)) - 1)))) ^ shift
    # A point of y's coset moved along a coordinate that some nonzero
    # vector of the left kernel reads leaves the coset (r >= 1 makes one).
    witness = gen.left_kernel().basis[0]
    bit = data.draw(st.sampled_from([i for i in range(n) if witness >> i & 1]))
    off = BitVec(n, on.bits ^ (1 << bit))
    assert gen.solve(off ^ shift) is None
    for u in (on, off, BitVec(n, data.draw(st.integers(0, (1 << n) - 1)))):
        ref = gen.solve(u ^ shift)
        w = None if ref is None else ref.bits
        assert o.cosets.derive_cache(y.bits)[1].solve_word((u ^ shift).bits) == w
        x = None if w is None else BitVec(n, o.perm.inverse((y.bits << (n - r)) | w))
        assert o.decode(y, u) == x
        assert o.coset_check(y, u) == (w is not None)
        with metered() as spent:
            assert o.decodes(y, u) is (w is not None)
        assert spent == {"Pinv": 1}


def test_decodes_refuses_a_wrong_width_uncounted():
    o = small_world()
    base = o.query_counts()
    for y, u in [(BitVec(2, 0), BitVec(8, 0)), (BitVec(4, 0), BitVec(8, 0)),
                 (BitVec(3, 0), BitVec(7, 0)), (BitVec(3, 0), BitVec(9, 0))]:
        with metered() as spent, pytest.raises(ValueError, match="r-bit y and n-bit u"):
            o.decodes(y, u)
        assert spent == {}
    assert o.query_counts() == base


def test_decode_and_coset_check_spend_one_query_through_the_decoder_cache():
    """The decoder comes with y's cached coset: the derive that built the
    coset is the one miss, and each decode and coset_check is a hit."""
    o = small_world()
    y = BitVec(3, 5)
    cache = o.cosets.derive_cache
    assert cache.cache_info().maxsize == COSET_CACHE_SIZE
    gen, shift = o.coset_of(y)
    assert (cache.cache_info().hits, cache.cache_info().misses) == (0, 1)
    u = gen.matvec(BitVec(5, 0b10110)) ^ shift
    with metered() as spent:
        x = o.decode(y, u)
    assert spent == {"Pinv": 1} and x is not None
    assert (cache.cache_info().hits, cache.cache_info().misses) == (1, 1)
    assert o.encode(x) == (y, u)
    with metered() as spent:
        assert o.decode(y, u) == x
    assert spent == {"Pinv": 1}
    assert (cache.cache_info().hits, cache.cache_info().misses) == (3, 1)
    with metered() as spent:
        assert o.coset_check(y, u) == 1
    assert spent == {"D0": 1}
    assert (cache.cache_info().hits, cache.cache_info().misses) == (4, 1)


def test_query_counters_are_monotone_and_split_by_oracle():
    o = small_world()
    base = o.query_counts()
    assert set(base) == {"P", "Pinv", "D", "D0", "Dprime"}
    o.encode(BitVec(8, 1))
    o.decode(BitVec(3, 0), BitVec(8, 0))
    o.dual_check(1, BitVec(3, 0), BitVec(8, 0))
    o.dual_support(1, BitVec(3, 0))
    o.coset_check(BitVec(3, 0), BitVec(8, 0))
    after = o.query_counts()
    assert {k: after[k] - base[k] for k in after} == {
        "P": 1,
        "Pinv": 1,
        "D": 2,
        "D0": 1,
        "Dprime": 0,
    }
    o.hash_bits(BitVec(8, 5))  # ground-truth view, never counted
    assert o.query_counts() == after


def test_nested_meters_both_count_the_inner_queries():
    o = small_world()
    y, v = BitVec(3, 0), BitVec(8, 0)
    with metered() as outer:
        o.encode(BitVec(8, 1))
        with metered() as inner:
            o.dual_check(1, y, v)
            o.decode(y, v)
        o.coset_check(y, v)
    assert inner == {"Pinv": 1, "D": 1}
    assert outer == {"P": 1, "Pinv": 1, "D": 1, "D0": 1}


def test_a_meter_left_by_an_exception_stops_counting():
    o = small_world()
    with metered() as outer:
        with pytest.raises(KeyError):
            with metered() as inner:
                o.encode(BitVec(8, 1))
                raise KeyError("leave the block")
        o.encode(BitVec(8, 2))
    o.encode(BitVec(8, 3))
    assert inner == {"P": 1}
    assert outer == {"P": 2}


def test_meter_lists_spent_keys_in_query_key_order():
    o = build_oracles(Params(n=9, r=2, ell=2, s=2, variant="bloated"), SEED)
    o.sample_bloat(np.random.default_rng(1))
    y, v = BitVec(2, 1), BitVec(9, 0)
    with metered() as spent:
        o.dual_check_bloated(1, y, v)
        o.coset_check(y, v)
        o.dual_support(2, y)
        o.decode(y, v)
        o.encode(BitVec(9, 3))
        o.hash_bits(BitVec(9, 5))  # never counted
    assert list(spent) == list(QUERY_KEYS)
    assert set(spent.values()) == {1}
    with metered() as spent:
        o.decode(y, v)
        o.dual_check(1, y, v)
        o.decode(y, v)
    assert list(spent.items()) == [("Pinv", 2), ("D", 1)]  # zero keys absent


def test_coset_cache_is_bounded_and_re_derives_evicted_cosets():
    o = build_oracles(Params(n=16, r=11, ell=2, perm_mode="feistel"), SEED)
    cache = o.cosets.derive_cache
    first = o.cosets.derive(0)
    for y in range(1, COSET_CACHE_SIZE + 5):
        o.cosets.derive(y)
    info = cache.cache_info()
    assert info.currsize == COSET_CACHE_SIZE
    assert (info.hits, info.misses) == (0, COSET_CACHE_SIZE + 5)
    again = o.cosets.derive(0)  # evicted long ago, so derived afresh
    assert cache.cache_info().misses == COSET_CACHE_SIZE + 6
    assert again == first and again is not first
    assert o.cosets.derive(0) is again
    assert_decoder_of(cache(0)[1], again[0])  # the decoder came back with it


# -- bloated dual -------------------------------------------------------


def test_bloat_widens_every_level(rng):
    o = build_oracles(Params(n=9, r=2, ell=2, s=2, variant="bloated"), SEED)
    o.sample_bloat(rng)
    for yv in (0, 3):
        y = BitVec(2, yv)
        for j in range(1, 4):
            thin = o.dual_support(j, y)
            wide = o.bloated_support(j, y)
            assert thin.is_subspace_of(wide)
            assert wide.dim == 2 + 2 + j - 1  # r + s + j - 1


def test_bloat_check_agrees_with_support(rng):
    o = build_oracles(Params(n=9, r=2, ell=2, s=2, variant="bloated"), SEED)
    o.sample_bloat(rng)
    y = BitVec(2, 1)
    for j in range(1, 4):
        members = set(o.bloated_support(j, y).element_ints())
        hits = sum(
            o.dual_check_bloated(j, y, BitVec(9, vv)) for vv in range(0, 512, 5)
        )
        assert hits == sum(vv in members for vv in range(0, 512, 5))


def widened_duals_reference(o, sub_seed, y):
    """The widened dual levels for y, computed directly from the recipe:
    replay the bloat stream for y, widen the generator to
    A [[I, 0], [M', M]], drop columns l+1..l+s and take a fresh left
    kernel at every level."""
    p = o.params
    d = p.n - p.r - p.ell
    stream = SeededStream(sub_seed, b"bloat", y.bits.to_bytes((p.r + 7) // 8, "big"))
    m_prime = stream.matrix(d, p.ell)
    m = stream.matrix(d, d)
    while m.rank() < d:
        m = stream.matrix(d, d)
    gen, _ = o.coset_of(y)
    upper = BitMatrix.identity(p.ell).hstack(BitMatrix.zeros(p.ell, d))
    wide = gen @ upper.vstack(m_prime.hstack(m))
    tail = wide.col_range(p.ell + p.s + 1, p.n - p.r)
    levels = []
    for j in range(1, p.ell + 2):
        kept = wide.col_range(j, p.ell).hstack(tail)
        levels.append(kept.left_kernel() if kept.cols else Subspace.full(p.n))
    return levels


@pytest.mark.parametrize("shape", [(9, 2, 2, 2), (8, 2, 2, 4)])
def test_bloat_oracle_matches_the_widened_matrix_recipe(shape):
    n, r, ell, s = shape
    o = build_oracles(Params(n=n, r=r, ell=ell, s=s, variant="bloated"), SEED)
    o.sample_bloat(np.random.default_rng(5))
    sub_seed = np.random.default_rng(5).bytes(32)
    for yv in range(1 << r):
        y = BitVec(r, yv)
        for j, expect in enumerate(widened_duals_reference(o, sub_seed, y), start=1):
            assert o.bloated_support(j, y) == expect
            accepted = [w for w in range(1 << n) if o.dual_check_bloated(j, y, BitVec(n, w))]
            assert accepted == sorted(expect.element_ints())
            assert expect.dim == r + s + j - 1
    levels = (ell + 1) << r
    assert o.query_counts()["Dprime"] == levels * (1 + (1 << n))


def test_bloat_requires_sampling_and_room(rng):
    o = build_oracles(Params(n=9, r=2, ell=2, s=2, variant="bloated"), SEED)
    with pytest.raises(RuntimeError):
        o.bloated_support(1, BitVec(2, 0))
    o.sample_bloat(rng)
    for width in (1, 5):  # y must have r = 2 bits
        with pytest.raises(ValueError):
            o.bloated_support(1, BitVec(width, 1))
    with pytest.raises(ValueError, match="^bloat needs n - r - l >= s$"):
        Params(n=6, r=2, ell=2, s=3, variant="bloated")
    with pytest.raises(ValueError, match="^bloat needs variant 'bloated'$"):
        build_oracles(Params(n=9, r=2, ell=2, s=2), SEED).sample_bloat(rng)


def test_a_fresh_bloat_chain_and_a_generator_solve_transpose_nothing(rng, monkeypatch):
    """The bloat stream's M' and M are drawn by columns, and the widened
    chain, rank and solve read only columns."""
    calls = []
    real = gf2._transpose_words
    monkeypatch.setattr(
        gf2, "_transpose_words", lambda words, width: calls.append(width) or real(words, width)
    )
    o = build_oracles(Params(n=64, r=32, ell=16, s=8, variant="bloated", perm_mode="feistel"), SEED)
    o.sample_bloat(rng)
    y = BitVec(32, 0x9E3779B9)
    assert o.bloated_support(1, y).dim == 32 + 8
    gen, _ = o.coset_of(y)
    w = BitVec(32, 0x2545F491)
    assert gen.solve(gen.matvec(w)) == w
    assert calls == []


# -- variants -----------------------------------------------------------


def test_incompressible_shift_bit_forced():
    o = build_oracles(Params(n=8, r=3, ell=2, variant="incompressible"), SEED)
    for yv in range(8):
        _, shift = o.coset_of(BitVec(3, yv))
        assert shift.bit(2) == 1  # bit l is pinned to 1


def test_original_variant_has_unstructured_generator():
    o = build_oracles(Params(n=8, r=3, ell=0, variant="original"), SEED)
    gen, _ = o.coset_of(BitVec(3, 0))
    assert gen.cols == 5 and gen.rank() == 5
    # no identity block is imposed; decode still inverts encode
    for xv in range(0, 256, 11):
        x = BitVec(8, xv)
        assert o.decode(*o.encode(x)) == x


@settings(max_examples=60)
@given(
    st.sampled_from(["standard", "incompressible", "bloated"]),
    st.sampled_from(["table", "feistel"]),
    st.data(),
)
def test_every_generator_has_the_unit_rows_on_top(variant, perm_mode, data):
    """Rows 1..l of every generator are [I_l | 0], so message bit j is
    coordinate j of a coset point: both signers' measurements rely on it."""
    n = data.draw(st.integers(2, 12 if perm_mode == "table" else 64))
    r = data.draw(st.integers(1, n - 1))
    ell = data.draw(st.integers(1, n - r))
    assume(variant != "bloated" or n - r - ell >= 1)  # a bloated world needs 1 <= s <= n - r - l
    s = data.draw(st.integers(1, n - r - ell)) if variant == "bloated" else 0
    params = Params(n=n, r=r, ell=ell, s=s, variant=variant, perm_mode=perm_mode)
    o = build_oracles(params, data.draw(st.binary(min_size=32, max_size=32)))
    gen, _ = o.coset_of(BitVec(r, data.draw(st.integers(0, (1 << r) - 1))))
    assert list(gen.row_words[:ell]) == [1 << (n - r - i) for i in range(1, ell + 1)]


@settings(max_examples=30)
@given(st.integers(0, 7), st.integers(0, 7))
def test_coset_derivation_is_pure(y1, y2):
    o1 = small_world()
    o2 = small_world()
    assert o1.coset_of(BitVec(3, y1)) == o2.coset_of(BitVec(3, y1))
    g1, s1 = o1.coset_of(BitVec(3, y1))
    g2, s2 = o1.coset_of(BitVec(3, y2))
    if y1 != y2:
        assert (g1, s1) != (g2, s2)  # distinct y get distinct cosets here
