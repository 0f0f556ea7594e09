"""Bit-packed GF(2) linear algebra: worked examples plus properties."""

import copy
import functools
import itertools
import operator
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osslab import gf2
from osslab.gf2 import (
    BitMatrix,
    BitVec,
    ColumnDecoder,
    Subspace,
    _rref_words,
    sample_full_column_rank,
    split_draws,
    xor_span_ints,
)
from osslab.oracles import SeededStream


def bitvecs(n):
    return st.integers(0, (1 << n) - 1).map(lambda b: BitVec(n, b))


def matrices(rows, cols):
    return st.tuples(*([st.integers(0, (1 << cols) - 1)] * rows)).map(
        lambda rws: BitMatrix(rows, cols, rws)
    )


# -- vectors ------------------------------------------------------------


def test_bitvec_basics():
    v = BitVec.from_str("10110")
    assert len(v) == 5
    assert str(v) == "10110"
    assert [v.bit(i) for i in range(1, 6)] == [1, 0, 1, 1, 0]
    assert v.sub(2, 4) == BitVec.from_str("011")
    assert v.sub(3, 2) == BitVec(0, 0)  # empty slice
    assert v.prefix(2) == BitVec.from_str("10")
    assert v.concat(BitVec.from_str("01")) == BitVec.from_str("1011001")
    assert v ^ BitVec.from_str("11111") == BitVec.from_str("01001")


def test_bitvec_checks_its_width_and_stays_frozen():
    refused = [(-1, 0, "negative length"), (2, 4, "0x4 does not fit in 2 bits"), (2, -1, "does not fit")]
    for n, bits, message in refused:
        with pytest.raises(ValueError, match=message):
            BitVec(n, bits)
    v = BitVec(n=5, bits=3)
    assert (v.n, v.bits) == (5, 3) and BitVec(3) == BitVec(3, 0)
    assert replace(v, bits=4) == BitVec(5, 4)
    assert pickle.loads(pickle.dumps(v)) == v and hash(v) == hash(BitVec(5, 3))
    with pytest.raises(FrozenInstanceError):
        v.bits = 1


def test_bitvec_bit_one_is_most_significant():
    v = BitVec(4, 0b1000)
    assert v.bit(1) == 1 and v.bit(4) == 0
    assert v.with_bit(4, 1) == BitVec(4, 0b1001)
    with pytest.raises(IndexError):
        v.bit(0)
    with pytest.raises(IndexError):
        v.bit(5)


# (seed, n, bits drawn, the generator's next 16 bytes): a draw is the top
# n bits of rng.bytes(ceil(n/8)), and n = 0 leaves the generator untouched
RANDOM_GOLDEN = [
    (0, 0, 0x0, "5f82c2d9cfeb0fa321d7d982f8bd1045"),
    (0, 1, 0x0, "cfeb0fa321d7d982f8bd1045b8e8cd4e"),
    (0, 7, 0x2F, "cfeb0fa321d7d982f8bd1045b8e8cd4e"),
    (0, 8, 0x5F, "cfeb0fa321d7d982f8bd1045b8e8cd4e"),
    (0, 9, 0xBF, "cfeb0fa321d7d982f8bd1045b8e8cd4e"),
    (0, 63, 0x2FC1616CE7F587D1, "21d7d982f8bd1045b8e8cd4ea93d7d0a"),
    (0, 64, 0x5F82C2D9CFEB0FA3, "21d7d982f8bd1045b8e8cd4ea93d7d0a"),
    (1, 0, 0x0, "ffe42279f3bd068366a852c1bb9651f3"),
    (1, 1, 0x1, "f3bd068366a852c1bb9651f3cd18ec08"),
    (1, 7, 0x7F, "f3bd068366a852c1bb9651f3cd18ec08"),
    (1, 9, 0x1FF, "f3bd068366a852c1bb9651f3cd18ec08"),
    (1, 64, 0xFFE42279F3BD0683, "66a852c1bb9651f3cd18ec08f6a4e724"),
]


@pytest.mark.parametrize("seed, n, bits, after", RANDOM_GOLDEN)
def test_bitvec_random_draws_pinned_bits(seed, n, bits, after):
    rng = np.random.default_rng(seed)
    assert BitVec.random(rng, n) == BitVec(n, bits)
    assert rng.bytes(16).hex() == after


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_bitvec_random_reads_what_generator_bytes_reads(bit_generator):
    """Every width draws the bits, and leaves the generator, exactly where
    numpy's own ``rng.bytes(ceil(n/8))`` on a twin generator does; n = 0
    draws nothing (numpy's ``bytes(0)`` would spend a word)."""
    rng = np.random.Generator(bit_generator(2024))
    ref = np.random.Generator(bit_generator(2024))
    assert BitVec.random(rng, 0) == BitVec(0, 0)
    assert rng.bytes(16) == ref.bytes(16)
    for n in range(1, 131):
        data = ref.bytes((n + 7) // 8)
        assert BitVec.random(rng, n) == BitVec(n, split_draws(data, n)[0]), n
        assert rng.bytes(16) == ref.bytes(16), n


def test_bitvec_hex_round_trip():
    v = BitVec.from_str("101100011")  # 9 bits -> 3 hex digits
    assert v.to_hex() == "163"
    assert BitVec.from_hex("163", 9) == v
    assert BitVec(0, 0).to_hex() == ""
    with pytest.raises(ValueError):
        BitVec.from_hex("f2", 9)  # wrong digit count
    with pytest.raises(ValueError):
        BitVec.from_hex("400", 9)  # value exceeds 9 bits


@given(bitvecs(11))
def test_bitvec_bits_round_trip(v):
    assert BitVec.from_bits(v.bit_list()) == v
    assert BitVec.from_hex(v.to_hex(), 11) == v


@pytest.mark.parametrize("text, n", [(" 1", 5), ("+1", 5), ("1_0", 12), ("\u0663\u0663", 8)])
def test_from_hex_takes_only_ascii_hex_digits(text, n):
    # int(text, 16) reads each of these, the last (Arabic-Indic 33) as 0x33
    with pytest.raises(ValueError, match="hex digits"):
        BitVec.from_hex(text, n)
    assert BitVec.from_hex("Af", 8) == BitVec.from_hex("af", 8) == BitVec(8, 0xAF)


# -- matrix arithmetic --------------------------------------------------


def test_matvec_worked_example():
    # [[1, 1], [0, 1]] times (1, 1) is (0, 1)
    a = BitMatrix.from_rows([BitVec.from_str("11"), BitVec.from_str("01")])
    assert a.matvec(BitVec.from_str("11")) == BitVec.from_str("01")
    # row vector (1, 0) times the same matrix picks out the first row
    assert a.rmatvec(BitVec.from_str("10")) == BitVec.from_str("11")


def test_solve_worked_examples():
    a = BitMatrix.from_rows([BitVec.from_str("10"), BitVec.from_str("11")])
    assert a.solve(BitVec.from_str("10")) == BitVec.from_str("11")
    # x1 = 1 from the first row contradicts x1 = 0 from the second:
    b = BitMatrix.from_rows([BitVec.from_str("10"), BitVec.from_str("10")])
    assert b.solve(BitVec.from_str("10")) is None
    assert b.solve(BitVec.from_str("11")) == BitVec.from_str("10")


def test_column_decoder_refuses_dependent_columns():
    # columns 1 and 3 are both (1, 0, 1, 1): the rank is 2, not 3
    a = BitMatrix.from_rows([BitVec.from_str(c) for c in ("1011", "0110", "1011")]).transpose()
    with pytest.raises(ValueError, match="column 3 depends on earlier columns"):
        ColumnDecoder(a)
    with pytest.raises(ValueError, match="column 2"):
        ColumnDecoder(BitMatrix.from_rows([BitVec.from_str("0110")] * 2).transpose())
    with pytest.raises(ValueError, match="column 1"):
        ColumnDecoder(BitMatrix.zeros(4, 1))


@given(matrices(5, 4), bitvecs(4), bitvecs(4))
def test_matvec_linearity(a, x, y):
    assert a.matvec(x ^ y) == a.matvec(x) ^ a.matvec(y)


@given(matrices(5, 4), bitvecs(4))
def test_solve_round_trip(a, x):
    target = a.matvec(x)
    w = a.solve(target)
    assert w is not None
    assert a.matvec(w) == target


@given(matrices(6, 5))
def test_rank_nullity(a):
    assert a.rank() + a.transpose().left_kernel().dim == a.cols
    assert a.rank() == a.transpose().rank()


@given(matrices(4, 6))
def test_transpose_involution(a):
    assert a.transpose().transpose() == a
    assert BitMatrix(4, 6, tuple(int(BitVec(6, w).to_hex(), 16) for w in a.row_words)) == a


@given(
    st.integers(1, 70).flatmap(
        lambda cols: st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=70).map(
            lambda rws: BitMatrix(len(rws), cols, tuple(rws))
        )
    )
)
def test_one_pass_transpose_matches_entries(a):
    # transpose and columns both come from one pass over the rows; check
    # each against the per-entry definition
    t = a.transpose()
    cols = a.columns()
    assert (t.rows, t.cols) == (a.cols, a.rows)
    for i in range(1, a.rows + 1):
        for j in range(1, a.cols + 1):
            assert t.row(j).bit(i) == cols[j - 1].bit(i) == a.row(i).bit(j)
    assert BitMatrix.from_rows(cols).transpose() == a
    assert BitMatrix.zeros(0, 3).transpose() == BitMatrix.zeros(3, 0)


def shapes():
    """Matrices of every shape up to 9 x 9, empty ones included."""
    return st.integers(0, 9).flatmap(
        lambda rows: st.integers(0, 9).flatmap(lambda cols: matrices(rows, cols))
    )


def both_orientations(m):
    """Fresh copies of m built from its rows and from its columns, with
    nothing transposed yet."""
    by_rows = BitMatrix(m.rows, m.cols, m.row_words)
    return by_rows, BitMatrix._from_columns(m.rows, m.cols, m.col_words)


def decoder_answers(m):
    """ColumnDecoder's verdict on m: its refusal text, or its solution for
    every target."""
    try:
        decoder = ColumnDecoder(m)
    except ValueError as exc:
        return str(exc)
    return [decoder.solve_word(t) for t in range(1 << m.rows)]


@settings(max_examples=60)
@given(shapes(), st.data())
def test_a_matrix_built_from_columns_is_the_same_matrix(m, data):
    by_rows, by_cols = both_orientations(m)
    assert by_cols == by_rows and by_rows == by_cols
    assert hash(by_cols) == hash(by_rows)
    expect = f"BitMatrix(rows={m.rows}, cols={m.cols}, row_words={m.row_words})"
    assert repr(by_cols) == repr(by_rows) == expect
    for built in both_orientations(m):
        assert pickle.loads(pickle.dumps(built)) == copy.deepcopy(built) == m
        assert m.transpose().transpose() == built.transpose().transpose() == m
        with pytest.raises(FrozenInstanceError):
            built.rows = 1
        with pytest.raises(FrozenInstanceError):
            built.row_words = ()
    x = data.draw(bitvecs(m.cols))
    v = data.draw(bitvecs(m.rows))
    ell = data.draw(st.integers(0, m.cols))
    j = data.draw(st.integers(1, m.cols + 1))
    k = data.draw(st.integers(j - 1, m.cols))
    other = data.draw(st.integers(0, 4).flatmap(lambda c: matrices(m.cols, c)))
    side = data.draw(st.integers(0, 4).flatmap(lambda c: matrices(m.rows, c)))
    below = data.draw(st.integers(0, 4).flatmap(lambda r: matrices(r, m.cols)))
    methods = {
        "matvec": lambda a: a.matvec(x),
        "rmatvec": lambda a: a.rmatvec(v),
        "col_range": lambda a: a.col_range(j, k),
        "columns": lambda a: a.columns(),
        "span_ints": lambda a: a.span_ints(v.bits),
        "left_kernel": lambda a: a.left_kernel(),
        "dual_chain": lambda a: a.dual_chain(ell),
        "transpose": lambda a: a.transpose(),
        "ColumnDecoder": decoder_answers,
        "row": lambda a: [a.row(i) for i in range(1, a.rows + 1)],
        "solve": lambda a: a.solve(v),
        "rank": lambda a: a.rank(),
        "@": lambda a: a @ other,
        "hstack": lambda a: a.hstack(side),
        "vstack": lambda a: a.vstack(below),
        "str": str,
    }
    for name, method in methods.items():
        by_rows, by_cols = both_orientations(m)
        assert method(by_rows) == method(by_cols), name


@given(shapes(), st.data())
def test_matvec_and_rmatvec_match_the_entries(m, data):
    # both read columns; check them against the rows, entry by entry
    x, v = data.draw(bitvecs(m.cols)), data.draw(bitvecs(m.rows))
    rows = [m.row(i) for i in range(1, m.rows + 1)]
    assert m.matvec(x).bit_list() == [
        sum(row.bit(j) & x.bit(j) for j in range(1, m.cols + 1)) % 2 for row in rows
    ]
    assert m.rmatvec(v).bit_list() == [
        sum(v.bit(i) & row.bit(j) for i, row in enumerate(rows, start=1)) % 2
        for j in range(1, m.cols + 1)
    ]


@given(shapes(), st.data())
def test_only_the_row_constructor_transposes(m, data):
    """A matrix built from rows transposes them once, in its constructor;
    after that, as on a matrix built from columns, no method but the row
    readers transposes."""
    row_words = m.row_words
    x, v = data.draw(bitvecs(m.cols)), data.draw(bitvecs(m.rows))
    ell = data.draw(st.integers(0, m.cols))
    j = data.draw(st.integers(1, m.cols + 1))
    k = data.draw(st.integers(j - 1, m.cols))
    other = data.draw(st.integers(0, 4).flatmap(lambda c: matrices(m.cols, c)))
    side = data.draw(st.integers(0, 4).flatmap(lambda c: matrices(m.rows, c)))
    below = data.draw(st.integers(0, 4).flatmap(lambda r: matrices(r, m.cols)))
    methods = {
        "matvec": lambda a: a.matvec(x),
        "rmatvec": lambda a: a.rmatvec(v),
        "col_range": lambda a: a.col_range(j, k),
        "columns": lambda a: a.columns(),
        "span_ints": lambda a: a.span_ints(v.bits),
        "left_kernel": lambda a: a.left_kernel(),
        "dual_chain": lambda a: a.dual_chain(ell),
        "ColumnDecoder": decoder_answers,
        "solve": lambda a: a.solve(v),
        "rank": lambda a: a.rank(),
        "@": lambda a: a @ other,
        "hstack": lambda a: a.hstack(side),
        "vstack": lambda a: a.vstack(below),
        "==": lambda a: a == m,
        "hash": hash,
        "pickle": lambda a: pickle.loads(pickle.dumps(a)),
    }
    # hypothesis refuses function-scoped fixtures such as monkeypatch
    calls = []
    real = gf2._transpose_words

    def counting(words, width):
        calls.append(width)
        return real(words, width)

    gf2._transpose_words = counting
    try:
        by_rows = BitMatrix(m.rows, m.cols, row_words)
        assert calls == [m.cols]
        for built in (by_rows, BitMatrix._from_columns(m.rows, m.cols, m.col_words)):
            for name, method in methods.items():
                calls.clear()
                method(built)
                assert calls == [], name
    finally:
        gf2._transpose_words = real


def brute_span(words):
    """Every XOR of a subset of ``words``, one subset at a time."""
    return {
        functools.reduce(operator.xor, subset, 0)
        for size in range(len(words) + 1)
        for subset in itertools.combinations(words, size)
    }


def sample_matrices(rows, cols, rng):
    """Every rows x cols matrix when there are at most 2^10, else 300
    seeded draws (about 70% of 5 x 5 draws are rank-deficient)."""
    if rows * cols <= 10:
        draws = itertools.product(range(1 << cols), repeat=rows)
    else:
        draws = (tuple(rng.integers(0, 1 << cols, rows).tolist()) for _ in range(300))
    return [BitMatrix(rows, cols, words) for words in draws]


@pytest.mark.parametrize("rows, cols", itertools.product(range(6), repeat=2))
def test_solve_and_rank_match_brute_force(rows, cols):
    """solve answers None exactly off the column span, and otherwise the one
    solution that is 0 on every column in the span of those before it."""
    rng = np.random.default_rng(rows * 6 + cols)
    for m in sample_matrices(rows, cols, rng):
        words = m.col_words
        dependent = 0
        for j in range(cols):
            if words[j] in brute_span(words[:j]):
                dependent |= 1 << (cols - 1 - j)
        images = {}
        for x in range(1 << cols):
            images.setdefault(m.matvec(BitVec(cols, x)).bits, []).append(x)
        assert m.rank() == len(brute_span(words)).bit_length() - 1
        for t in range(1 << rows):
            got = m.solve(BitVec(rows, t))
            if t not in images:
                assert got is None
            else:
                [expect] = [x for x in images[t] if not x & dependent]
                assert got == BitVec(cols, expect)


@given(matrices(5, 5))
def test_rref_idempotent(a):
    r = Subspace.from_words(5, a.row_words)
    assert Subspace(5, r.basis) == Subspace.from_words(5, r.basis) == r
    assert r.dim == a.rank()


@given(st.data())
def test_matmul_by_columns_is_the_row_form_product(data):
    # row i of A @ B is the XOR of the rows of B that row i of A selects
    rows, inner, cols = (data.draw(st.integers(0, 9)) for _ in range(3))
    a, b = data.draw(matrices(rows, inner)), data.draw(matrices(inner, cols))
    expected = []
    for w in a.row_words:
        acc = 0
        for i, o in enumerate(b.row_words):
            if w >> (inner - 1 - i) & 1:
                acc ^= o
        expected.append(acc)
    for left in both_orientations(a):
        for right in both_orientations(b):
            product = left @ right
            assert (product.rows, product.cols, product.row_words) == (rows, cols, tuple(expected))


def test_matmul_identity_and_blocks():
    i3 = BitMatrix.identity(3)
    a = BitMatrix(3, 3, (0b101, 0b011, 0b110))
    assert i3 @ a == a and a @ i3 == a
    stacked = a.vstack(i3)
    assert stacked.rows == 6 and stacked.columns()[1] == a.columns()[1].concat(i3.columns()[1])
    wide = a.hstack(i3)
    assert wide.cols == 6 and wide.row(1) == a.row(1).concat(i3.row(1))


# -- null spaces and spans ----------------------------------------------


def test_null_space_worked_example():
    # x1 + x2 + x3 = 0 and x3 = 0 leaves exactly {000, 110}
    a = BitMatrix.from_rows([BitVec.from_str("111"), BitVec.from_str("001")])
    ns = a.transpose().left_kernel()
    assert ns.dim == 1
    assert sorted(ns.element_ints()) == [0b000, 0b110]


@given(matrices(5, 6))
def test_null_space_members_annihilate(a):
    ns = a.transpose().left_kernel()
    for w in ns.element_ints():
        assert a.matvec(BitVec(6, w)).bits == 0
    assert len(set(ns.element_ints())) == 1 << ns.dim


def _annihilated(width, keep):
    """Every packed vector of Z2^width that ``keep`` accepts, by enumeration."""
    return {x for x in range(1 << width) if keep(BitVec(width, x))}


@settings(max_examples=60)
@given(st.integers(0, 10).flatmap(lambda rows: st.integers(0, 12).flatmap(lambda cols: matrices(rows, cols))))
@example(BitMatrix.zeros(6, 9))
@example(BitMatrix.zeros(10, 0))
@example(BitMatrix(4, 6, (0b100001, 0b010010, 0b001100, 0b000111)))  # full row rank
@example(BitMatrix(4, 6, (0b100001, 0b010010, 0b001100, 0b000111)).transpose())  # full column rank
def test_kernels_equal_brute_force_and_are_canonical(a):
    # the slow reference: the kernels of M and of its transpose both come
    # from left_kernel's one elimination, so each is checked against plain
    # enumeration
    right = _annihilated(a.cols, lambda x: a.matvec(x).bits == 0)
    left = _annihilated(a.rows, lambda v: a.rmatvec(v).bits == 0)
    for sub, ambient, expect in (
        (a.transpose().left_kernel(), a.cols, right),
        (a.left_kernel(), a.rows, left),
    ):
        points = sub.element_ints()
        assert sub.ambient == ambient
        assert len(points) == len(expect) and set(points) == expect
        assert tuple(_rref_words(sub.basis)) == sub.basis


def test_xor_span_affine():
    gens = [0b0011, 0b0101]
    span = xor_span_ints(gens, shift=0b1000)
    assert sorted(span) == sorted({0b1000, 0b1011, 0b1101, 0b1110})


def _xor_all(words):
    out = 0
    for w in words:
        out ^= w
    return out


@given(
    st.lists(st.integers(0, 15), max_size=6),
    st.booleans(),
    st.integers(0, 15),
)
def test_xor_span_is_the_subset_multiset(gens, dependent, shift):
    # 16 words make zero and repeated generators common; ``dependent``
    # also appends the XOR of all the others
    if dependent and len(gens) < 6:
        gens = gens + [_xor_all(gens)]
    by_subset = [
        shift ^ _xor_all(g for k, g in enumerate(gens) if (mask >> k) & 1)
        for mask in range(1 << len(gens))
    ]
    span = xor_span_ints(gens, shift)
    assert Counter(span) == Counter(by_subset)
    # doubling order: entry i combines the generators at the set bits of i
    assert span == by_subset


@given(st.integers(1, 7), st.integers(0, 5), st.data())
def test_span_ints_enumerates_the_shifted_column_span(rows, cols, data):
    # zero columns, dependent and repeated columns all included
    a = data.draw(matrices(rows, cols))
    b = data.draw(bitvecs(rows))
    points = a.span_ints(b.bits)
    brute = [a.matvec(BitVec(cols, w)).bits ^ b.bits for w in range(1 << cols)]
    assert sorted(points) == sorted(brute)
    assert points == xor_span_ints([c.bits for c in a.columns()], b.bits)


def test_span_ints_of_no_columns_is_the_shift():
    assert BitMatrix.zeros(5, 0).span_ints(0b10110) == [0b10110]
    assert BitMatrix.zeros(3, 0).span_ints(0) == [0]


def assert_span_array_is_span_ints(a, shift):
    array = a.span_array(shift)
    assert array.dtype == np.uint64 and array.shape == (1 << a.cols,)
    assert array.tolist() == a.span_ints(shift)  # element by element, in order


@given(st.integers(1, 7), st.integers(0, 5), st.data())
def test_span_array_is_span_ints_as_uint64(rows, cols, data):
    # zero, dependent and repeated columns, and no columns at all
    assert_span_array_is_span_ints(data.draw(matrices(rows, cols)), data.draw(bitvecs(rows)).bits)


@pytest.mark.parametrize("cols", [0, 1, 6])
def test_span_array_holds_64_bit_points(cols):
    # every column, and the first shift, has bit 1 (the uint64's top bit) set
    stream = SeededStream(b"span-array", cols.to_bytes(1, "big"))
    top = 1 << 63
    a = BitMatrix._from_columns(64, cols, tuple(top | stream.bits(64) for _ in range(cols)))
    shift = top | stream.bits(64)
    assert_span_array_is_span_ints(a, shift)
    assert_span_array_is_span_ints(a, 0)


def test_span_array_refuses_more_than_64_rows():
    assert BitMatrix.zeros(64, 1).span_array(0).tolist() == [0, 0]
    with pytest.raises(ValueError, match="64 rows"):
        BitMatrix.zeros(65, 1).span_array(0)
    with pytest.raises(ValueError, match="64 rows"):
        BitMatrix.zeros(65, 0).span_array(1 << 64)


def test_sample_full_column_rank():
    stream = SeededStream(b"full-column-rank")
    for cols in (1, 3, 5):
        m = sample_full_column_rank(stream, 5, cols)
        assert m.rank() == cols


def one_candidate_at_a_time(stream, rows, cols):
    """The columns the draw rule picks, written out: one
    ``stream.bits(rows)`` candidate at a time, kept when it raises the
    rank of the columns kept so far."""
    kept = []
    while len(kept) < cols:
        cand = stream.bits(rows)
        if len(_rref_words(kept + [cand])) > len(kept):
            kept.append(cand)
    return kept


# (6, 6), (8, 8) and (9, 9) reject often; (0, 0) and (5, 0) draw nothing.
DRAW_SHAPES = [(1, 1), (6, 4), (6, 6), (8, 8), (9, 9), (17, 3), (48, 16), (5, 0), (0, 0)]


class PerCandidateGenerator:
    """A numpy Generator read as a byte stream of rows-bit candidates.

    Each candidate is its own ``rng.bytes(ceil(rows/8))`` draw, the draw
    ``BitVec.random`` makes, so a ``read`` that is not whole candidates
    fails: ``Generator.bytes`` drops the unused bytes of its 32-bit draws,
    and a read across candidates would change the generator's later output.
    """

    def __init__(self, rng, rows):
        self.rng = rng
        self.nbytes = (rows + 7) // 8

    def read(self, n):
        count, extra = divmod(n, self.nbytes)
        assert extra == 0, f"read of {n} bytes splits a {self.nbytes}-byte candidate"
        return b"".join(self.rng.bytes(self.nbytes) for _ in range(count))

    def bits(self, k):
        return BitVec.random(self.rng, k).bits


@pytest.mark.parametrize("rows, cols", DRAW_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_sample_full_column_rank_on_a_generator_draws_per_candidate(rows, cols, seed):
    # the sampler reads whole candidates only, so a Generator drawn one
    # candidate at a time yields the columns of the per-candidate rule and
    # ends where BitVec.random, one draw per candidate, leaves its twin
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    m = sample_full_column_rank(PerCandidateGenerator(rng, rows), rows, cols)
    assert (m.rows, m.cols) == (rows, cols)
    assert [c.bits for c in m.columns()] == one_candidate_at_a_time(
        PerCandidateGenerator(twin, rows), rows, cols
    )
    assert rng.bytes(16) == twin.bytes(16)


@pytest.mark.parametrize("rows, cols", DRAW_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_sample_full_column_rank_leaves_a_stream_where_the_replay_does(rows, cols, seed):
    label = (b"draw-rule", bytes([seed, rows, cols]))
    stream, twin = SeededStream(*label), SeededStream(*label)
    stream.read(seed * 17)  # start off a block edge, too
    twin.read(seed * 17)
    m = sample_full_column_rank(stream, rows, cols)
    assert (m.rows, m.cols) == (rows, cols)
    assert [c.bits for c in m.columns()] == one_candidate_at_a_time(twin, rows, cols)
    assert stream.read(16) == twin.read(16)


# -- subspaces ----------------------------------------------------------


def test_subspace_canonical_and_equality():
    s1 = Subspace.from_words(4, [0b1100, 0b0011])
    s2 = Subspace.from_words(4, [0b1111, 0b0011])  # same span, other generators
    assert s1 == s2
    assert s1.contains(BitVec(4, 0b1111))
    assert not s1.contains(BitVec(4, 0b1000))


def test_subspace_count_dimension_by_dimension():
    """Z2^4 has 1 + 15 + 35 + 15 + 1 = 67 subspaces (Gaussian binomials)."""
    seen = set()
    vectors = range(1 << 4)
    for a in vectors:
        for b in vectors:
            for c in vectors:
                seen.add(Subspace.from_words(4, [a, b, c]))
    by_dim = {}
    for s in seen:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 1, 1: 15, 2: 35, 3: 15}
    # dimension 4 needs four generators; add the full space by hand
    assert len(seen) + 1 == 67
    assert Subspace.full(4).dim == 4


@given(matrices(4, 5))
def test_orthogonal_is_an_involution(a):
    # the dual of s is the left kernel of the matrix whose columns are s's
    # basis: {v : v . b = 0 for every basis vector b}
    def dual(sub):
        return BitMatrix(sub.dim, sub.ambient, sub.basis).transpose().left_kernel()

    s = Subspace.from_words(5, a.row_words)
    assert dual(dual(s)) == s
    assert s.dim + dual(s).dim == 5
    assert all(bin(v & b).count("1") % 2 == 0 for v in dual(s).element_ints() for b in s.basis)


@given(matrices(4, 5), bitvecs(5))
def test_intersect_hyperplane_brute_force(a, normal):
    s = Subspace.from_words(5, a.row_words)
    cut = s.intersect_hyperplane(normal)
    expect = {w for w in s.element_ints() if bin(w & normal.bits).count("1") % 2 == 0}
    assert set(cut.element_ints()) == expect
    # the cut skips row reduction, so its basis must already be canonical
    assert cut == Subspace.from_words(5, expect)


def test_public_constructor_rejects_non_canonical_basis():
    with pytest.raises(ValueError):
        Subspace(4, (0b0011, 0b1100))  # pivots ascending: not RREF
    assert Subspace(4, (0b1100, 0b0011)) == Subspace.from_words(4, [0b0011, 0b1111])


def test_subspace_hash_follows_equality():
    public = Subspace(4, (0b1100, 0b0011))
    trusted = Subspace.from_words(4, [0b0011, 0b1111])
    assert hash(public) == hash(trusted) == hash((4, (0b1100, 0b0011)))
    assert public == trusted and {public: 1}[trusted] == 1
    assert repr(public) == "Subspace(ambient=4, basis=(12, 3))"


@given(matrices(6, 4), st.integers(0, 4))
def test_dual_chain_matches_per_level_left_kernels(a, ell):
    chain = a.dual_chain(ell)
    assert len(chain) == ell + 1
    for j, level in enumerate(chain, start=1):
        expect = a.col_range(j, 4).left_kernel() if j <= 4 else Subspace.full(6)
        assert level == expect
        assert tuple(_rref_words(level.basis)) == level.basis
    with pytest.raises(ValueError):
        a.dual_chain(5)


def all_subspaces(ambient):
    """Every subspace of Z2^ambient, grown from {0} one word at a time."""
    found = {Subspace.from_words(ambient, [])}
    frontier = found
    while frontier:
        grown = {Subspace.from_words(ambient, sub.basis + (w,)) for sub in frontier for w in range(1 << ambient)}
        frontier = grown - found
        found |= frontier
    return found


def check_extend(sub, words):
    grown = sub.extend([BitVec(sub.ambient, w) for w in words])
    assert grown == Subspace.from_words(sub.ambient, sub.basis + tuple(words))
    assert Subspace(grown.ambient, grown.basis) == grown  # the validating constructor agrees


@pytest.mark.parametrize("ambient", range(5))
def test_extend_matches_a_row_reduction_exhaustively(ambient):
    subspaces = all_subspaces(ambient)
    assert len(subspaces) == [1, 2, 5, 16, 67][ambient]
    for sub in subspaces:
        for count in range(3):
            # zero, dependent and repeated words among them
            for words in itertools.product(range(1 << ambient), repeat=count):
                check_extend(sub, words)


@st.composite
def extensions(draw):
    ambient = draw(st.integers(5, 20))
    words = st.integers(0, (1 << ambient) - 1)
    sub = Subspace.from_words(ambient, draw(st.lists(words, max_size=ambient)))
    fresh = draw(st.lists(words, max_size=4))
    pool = list(sub.basis) + fresh
    masks = draw(st.lists(st.integers(0, (1 << len(pool)) - 1), max_size=3))
    dependent = [functools.reduce(operator.xor, (p for i, p in enumerate(pool) if m >> i & 1), 0) for m in masks]
    return sub, draw(st.permutations(fresh + dependent + [0]))


@given(extensions())
def test_extend_matches_a_row_reduction(case):
    check_extend(*case)


def test_subspaces_refuse_words_wider_than_their_ambient():
    for call in (
        lambda: Subspace.from_words(4, [0b0011]).extend([BitVec(5, 0b10000)]),
        lambda: Subspace.full(4).extend([BitVec(3, 0b001)]),
        lambda: Subspace.from_words(4, [0b10000]),
        lambda: Subspace(4, (0b10000,)),
    ):
        with pytest.raises(ValueError, match="ambient mismatch"):
            call()


def test_subspace_nesting_and_extension():
    inner = Subspace.from_words(5, [0b10000])
    outer = inner.extend([BitVec(5, 0b01000)])
    assert inner.is_subspace_of(outer)
    assert not outer.is_subspace_of(inner)
    assert outer.dim == 2
