"""Bit-packed linear algebra over Z2.

A vector is one Python int, and a matrix is its columns, one int each;
a matrix built from rows is transposed once, as it is built.  One tagged
column elimination (ColumnDecoder) serves solve, rank and the decoders
of derived cosets.  Public indices are 1-based and bit 1 is the most
significant bit of the packed word: the bit string "10110" packs to
0b10110 and serializes to hex "16".  All containers are immutable;
operations return fresh objects.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "BitVec",
    "BitMatrix",
    "ColumnDecoder",
    "Subspace",
    "chain_from_top",
    "sample_full_column_rank",
    "span_arrays",
    "split_columns",
    "split_draws",
    "widened_normals",
    "widened_top",
    "xor_span_ints",
]


def _mask(width: int) -> int:
    return (1 << width) - 1


def _parity(x: int) -> int:
    return x.bit_count() & 1


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def split_draws(data: bytes, k: int) -> list[int]:
    """The k-bit draws (k >= 1) packed back to back in ``data``, each the
    top k bits of its own ceil(k/8) bytes read big-endian, as one
    ``SeededStream.bits`` call reads a draw.  Draws wider than a byte are
    cut from one int of all the bytes."""
    nbytes = (k + 7) // 8
    drop = 8 * nbytes - k
    if nbytes == 1:
        return [b >> drop for b in data]
    stride = 8 * nbytes
    whole = int.from_bytes(data, "big")
    mask = _mask(k)
    return [(whole >> s) & mask for s in range(8 * len(data) - stride + drop, drop - 1, -stride)]


def split_columns(data: bytes, k: int) -> list[int]:
    """The k columns of the matrix whose rows are ``split_draws(data, k)``,
    each packed with row 1 the most significant bit.

    In the bit text of data (behind a 0x01 byte that keeps its leading
    zeros) column j is the slice from j - 1 at the row stride, so each
    column is parsed from its slice and nothing is transposed.  With
    k >= 1, data must hold at least one draw.
    """
    stride = 8 * ((k + 7) // 8)
    text = bin(int.from_bytes(b"\x01" + data, "big"))[3:]
    return [int(text[j::stride], 2) for j in range(k)]


@dataclass(frozen=True, slots=True)
class BitVec:
    """Immutable bit vector of fixed length ``n`` with 1-based indexing."""

    n: int
    bits: int = 0

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 0:
            raise ValueError("negative length")
        if not 0 <= bits < (1 << n):
            raise ValueError(f"value 0x{bits:x} does not fit in {n} bits")
        _set_n(self, n)
        _set_bits(self, bits)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        """Build from an iterable of 0/1 values, index 1 first."""
        value = 0
        count = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value = (value << 1) | b
            count += 1
        return cls(count, value)

    @classmethod
    def from_str(cls, s: str) -> "BitVec":
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def from_hex(cls, s: str, n: int) -> "BitVec":
        """Exactly ceil(n/4) ASCII hex digits; int() would also take signs,
        spaces, underscores and non-ASCII digits."""
        digits = (n + 3) // 4
        if len(s) != digits or not _HEX_DIGITS.issuperset(s):
            raise ValueError(f"expected {digits} hex digits for {n} bits, got {s!r}")
        return cls(n, int(s, 16) if digits else 0)

    @classmethod
    def random(cls, rng, n: int) -> "BitVec":
        """n uniform bits from a numpy Generator: the top n bits of
        ``rng.bytes(ceil(n/8))`` read big-endian.  n = 0 draws nothing.

        Those bytes are built as ``Generator.bytes`` builds them, from
        ceil(n/32) uint32 draws written little-endian, joined and truncated,
        but each word is drawn as a scalar ``rng.integers(0, 2^32)``, which
        consumes the generator alike and skips the array round trip."""
        if n == 0:
            return cls(0, 0)
        nbytes = (n + 7) // 8
        words = [int(rng.integers(0, 1 << 32)).to_bytes(4, "little") for _ in range((nbytes + 3) // 4)]
        data = b"".join(words)
        return cls(n, int.from_bytes(data[:nbytes], "big") >> (8 * nbytes - n))

    # -- access ---------------------------------------------------------

    def bit(self, i: int) -> int:
        """Bit at 1-based index ``i`` (bit 1 is the most significant)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"bit index {i} out of range [1, {self.n}]")
        return (self.bits >> (self.n - i)) & 1

    def with_bit(self, i: int, value: int) -> "BitVec":
        if not 1 <= i <= self.n:
            raise IndexError(f"bit index {i} out of range [1, {self.n}]")
        pos = self.n - i
        cleared = self.bits & ~(1 << pos)
        return BitVec(self.n, cleared | ((value & 1) << pos))

    def sub(self, j: int, k: int) -> "BitVec":
        """Bits ``j..k`` inclusive (1-based).  ``k = j - 1`` gives the empty vector."""
        if not (1 <= j <= self.n + 1 and j - 1 <= k <= self.n):
            raise IndexError(f"range [{j}, {k}] invalid for length {self.n}")
        width = k - j + 1
        return BitVec(width, (self.bits >> (self.n - k)) & _mask(width)) if width else BitVec(0, 0)

    def prefix(self, k: int) -> "BitVec":
        return self.sub(1, k)

    def concat(self, other: "BitVec") -> "BitVec":
        return BitVec(self.n + other.n, (self.bits << other.n) | other.bits)

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch in xor")
        return BitVec(self.n, self.bits ^ other.bits)

    def bit_list(self) -> list[int]:
        return [self.bit(i) for i in range(1, self.n + 1)]

    def to_hex(self) -> str:
        digits = (self.n + 3) // 4
        return format(self.bits, f"0{digits}x") if digits else ""

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bit_list())


# Each slot's own setter fills a new frozen object without the name lookup
# that object.__setattr__, and so a generated frozen __init__, makes per
# field: vectors, trusted matrices and subspaces are built on every derive,
# kernel and chain level.
_set_n, _set_bits = (vars(BitVec)[name].__set__ for name in BitVec.__slots__)


class BitMatrix:
    """Immutable matrix over Z2, stored as its packed columns.

    ``col_words`` packs column j into one int over ``rows`` bits, row 1
    the most significant.  The public constructor takes packed rows, each
    an int over ``cols`` bits with column 1 the most significant, and
    transposes them once; ``_from_columns`` takes columns and transposes
    nothing.  ``row_words`` transposes the columns back on each read, and
    only ``repr``, ``str``, ``row`` and ``transpose`` read it: every other
    method, the elimination that ``solve``, ``rank`` and ``ColumnDecoder``
    share included, reads columns.  Equality, hashing and pickling go by
    ``(rows, cols, col_words)``.
    """

    __slots__ = ("rows", "cols", "col_words")

    def __init__(self, rows: int, cols: int, row_words: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        if len(row_words) != rows:
            raise ValueError("row count mismatch")
        limit = 1 << cols
        for w in row_words:
            if not 0 <= w < limit:
                raise ValueError("row does not fit column count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "col_words", tuple(_transpose_words(row_words, cols)))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return BitMatrix._from_columns, (self.rows, self.cols, self.col_words)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BitMatrix:
            return NotImplemented
        return (self.rows, self.cols, self.col_words) == (other.rows, other.cols, other.col_words)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.col_words))

    def __repr__(self) -> str:
        return f"BitMatrix(rows={self.rows!r}, cols={self.cols!r}, row_words={self.row_words!r})"

    @property
    def row_words(self) -> tuple[int, ...]:
        """Row i packed over ``cols`` bits, column 1 the most significant."""
        return tuple(_transpose_words(self.col_words, self.rows))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_columns(cls, rows: int, cols: int, col_words: tuple[int, ...]) -> "BitMatrix":
        """The matrix whose column j is ``col_words[j - 1]``, packed over
        ``rows`` bits.  Unlike the public constructor it does not check
        that the words fit: its callers build them to."""
        obj = object.__new__(cls)
        _set_rows(obj, rows)
        _set_cols(obj, cols)
        _set_col_words(obj, col_words)
        return obj

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        return cls._from_columns(rows, cols, (0,) * cols)

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls._from_columns(k, k, tuple(1 << (k - 1 - i) for i in range(k)))

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec]) -> "BitMatrix":
        if not rows:
            raise ValueError("from_rows needs at least one row; use zeros for empty")
        cols = rows[0].n
        if any(r.n != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, tuple(r.bits for r in rows))

    # -- access ---------------------------------------------------------

    def row(self, i: int) -> BitVec:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} out of range [1, {self.rows}]")
        return BitVec(self.cols, self.row_words[i - 1])

    def columns(self) -> list[BitVec]:
        return [BitVec(self.rows, w) for w in self.col_words]

    def span_ints(self, shift: int) -> list[int]:
        """Every point of shift + ColSpan(M) as packed ints, in the
        doubling order of xor_span_ints over the columns, column 1 first."""
        return xor_span_ints(self.col_words, shift)

    def span_array(self, shift: int) -> np.ndarray:
        """span_ints as a uint64 array: the same points in the same
        order, doubled in numpy, each column XORed into a copy of the
        points listed so far.  Refuses more than 64 rows."""
        if self.rows > 64:
            raise ValueError(f"a uint64 span holds at most 64 rows, not {self.rows}")
        basis = np.array(self.col_words, dtype=np.uint64).reshape(1, self.cols)
        return span_arrays(basis, shift)[0]

    def col_range(self, j: int, k: int) -> "BitMatrix":
        """Columns ``j..k`` inclusive (1-based); ``k = j - 1`` is the empty slice."""
        if not (1 <= j <= self.cols + 1 and j - 1 <= k <= self.cols):
            raise IndexError(f"column range [{j}, {k}] invalid for {self.cols} columns")
        return BitMatrix._from_columns(self.rows, k - j + 1, self.col_words[j - 1 : k])

    # -- algebra --------------------------------------------------------

    def matvec(self, v: BitVec) -> BitVec:
        """M @ v for a length-``cols`` vector, giving length ``rows``: the
        XOR of the columns that v selects."""
        if v.n != self.cols:
            raise ValueError(f"matvec length mismatch: {v.n} != {self.cols}")
        acc = 0
        sel = v.bits
        for c in reversed(self.col_words):
            if sel & 1:
                acc ^= c
            sel >>= 1
        return BitVec(self.rows, acc)

    def rmatvec(self, v: BitVec) -> BitVec:
        """v^T @ M for a length-``rows`` vector, giving length ``cols``:
        one parity per column."""
        if v.n != self.rows:
            raise ValueError(f"rmatvec length mismatch: {v.n} != {self.rows}")
        out = 0
        for c in self.col_words:
            out = (out << 1) | _parity(c & v.bits)
        return BitVec(self.cols, out)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        """Column j of the product is the XOR of the columns of self that
        column j of other selects."""
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        cols = self.col_words[::-1]
        out = []
        for sel in other.col_words:
            acc = 0
            for c in cols:
                if sel & 1:
                    acc ^= c
                sel >>= 1
            out.append(acc)
        return BitMatrix._from_columns(self.rows, other.cols, tuple(out))

    def transpose(self) -> "BitMatrix":
        return BitMatrix._from_columns(self.cols, self.rows, self.row_words)

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        cols = self.cols + other.cols
        return BitMatrix._from_columns(self.rows, cols, self.col_words + other.col_words)

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        below = other.rows
        return BitMatrix._from_columns(
            self.rows + below,
            self.cols,
            tuple((a << below) | b for a, b in zip(self.col_words, other.col_words)),
        )

    def rank(self) -> int:
        """The number of columns the column echelon keeps."""
        return self.cols - len(ColumnDecoder._echelon(self)[1])

    def solve(self, target: BitVec) -> Optional[BitVec]:
        """A solution x of ``M @ x = target``, or None when none exists.

        The solution is a canonical function of (M, target): it is 0 on
        every column that depends on the columns before it, the columns
        the column echelon skips, and so unique.
        """
        if target.n != self.rows:
            raise ValueError("solve target length mismatch")
        x = ColumnDecoder._echelon(self)[0].solve_word(target.bits)
        return None if x is None else BitVec(self.cols, x)

    def left_kernel(self) -> "Subspace":
        """The space {v : v^T M = 0} as a canonical subspace of Z2^rows."""
        return Subspace._trusted(self.rows, _kernel_of_words(self.col_words, self.rows))

    def dual_chain(self, ell: int) -> tuple["Subspace", ...]:
        """The nested left kernels S_1 <= ... <= S_{ell+1}, where S_j is
        {v : v^T M^{(j..cols)} = 0} for columns j..cols of M.

        One left_kernel gives the top level; each lower level cuts the
        one above by the hyperplane orthogonal to column j, which
        intersect_hyperplane keeps canonical, so nothing is row-reduced
        again.  With ell = cols the top level has no columns left and is
        the full space.
        """
        if not 0 <= ell <= self.cols:
            raise ValueError(f"dual_chain needs 0 <= ell <= {self.cols}, got {ell}")
        top = self.col_range(ell + 1, self.cols).left_kernel()
        return chain_from_top(top, [BitVec(self.rows, w) for w in self.col_words[:ell]])

    # -- serialization --------------------------------------------------

    def __str__(self) -> str:
        return "\n".join(str(BitVec(self.cols, w)) for w in self.row_words)


_set_rows, _set_cols, _set_col_words = (vars(BitMatrix)[name].__set__ for name in BitMatrix.__slots__)


def span_arrays(basis: np.ndarray, shifts) -> np.ndarray:
    """The shifted span of each row of ``basis``, a (spans, dim) uint64
    array, as a (spans, 2^dim) one, doubled in numpy: entry i is the
    row's shift XOR the basis words at the set bits of i, span_ints'
    order.  ``shifts`` is one word or one per row."""
    spans, dim = basis.shape
    out = np.empty((spans, 1 << dim), dtype=np.uint64)
    out[:, 0] = shifts
    for i in range(dim):
        np.bitwise_xor(out[:, : 1 << i], basis[:, i, None], out=out[:, 1 << i : 2 << i])
    return out


def _transpose_words(words: Sequence[int], width: int) -> list[int]:
    """Columns of the matrix with packed rows ``words`` and ``width``
    columns, as packed ints, column 1 first.

    One pass packs the rows, first to last, into one int behind a
    leading 1, so its binary text holds every row at full width; column j
    is then the strided slice of that text from offset j - 1, parsed back
    in a single call.
    """
    if not words or not width:
        return [0] * width
    packed = 1
    for w in words:
        packed = (packed << width) | w
    text = bin(packed)[3:]
    return [int(text[j::width], 2) for j in range(width)]


def _kernel_of_words(words: Iterable[int], width: int) -> tuple[int, ...]:
    """Canonical basis of {x in Z2^width : w . x = 0 for every w in words}.

    One Gauss-Jordan elimination pivots each row on its lowest set bit,
    so every pivot appears in one row only.  The kernel then has one
    vector per free coordinate f, e_f plus e_pivot(p) for each row p with
    bit f set; every such pivot lies below f, so f leads its vector and
    no vector holds another's free bit.  In descending order of f that is
    the RREF basis _rref_words would give, and each vector is gathered
    straight from the rows, visiting the free coordinates only.
    """
    rows: dict[int, int] = {}  # lowest set bit -> row
    for w in words:
        for p, row in rows.items():
            if w & p:
                w ^= row
        if w:
            p = w & -w
            for q, row in rows.items():
                if row & p:
                    rows[q] = row ^ w
            rows[p] = w
    free = _mask(width) ^ sum(rows)  # the keys are distinct powers of two
    basis = []
    while free:
        f = 1 << (free.bit_length() - 1)
        free ^= f
        v = f
        for p, row in rows.items():
            if row & f:
                v |= p
        basis.append(v)
    return tuple(basis)


def _reduce_word(w: int, basis: dict[int, int]) -> int:
    while w:
        b = basis.get(w.bit_length() - 1)
        if b is None:
            break
        w ^= b
    return w


def _rref_words(words: Iterable[int]) -> list[int]:
    """Reduced row echelon form of packed rows; zero rows dropped.

    Rows come back sorted so pivot columns ascend, which makes the result
    a canonical representative of the row space.
    """
    basis: dict[int, int] = {}
    for w in words:
        w = _reduce_word(w, basis)
        if w:
            basis[w.bit_length() - 1] = w
    # Back-substitute so every pivot column appears in exactly one row.
    for p in sorted(basis):
        for q in basis:
            if q > p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return [basis[p] for p in sorted(basis, reverse=True)]


def _check_width(ambient: int, basis: tuple[int, ...]) -> None:
    """Refuse an RREF basis whose lead row is wider than ``ambient``."""
    if basis and basis[0] >> ambient:
        raise ValueError("ambient mismatch")


@dataclass(frozen=True, slots=True)
class Subspace:
    """Linear subspace of Z2^ambient in canonical (RREF) basis form.

    Two subspaces are equal as sets iff their dataclass fields compare
    equal, because the constructor always reduces the generating set to
    the unique RREF basis, and the dataclass hashes those same fields.
    """

    ambient: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(_rref_words(self.basis)) != self.basis:
            raise ValueError("basis is not in canonical form; use from_words")
        _check_width(self.ambient, self.basis)

    @classmethod
    def _trusted(cls, ambient: int, basis: tuple[int, ...]) -> "Subspace":
        """Wrap a basis already known to be canonical, skipping the
        validating row reduction of the public constructor."""
        obj = object.__new__(cls)
        _set_ambient(obj, ambient)
        _set_basis(obj, basis)
        return obj

    @classmethod
    def from_words(cls, ambient: int, words: Iterable[int]) -> "Subspace":
        basis = tuple(_rref_words(words))
        _check_width(ambient, basis)
        return cls._trusted(ambient, basis)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls._trusted(ambient, tuple(1 << i for i in reversed(range(ambient))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_word(self, w: int) -> bool:
        basis = {b.bit_length() - 1: b for b in self.basis}
        return _reduce_word(w, basis) == 0

    def contains(self, v: BitVec) -> bool:
        if v.n != self.ambient:
            raise ValueError("ambient mismatch")
        return self.contains_word(v.bits)

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(other.contains_word(b) for b in self.basis)

    def extend(self, vectors: Iterable[BitVec]) -> "Subspace":
        """The span of this subspace and ``vectors``, grown one vector at
        a time without a row reduction.

        A vector is reduced by each row whose pivot bit it holds; as no
        row has a bit in another row's pivot column, one pass clears every
        pivot column.  A nonzero remainder leads at a new pivot below the
        lead of every row holding that bit, so clearing it from those rows
        keeps their pivots, and inserting it among the rows in descending
        order keeps the basis in RREF.
        """
        basis = list(self.basis)
        for v in vectors:
            if v.n != self.ambient:
                raise ValueError("ambient mismatch")
            w = v.bits
            for b in basis:
                if w >> (b.bit_length() - 1) & 1:
                    w ^= b
            if not w:
                continue
            lead = 1 << (w.bit_length() - 1)
            basis = [b ^ w if b & lead else b for b in basis]
            # rows lead at distinct bits, so descending words are descending pivots
            at = 0
            while at < len(basis) and basis[at] > w:
                at += 1
            basis.insert(at, w)
        if len(basis) == len(self.basis):
            return self
        return Subspace._trusted(self.ambient, tuple(basis))

    def element_ints(self) -> list[int]:
        """All 2^dim elements as packed ints (doubling order)."""
        return xor_span_ints(self.basis)

    def intersect_hyperplane(self, normal: BitVec) -> "Subspace":
        """Intersection with {v : v . normal = 0}, canonical without a
        row reduction.

        The odd rows (those with v . normal = 1) are cleared by the odd
        row of lowest pivot, the last one in the basis.  That row has no bits above its pivot and
        none in other pivot columns, so every other row keeps its pivot,
        stays clear of the remaining pivot columns and keeps its place:
        the result is again in RREF.
        """
        if normal.n != self.ambient:
            raise ValueError("ambient mismatch")
        nb = normal.bits
        basis = self.basis
        k = len(basis)
        while k:
            k -= 1
            if (basis[k] & nb).bit_count() & 1:
                break
        else:
            return self
        lead = basis[k]
        cut = [b ^ lead if (b & nb).bit_count() & 1 else b for b in basis[:k]]
        return Subspace._trusted(self.ambient, tuple(cut) + basis[k + 1 :])


_set_ambient, _set_basis = (vars(Subspace)[name].__set__ for name in Subspace.__slots__)


def chain_from_top(top: Subspace, normals: Sequence[BitVec]) -> tuple[Subspace, ...]:
    """The chain S_1 <= ... <= S_{l+1} with S_{l+1} = top and
    S_j = S_{j+1} cut by the hyperplane orthogonal to normals[j - 1].

    Cuts run from the top down; intersect_hyperplane keeps each level
    canonical, so no level is row-reduced.
    """
    level = top
    chain = [level]
    for normal in reversed(normals):
        level = level.intersect_hyperplane(normal)
        chain.append(level)
    chain.reverse()
    return tuple(chain)


def widened_top(gen: BitMatrix, ell: int, kept: BitMatrix) -> Subspace:
    """Top level of the widened dual chain of gen [[I_l, 0], [M', M]]:
    the left kernel of gen's tail columns l+1.. times ``kept``, the
    columns of M that survive the dropped middle.  With no column kept
    it is the full space."""
    return (gen.col_range(ell + 1, gen.cols) @ kept).left_kernel()


def widened_normals(gen: BitMatrix, ell: int, m_prime: BitMatrix) -> list[BitVec]:
    """Cut normals of the widened dual chain: columns 1..l of
    gen [[I_l], [M']], i.e. gen's column j plus its tail times column j
    of M'."""
    return (gen @ BitMatrix.identity(ell).vstack(m_prime)).columns()


def xor_span_ints(generators: Sequence[int], shift: int = 0) -> list[int]:
    """All XOR combinations of ``generators`` offset by ``shift``.

    Enumerates by doubling: each generator appends the XOR of itself with
    every point listed so far, so entry i combines the generators at the
    set bits of i.  With k linearly independent generators the result has
    2^k distinct entries; dependent generators produce repeats.
    """
    out = [shift]
    for g in generators:
        out += [x ^ g for x in out]
    return out


class ColumnDecoder:
    """Solver for ``M @ x = target`` over a full-column-rank M, built once.

    The basis is an echelon form of M's columns keyed by leading bit.
    Each entry packs a column combination and its tag, the set of M's
    columns it sums, into one int ``(column << k) | tag`` with k = cols
    and column j tagged by bit k - j, its place in x.  Solving shifts the
    target left by k and clears its leading bits with the basis; once no
    bit at or above k is left, the tag bits are x.  A lead with no basis
    entry means the target is outside the column span.

    Columns enter one at a time, and a column that reduces to no lead at
    or above k depends on those before it.  ``_echelon`` runs that loop
    over any matrix and skips such columns, so ``BitMatrix.solve`` and
    ``rank`` read the same elimination that ``ColumnDecoder(m)`` refuses
    a rank deficit from.  The same test, with tags in admission order
    (``_admit``), is the rank check of ``sample_full_column_rank``, and a
    derived coset's decoder is the one its draw of ``C`` fills: ``_seeded``
    with the identity-headed columns, then ``_admit`` over the candidates.
    """

    __slots__ = ("_basis", "_width")

    def __init__(self, m: BitMatrix) -> None:
        skipped = self._eliminate(m)
        if skipped:
            raise ValueError(
                f"column {skipped[0]} depends on earlier columns: not full column rank"
            )

    @classmethod
    def _echelon(cls, m: BitMatrix) -> tuple["ColumnDecoder", list[int]]:
        """m's decoder, whatever its rank, and the columns it skipped."""
        obj = object.__new__(cls)
        return obj, obj._eliminate(m)

    def _eliminate(self, m: BitMatrix) -> list[int]:
        """Fill the basis with m's columns, column j tagged by bit k - j
        whether or not an earlier column was skipped, and return the
        skipped columns, 1-based.  Tags name kept columns only, so a
        solution is 0 on every skipped column."""
        k = self._width = m.cols
        basis = self._basis = {}
        skipped = []
        tag = 1 << k
        for j, col in enumerate(m.col_words, 1):
            tag >>= 1
            w = _reduce_word((col << k) | tag, basis)
            if w >> k:
                basis[w.bit_length() - 1] = w
            else:
                skipped.append(j)
        return skipped

    @classmethod
    def _seeded(cls, width: int, basis: dict[int, int]) -> "ColumnDecoder":
        """The decoder of ``width`` columns whose first ones are already
        eliminated into ``basis``, which it takes over: the i-th column as
        ``(column << width) | tag`` with tag bit width - i, keyed by its
        leading bit.  Columns whose leading bits strictly descend reduce
        against none before them, so they enter as they are."""
        obj = object.__new__(cls)
        obj._width = width
        obj._basis = basis
        return obj

    def _admit(self, cands: Iterable[int]) -> list[int]:
        """Admit each candidate in turn as the next column if it is
        independent of the columns admitted so far; return those admitted.
        No more may be offered than the decoder has columns left."""
        k = self._width
        basis = self._basis
        get = basis.get
        tag = (1 << k) >> (len(basis) + 1)  # 0 on a full decoder, offered nothing
        kept = []
        for col in cands:
            # every entry leads at or above k, so the reduction stops on the
            # tag bit at the latest
            w = (col << k) | tag
            while (b := get(w.bit_length() - 1)) is not None:
                w ^= b
            if w >> k:
                basis[w.bit_length() - 1] = w
                kept.append(col)
                tag >>= 1
        return kept

    def solve_word(self, target: int) -> Optional[int]:
        """The x with ``M @ x = target`` as a packed int, or None if none exists."""
        k = self._width
        get = self._basis.get
        x = target << k
        top = 1 << k
        while x >= top:
            b = get(x.bit_length() - 1)
            if b is None:
                return None
            x ^= b
        return x


def _draw_columns(stream, rows: int, count: int, decoder: ColumnDecoder) -> list[int]:
    """The ``count`` candidates that ``decoder`` admits, each one
    ``stream.bits(rows)`` draw, redrawn while it depends on the columns
    admitted before it.

    The candidates still needed come in one read: a candidate fills at
    most one column, so the one-at-a-time loop examines at least that
    many more, and the stream is left exactly where that loop leaves it.
    """
    kept: list[int] = []
    nbytes = (rows + 7) // 8
    while len(kept) < count:
        kept += decoder._admit(split_draws(stream.read((count - len(kept)) * nbytes), rows))
    return kept


def sample_full_column_rank(stream, rows: int, cols: int) -> BitMatrix:
    """Uniform matrix with linearly independent columns.

    Columns are drawn one at a time and redrawn whenever the candidate
    falls inside the span of the columns already kept, which induces the
    uniform distribution on full-column-rank matrices.

    ``stream`` is a byte stream with ``read`` (a SeededStream), and each
    candidate is one ``stream.bits(rows)`` draw, read in bulk by
    ``_draw_columns``.
    """
    if cols > rows:
        raise ValueError("cannot have more independent columns than rows")
    kept = _draw_columns(stream, rows, cols, ColumnDecoder._seeded(cols, {}))
    return BitMatrix._from_columns(rows, cols, tuple(kept))
