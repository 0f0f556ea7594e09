"""Symbolic coset-state backend.

Instead of 2^n amplitudes, a key state is carried as the data that
determines it exactly: the coset (generator matrix and shift), how many
message bits have been pinned so far, the pinned prefix, and one global
phase.  Each signing iteration halves the support and multiplies the
phase by (i - 1)/sqrt(2); eight iterations make that factor wrap to 1.

This backend handles any world size the oracles support, and it can be
lowered to a dense statevector (small n) for cross-checking.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .gf2 import BitMatrix, BitVec
from .oracles import OracleSet
from .qsim import StateVector

__all__ = [
    "CosetState",
    "STEP_PHASE",
    "generate_keypair_symbolic",
    "grover_step",
    "sign_with_coset",
    "enumerate_support",
    "to_statevector",
    "sample_prefix_member",
]

# Phase factor picked up by one complete signing iteration.
STEP_PHASE = (1j - 1.0) / cmath.sqrt(2.0)

_ENUM_LIMIT = 20


@dataclass(frozen=True)
class CosetState:
    """Uniform superposition over coset points whose first ``matched``
    bits equal ``prefix``, carrying a global ``phase``."""

    y: BitVec
    gen: BitMatrix
    shift: BitVec
    matched: int = 0
    prefix: BitVec = BitVec(0, 0)
    phase: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.prefix.n != self.matched:
            raise ValueError("prefix length must equal matched count")
        if not 0 <= self.matched <= self.gen.cols:
            raise ValueError("matched count out of range")

    @property
    def n(self) -> int:
        return self.gen.rows

    @property
    def support_size(self) -> int:
        return 1 << (self.gen.cols - self.matched)


def generate_keypair_symbolic(o: OracleSet, rng) -> tuple[BitVec, CosetState]:
    """Key generation with the measurement short-circuit: uniform y, then
    the coset state for y with nothing pinned yet."""
    p = o.params
    y = BitVec(p.r, int(rng.integers(0, 1 << p.r)))
    gen, shift = o.coset_of(y)
    return y, CosetState(y=y, gen=gen, shift=shift)


def grover_step(st: CosetState, step: int, m: BitVec) -> CosetState:
    """One signing iteration: pin message bit ``step`` and rotate the phase.

    Valid only in order (step = matched + 1) and when the message agrees
    with the bits already pinned.
    """
    if step != st.matched + 1:
        raise ValueError(f"steps must be taken in order; expected {st.matched + 1}, got {step}")
    if m.n < step:
        raise ValueError("message too short for this step")
    if m.prefix(st.matched) != st.prefix:
        raise ValueError("message disagrees with already pinned bits")
    return replace(
        st,
        matched=step,
        prefix=m.prefix(step),
        phase=st.phase * STEP_PHASE,
    )


def _has_pinned_rows(gen: BitMatrix, count: int) -> bool:
    """True when the first ``count`` rows are the first ``count`` unit rows,
    so coordinate i of any coset point is just input bit i."""
    for i in range(count):
        if gen.row_words[i] != 1 << (gen.cols - 1 - i):
            return False
    return True


def sample_prefix_member(gen: BitMatrix, shift: BitVec, prefix: BitVec, rng) -> BitVec:
    """Uniform coset point whose first bits equal ``prefix``, for any
    generator matrix.

    Solves the prefix rows for one witness, then adds a uniform element
    of their null space.  Raises if no coset point has the prefix, which
    cannot happen for generators with the identity block.
    """
    j = prefix.n
    cols = gen.cols
    if j == 0:
        w = BitVec.random(rng, cols)
        return gen.matvec(w) ^ shift
    top = BitMatrix(j, cols, gen.row_words[:j])
    base = top.solve(prefix ^ shift.prefix(j))
    if base is None:
        raise ValueError("no coset point carries the requested prefix")
    kernel = top.null_space()
    word = base.bits
    for b in kernel.basis:
        if BitVec.random(rng, 1).bits:
            word ^= b
    return gen.matvec(BitVec(cols, word)) ^ shift


def sign_with_coset(o: OracleSet, y: BitVec, st: CosetState, m: BitVec, rng) -> BitVec:
    """Run all l iterations symbolically and sample the final support.

    Each iteration performs one logical dual query, mirroring the dense
    backend: the accepted set is pulled from the oracle and its size is
    checked against the halving argument before the analytic shortcut is
    applied.
    """
    p = o.params
    if m.n != p.ell:
        raise ValueError(f"message must have {p.ell} bits")
    if st.matched != 0:
        raise ValueError("signing must start from a fresh key state")
    for step in range(1, p.ell + 1):
        sup = o.dual_support(step, y)
        if sup.dim != p.r + step - 1:
            raise AssertionError("dual level has unexpected dimension")
        st = grover_step(st, step, m)
    if _has_pinned_rows(st.gen, st.matched):
        pinned = m ^ st.shift.prefix(p.ell)
        free = BitVec.random(rng, st.gen.cols - p.ell)
        w = pinned.concat(free)
        return st.gen.matvec(w) ^ st.shift
    return sample_prefix_member(st.gen, st.shift, st.prefix, rng)


def enumerate_support(st: CosetState) -> list[BitVec]:
    """All coset points matching the pinned prefix, sorted ascending."""
    free = st.gen.cols - st.matched
    if free > _ENUM_LIMIT:
        raise ValueError(f"support enumeration capped at 2^{_ENUM_LIMIT} points")
    if _has_pinned_rows(st.gen, st.matched):
        base = BitVec(st.gen.cols, 0)
        if st.matched:
            pinned = st.prefix ^ st.shift.prefix(st.matched)
            base = pinned.concat(BitVec.zeros(free))
        start = st.gen.matvec(base).bits ^ st.shift.bits
        points = st.gen.col_range(st.matched + 1, st.gen.cols).span_ints(start)
    else:
        everything = st.gen.span_ints(st.shift.bits)
        cut = st.n - st.matched
        want = st.prefix.bits
        points = [w for w in everything if (w >> cut) == want]
    return [BitVec(st.n, w) for w in sorted(points)]


def to_statevector(st: CosetState) -> StateVector:
    """Lower to a dense state (small n only), including the global phase."""
    points = enumerate_support(st)
    return StateVector.from_support(st.n, [p.bits for p in points], weight=st.phase)
