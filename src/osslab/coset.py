"""Symbolic coset-state backend.

Instead of 2^n amplitudes, a key state is carried as the data that
determines it exactly: the coset (generator matrix and shift), how many
message bits have been pinned so far, the pinned prefix, and one global
phase.  Each signing iteration halves the support and multiplies the
phase by (i - 1)/sqrt(2); eight iterations make that factor wrap to 1.

Every world's generator has [I_l | 0] on top, so pinning message bit j
pins coordinate j of the coset point, and the final measurement draws
the free coefficients uniformly.  Key states are built by
scheme.key_state; this module supplies the walk and the measurement.

This backend handles any world size the oracles support, and it can be
lowered to a dense statevector (small n) for cross-checking.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .gf2 import BitMatrix, BitVec
from .qsim import StateVector

__all__ = [
    "CosetState",
    "STEP_PHASE",
    "grover_step",
    "sign_with_coset",
    "enumerate_support",
    "to_statevector",
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


def grover_step(st: CosetState, step: int, m: BitVec) -> CosetState:
    """One signing iteration: pin message bit ``step`` and rotate the phase.

    Valid only in order (step = matched + 1) and when the message agrees
    with the bits already pinned.
    """
    if step != st.matched + 1:
        raise ValueError(f"steps must be taken in order; expected {st.matched + 1}, got {step}")
    if m.n < step:
        raise ValueError("message too short for this step")
    if m.bits >> (m.n - st.matched) != st.prefix.bits:
        raise ValueError("message disagrees with already pinned bits")
    prefix = BitVec(step, m.bits >> (m.n - step))
    return CosetState(st.y, st.gen, st.shift, step, prefix, st.phase * STEP_PHASE)


def sign_with_coset(st: CosetState, m: BitVec, rng) -> BitVec:
    """Walk a fresh key state over the l = len(m) bits of m and sample.

    The walk ends on every coset point whose coefficients 1..l read m + shift,
    which depends on m and the coset alone, so no walk state is built and
    the measurement draws the remaining coefficients uniformly.
    """
    if st.matched != 0:
        raise ValueError("signing must start from a fresh key state")
    gen, shift = st.gen, st.shift.bits
    free = gen.cols - m.n
    pinned = m.bits ^ (shift >> (st.n - m.n))  # m + the shift's first l bits
    coeffs = (pinned << free) | BitVec.random(rng, free).bits
    return BitVec(st.n, gen.matvec(BitVec(gen.cols, coeffs)).bits ^ shift)


def _support_span(st: CosetState) -> tuple[BitMatrix, int]:
    """The free columns and the pinned start whose span is st's support:
    every coset point matching the pinned prefix is start + ColSpan(free)."""
    free = st.gen.cols - st.matched
    if free > _ENUM_LIMIT:
        raise ValueError(f"support enumeration capped at 2^{_ENUM_LIMIT} points")
    pinned = st.prefix ^ st.shift.prefix(st.matched)
    start = st.gen.matvec(pinned.concat(BitVec.zeros(free))).bits ^ st.shift.bits
    return st.gen.col_range(st.matched + 1, st.gen.cols), start


def enumerate_support(st: CosetState) -> list[BitVec]:
    """All coset points matching the pinned prefix, sorted ascending."""
    cols, start = _support_span(st)
    return [BitVec(st.n, w) for w in sorted(cols.span_ints(start))]


def to_statevector(st: CosetState) -> StateVector:
    """Lower to a dense state (small n only), including the global phase.

    The support is scattered straight from span_array, in doubling order."""
    cols, start = _support_span(st)
    return StateVector.from_support(st.n, cols.span_array(start), weight=st.phase)
