"""Dense statevector simulation of the signing walk.

Basis states are indexed by the packed value of an n-bit string, bit 1
most significant, which makes every "first j bits match" predicate a
contiguous index range.  Amplitudes live in a numpy complex128 array of
length 2^n; operations mutate the array in place and return the state
for chaining.

The dense signer itself never leaves the key's coset: a CosetAmplitudes
holds one amplitude per coset point, 2^(n-r) in all, and each walk step
is a phase and an average on that array.  The key itself is drawn and
built by scheme (draw_key, key_state, which calls coset_amplitudes); this
module supplies the walk and the final draw.  The full-register functions
(generate_keypair_state, coset_state, phase_prefix, phase_dual, measure)
stay as the reference that the acceptance batteries check both signers
against.  Their transform, walsh_hadamard, runs its butterfly passes in
shuffle (Stockham) order between the state and one scratch buffer of
the same size; it gives the same bits as the in-place radix-2 form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix, BitVec
from .oracles import OracleSet

__all__ = [
    "StateVector",
    "CosetAmplitudes",
    "coset_state",
    "coset_amplitudes",
    "generate_keypair_state",
    "phase_prefix",
    "phase_dual",
    "walsh_hadamard",
    "walk_step",
    "sign_with_amplitudes",
    "measure",
    "MAX_QUBITS",
]

MAX_QUBITS = 24
_NORM_TOL = 1e-8


class StateVector:
    """Mutable register of n qubits as a dense amplitude array."""

    def __init__(self, n: int, amp: np.ndarray | None = None) -> None:
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"statevector supports 1 <= n <= {MAX_QUBITS}, got {n}")
        self.n = n
        if amp is None:
            amp = np.zeros(1 << n, dtype=np.complex128)
            amp[0] = 1.0
        else:
            amp = np.asarray(amp, dtype=np.complex128)
            if amp.shape != (1 << n,):
                raise ValueError("amplitude array has wrong length")
        self.amp = amp

    @classmethod
    def from_support(cls, n: int, indices, weight: complex = 1.0) -> "StateVector":
        """Uniform superposition over the given basis indices, scaled by
        a phase/weight factor of modulus 1.

        ``indices`` is any integer sequence or array, taken as is.
        Refuses an empty support, indices of a non-integer dtype (floats
        or a bool mask), a weight of modulus other than 1, an index
        outside [0, 2^n) and a repeated index.
        """
        state = cls(n)  # refuses n outside [1, MAX_QUBITS] before allocating
        amp = state.amp
        amp[0] = 0.0
        idx = np.asarray(indices)
        if idx.size == 0:  # checked first: np.asarray([]) is a float array
            raise ValueError("support must be non-empty")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"support indices must be integers, got dtype {idx.dtype}")
        if abs(abs(weight) - 1.0) > _NORM_TOL:
            raise ValueError(f"support weight must be nonzero and of modulus 1, got {weight!r}")
        if idx.min() < 0 or idx.max() >= amp.shape[0]:
            raise ValueError(f"support index outside [0, 2^{n})")
        amp[idx] = weight / np.sqrt(idx.size)
        if np.count_nonzero(amp) != idx.size:
            raise ValueError("support repeats an index")
        return state

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp) ** 2)))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amp.copy())


@dataclass(frozen=True)
class CosetAmplitudes:
    """A state supported on the coset b_y + ColSpan(A_y), in coset
    coordinates: ``amp[w]`` is the amplitude of ``points[w]``.

    ``points`` lists the coset in span_ints' doubling order, so bit c - 1
    of w is the coefficient of generator column c.  ``amp`` has 2^(n-r)
    entries and is mutated in place by walk_step.
    """

    y: BitVec
    gen: BitMatrix
    shift: BitVec
    points: np.ndarray
    amp: np.ndarray


def coset_state(o: OracleSet, y: BitVec) -> StateVector:
    """Uniform superposition over the shifted coset b_y + ColSpan(A_y)."""
    gen, shift = o.coset_of(y)
    return StateVector.from_support(o.params.n, gen.span_ints(shift.bits))


def coset_amplitudes(o: OracleSet, y: BitVec) -> CosetAmplitudes:
    """coset_state for y, held in coset coordinates."""
    gen, shift = o.coset_of(y)
    points = np.array(gen.span_ints(shift.bits), dtype=np.uint64)  # 64-bit worlds fit
    amp = np.full(points.shape[0], 1.0 / math.sqrt(points.shape[0]), dtype=np.complex128)
    return CosetAmplitudes(y, gen, shift, points, amp)


def generate_keypair_state(o: OracleSet, rng) -> tuple[BitVec, StateVector]:
    """Reference key generation on the full register: scheme's key draw
    and dense key state, scattered onto all 2^n basis states.

    The measurement short-circuit draws y directly; the leftover register
    is the uniform superposition over the shifted coset for that y.  No
    oracle queries are consumed.
    """
    from .scheme import draw_key, key_state  # scheme builds on this module

    state = StateVector(o.params.n)  # refuses n > MAX_QUBITS before the draw
    key = key_state(o, "statevector", draw_key(o, rng))
    state.amp[0] = 0.0
    state.amp[key.points] = key.amp
    return key.y, state


def walsh_hadamard(state: StateVector) -> StateVector:
    """Normalized Walsh-Hadamard transform on all n qubits, in place.

    Self-inverse.  n butterfly passes in shuffle (Stockham) order: each
    pass reads the even and odd entries of one buffer and writes their
    sum to the first half of the other and their difference to the
    second, so the current lowest index bit moves to the top.  Pass k
    therefore pairs original bit k with the same operands as the radix-2
    pass of stride 2^k, and the result equals the radix-2 butterfly bit
    for bit.  The passes ping-pong between ``state.amp`` and one scratch
    buffer of the same size, local to the call (256 MB beside a 256 MB
    state at MAX_QUBITS); the final scale writes into ``state.amp``.
    """
    a = state.amp
    size = a.shape[0]
    half = size // 2
    src, dst = a, np.empty_like(a)
    for _ in range(size.bit_length() - 1):
        pairs = src.reshape(half, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=dst[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=dst[half:])
        src, dst = dst, src
    np.multiply(src, 1.0 / np.sqrt(size), out=a)
    return state


def phase_prefix(state: StateVector, step: int, m: BitVec) -> StateVector:
    """Phase oracle for the message prefix: multiply by i every basis
    state whose first ``step`` bits equal the first ``step`` bits of m."""
    if not 1 <= step <= m.n:
        raise ValueError("step must satisfy 1 <= step <= len(m)")
    if m.n > state.n:
        raise ValueError("message longer than register")
    block = state.n - step
    start = m.prefix(step).bits << block
    state.amp[start : start + (1 << block)] *= 1j
    return state


def phase_dual(state: StateVector, step: int, y: BitVec, o: OracleSet) -> StateVector:
    """Conjugated dual-check phase: transform, multiply the accepted set
    of the level-``step`` dual oracle by i, transform back.

    The accepted set is pulled once via dual_support, i.e. one logical
    dual query applied in superposition.
    """
    sup = o.dual_support(step, y)
    idx = np.asarray(sup.element_ints(), dtype=np.int64)
    walsh_hadamard(state)
    state.amp[idx] *= 1j
    walsh_hadamard(state)
    return state


def walk_step(st: CosetAmplitudes, step: int, m: BitVec) -> CosetAmplitudes:
    """phase_prefix then phase_dual at level ``step``, in coset coordinates.

    The top l rows of the generator are [I_l | 0], so bit c <= l of a
    coset point is w_c + shift_c: the prefix phase marks the entries whose
    first ``step`` columns read m + shift.  Conjugating a phase i on the
    level-``step`` dual S by transforms gives psi + (i - 1) avg_{S-perp} psi,
    and S-perp is the span of columns step..n-r: an average over those
    coefficients of w.
    """
    if not 1 <= step <= m.n:
        raise ValueError("step must satisfy 1 <= step <= len(m)")
    pinned = (m.bits >> (m.n - step)) ^ (st.shift.bits >> (st.gen.rows - step))
    low = int(f"{pinned:0{step}b}"[::-1], 2)  # column c is bit c - 1 of w
    st.amp.reshape(-1, 1 << step)[:, low] *= 1j
    rows = st.amp.reshape(-1, 1 << (step - 1))
    rows += rows.sum(axis=0) * ((1j - 1.0) / rows.shape[0])
    return st


def sign_with_amplitudes(st: CosetAmplitudes, m: BitVec, rng) -> BitVec:
    """Run the l = len(m) walk steps on the key state and measure.

    The measurement draws once from the Born distribution over the coset
    in ascending point order, which is measure's distribution on the full
    register with its zero entries dropped: the same signature for the
    same rng.  The caller's state is consumed.
    """
    for step in range(1, m.n + 1):
        walk_step(st, step, m)
    probs = np.abs(st.amp) ** 2
    norm = math.sqrt(probs.sum())
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
    order = np.argsort(st.points)
    probs = probs[order]
    probs /= probs.sum()
    idx = int(rng.choice(probs.shape[0], p=probs))
    return BitVec(st.gen.rows, int(st.points[order[idx]]))


def measure(state: StateVector, rng) -> BitVec:
    """Sample a basis state from the Born distribution and collapse."""
    norm = state.norm()
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
    probs = np.abs(state.amp) ** 2
    probs /= probs.sum()
    idx = int(rng.choice(probs.shape[0], p=probs))
    state.amp[:] = 0.0
    state.amp[idx] = 1.0
    return BitVec(state.n, idx)
