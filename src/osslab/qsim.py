"""Dense statevector simulation of the signing walk.

Basis states are indexed by the packed value of an n-bit string, bit 1
most significant, which makes every "first j bits match" predicate a
contiguous index range.  Amplitudes live in a numpy complex128 array of
length 2^n; operations mutate the array in place and return the state
for chaining.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitVec
from .oracles import OracleSet

__all__ = [
    "StateVector",
    "coset_state",
    "generate_keypair_state",
    "phase_prefix",
    "phase_dual",
    "walsh_hadamard",
    "sign_with_state",
    "measure",
]

_MAX_QUBITS = 24
_NORM_TOL = 1e-8
SQRT2 = float(np.sqrt(2.0))


class StateVector:
    """Mutable register of n qubits as a dense amplitude array."""

    def __init__(self, n: int, amp: np.ndarray | None = None) -> None:
        if not 1 <= n <= _MAX_QUBITS:
            raise ValueError(f"statevector supports 1 <= n <= {_MAX_QUBITS}, got {n}")
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
        a phase/weight factor of modulus 1."""
        amp = np.zeros(1 << n, dtype=np.complex128)
        idx = np.asarray(list(indices), dtype=np.int64)
        amp[idx] = weight / np.sqrt(len(idx))
        return cls(n, amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp) ** 2)))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amp.copy())


def coset_state(o: OracleSet, y: BitVec) -> StateVector:
    """Uniform superposition over the shifted coset b_y + ColSpan(A_y)."""
    gen, shift = o.coset_of(y)
    return StateVector.from_support(o.params.n, gen.span_ints(shift.bits))


def generate_keypair_state(o: OracleSet, rng) -> tuple[BitVec, StateVector]:
    """Run key generation, short-circuiting the measurement.

    Measuring the hash register of a uniform input register yields a
    uniform y (every y has exactly 2^(n-r) preimages), and the leftover
    register is then the uniform superposition over the shifted coset for
    that y.  So: draw y directly, then write the coset state down.  No
    oracle queries are consumed.
    """
    p = o.params
    if p.perm_mode != "table" or p.n > _MAX_QUBITS:
        raise ValueError("statevector backend needs a table world with n <= 24")
    y = BitVec(p.r, int(rng.integers(0, 1 << p.r)))
    return y, coset_state(o, y)


def walsh_hadamard(state: StateVector) -> StateVector:
    """Normalized Walsh-Hadamard transform on all n qubits, in place.

    Self-inverse.  O(n 2^n) butterfly passes over the dense array.
    """
    a = state.amp
    size = a.shape[0]
    h = 1
    while h < size:
        view = a.reshape(size // (2 * h), 2, h)
        top = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] = top - view[:, 1, :]
        h *= 2
    a *= 1.0 / np.sqrt(size)
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


def sign_with_state(o: OracleSet, y: BitVec, state: StateVector, m: BitVec, rng) -> BitVec:
    """Run all l phase-walk iterations on the key state and measure.

    The caller's state is consumed: it is mutated through the walk and
    ends up collapsed onto the measured string.
    """
    ell = o.params.ell
    if m.n != ell:
        raise ValueError(f"message must have {ell} bits")
    for step in range(1, ell + 1):
        phase_prefix(state, step, m)
        phase_dual(state, step, y, o)
    return measure(state, rng)


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
