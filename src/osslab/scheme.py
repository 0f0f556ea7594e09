"""Signature scheme layer: keys, one-shot signing, verification.

This module owns the key path on both backends.  draw_key measures the
hash register (a uniform y) and key_state writes down the key state for
y on the chosen backend; generate, the CLI's test tokens and the
full-register reference keygen (qsim.generate_keypair_state) all go
through these two.  sign spends the walk's l D queries on the key's y; the
backends supply only the walk and final draw (qsim.sign_with_amplitudes,
coset.sign_with_coset).

A secret key is consumable.  Signing atomically claims it before doing
any work; a second sign attempt on the same key object raises
OneShotViolation.  There is no way to copy a live key.  sign takes a key
whole, so every live key is fresh, and a second key for the same y is the
rebuild SecretKey(backend, key_state(o, backend, y)), which the CLI makes
for every key token.

sign and verify serve every world that can sign.  An incompressible
world takes (l-1)-bit messages, signs m || 0, and verifies with a single
coset-membership query instead of the Pinv query; message_bits and
check_signable state that rule once.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Union

from . import coset as _coset
from . import qsim as _qsim
from .gf2 import BitVec
from .oracles import OracleSet, Params

__all__ = [
    "BACKENDS",
    "OneShotViolation",
    "PublicKey",
    "SecretKey",
    "Signature",
    "draw_key",
    "key_state",
    "generate",
    "message_bits",
    "check_signable",
    "sign",
    "verify",
    "extract_collision",
    "rom_hash",
    "hs_sign",
    "hs_verify",
]

BACKENDS = ("statevector", "symbolic")

KeyState = Union[_qsim.CosetAmplitudes, _coset.CosetState]


class OneShotViolation(RuntimeError):
    """Raised when a consumed secret key is used again."""


@dataclass(frozen=True)
class PublicKey:
    y: BitVec
    params: Params
    seed: bytes

    def to_json(self) -> dict:
        return {
            "y": self.y.to_hex(),
            "world": {"params": self.params.to_json(), "seed": self.seed.hex()},
        }

    def matches(self, o: OracleSet) -> bool:
        # generate hands the key the world's own Params; a key read back
        # from JSON holds an equal copy, compared field by field.
        return (self.params is o.params or self.params == o.params) and self.seed == o.seed


@dataclass(frozen=True)
class Signature:
    sigma: BitVec

    def to_json(self) -> dict:
        return {"sigma": self.sigma.to_hex(), "n": self.sigma.n}

    @classmethod
    def from_json(cls, obj: dict) -> "Signature":
        return cls(sigma=BitVec.from_hex(obj["sigma"], obj["n"]))


class SecretKey:
    """One-shot handle on a key state for one of the two backends."""

    def __init__(self, backend: str, state: KeyState) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self._state = state
        self._consumed = False
        self._lock = threading.Lock()

    @property
    def consumed(self) -> bool:
        return self._consumed

    def _claim(self) -> KeyState:
        with self._lock:
            if self._consumed:
                raise OneShotViolation("secret key already consumed")
            self._consumed = True
            state, self._state = self._state, None
        return state


def _check_world(o: OracleSet, pk: PublicKey) -> None:
    if not pk.matches(o):
        raise ValueError("public key belongs to a different world")


def draw_key(o: OracleSet, rng) -> BitVec:
    """Measure the hash register by the short-circuit: a uniform r-bit y.

    Measuring the hash register of a uniform input register yields a
    uniform y, since every y has exactly 2^(n-r) preimages.
    """
    r = o.params.r
    return BitVec(r, int(rng.integers(0, 1 << r)))


def key_state(o: OracleSet, backend: str, y: BitVec) -> KeyState:
    """The register left behind once the hash register reads y: the
    uniform superposition over y's coset with nothing pinned, on
    ``backend``.  No oracle queries."""
    if backend == "statevector":
        width = o.params.n - o.params.r  # 2^width amplitudes
        if width > _qsim.MAX_QUBITS:
            raise ValueError(f"statevector keys allow n - r <= {_qsim.MAX_QUBITS}, got {width}")
        if o.params.n > 64:  # its points are held as uint64
            raise ValueError(f"statevector keys allow n <= 64, got {o.params.n}")
        return _qsim.coset_amplitudes(o, y)
    if backend == "symbolic":
        gen, shift = o.coset_of(y)
        return _coset.CosetState(y=y, gen=gen, shift=shift)
    raise ValueError(f"unknown backend {backend!r}")


def generate(o: OracleSet, backend: str, rng) -> tuple[PublicKey, SecretKey]:
    """Generate a keypair.  The measurement short-circuit means no oracle
    queries are spent here on either backend."""
    if o.params.variant == "original":
        raise ValueError("unstructured worlds cannot generate signing keys")
    y = draw_key(o, rng)
    sk = SecretKey(backend, key_state(o, backend, y))
    return PublicKey(y=y, params=o.params, seed=o.seed), sk


def message_bits(params: Params) -> int:
    """Width of the messages sign and verify take: l - 1 on an
    incompressible world, whose walk pins m || 0, and l on any other."""
    return params.ell - 1 if params.variant == "incompressible" else params.ell


def check_signable(params: Params, m: BitVec) -> None:
    """Refuse a world that cannot sign and a message of the wrong width.
    sign and verify (and so hs_sign and hs_verify) run this first."""
    if params.variant == "original":
        raise ValueError("unstructured worlds cannot sign")
    width = message_bits(params)
    if m.n != width:
        rule = "l - 1 on an incompressible world, else l"
        raise ValueError(f"message must have {width} bits ({rule}), got {m.n}")


def _pinned(params: Params, m: BitVec) -> int:
    """The l bits the signing walk pins for m, as an int: m || 0 on an
    incompressible world, m on any other."""
    return m.bits << 1 if params.variant == "incompressible" else m.bits


def sign(o: OracleSet, pk: PublicKey, sk: SecretKey, m: BitVec, rng) -> Signature:
    """Consume sk and sign m (message_bits wide).  Exactly l dual queries."""
    check_signable(o.params, m)
    _check_world(o, pk)
    state = sk._claim()
    o.spend_walk(state.y)
    if m.n != o.params.ell:  # an incompressible world pins m || 0
        m = BitVec(o.params.ell, _pinned(o.params, m))
    if sk.backend == "statevector":
        sigma = _qsim.sign_with_amplitudes(state, m, rng)
    else:
        sigma = _coset.sign_with_coset(state, m, rng)
    return Signature(sigma=sigma)


def verify(o: OracleSet, pk: PublicKey, m: BitVec, sig: Signature) -> bool:
    """Accept iff the signature starts with the pinned bits of m and lies
    in pk's coset.

    The coset clause is one Pinv query that reads only whether sigma
    decodes, so the permutation is never inverted; on an incompressible
    world it is one membership query instead: there the valid signatures are
    exactly shift + (nonzero column-span point), because the forced shift
    bit rules the all-zero combination out.  Both clauses are always
    evaluated, so the cost is the same whatever the outcome.  Refuses
    what sign refuses.
    """
    p = o.params
    check_signable(p, m)
    _check_world(o, pk)
    if sig.sigma.n != p.n:
        raise ValueError("signature must have n bits")
    if p.variant == "incompressible":
        found = o.coset_check(pk.y, sig.sigma) == 1
    else:
        found = o.decodes(pk.y, sig.sigma)
    prefix_ok = sig.sigma.bits >> (p.n - p.ell) == _pinned(p, m)
    return prefix_ok and found


def extract_collision(
    o: OracleSet,
    pk: PublicKey,
    first: tuple[BitVec, Signature],
    second: tuple[BitVec, Signature],
) -> tuple[BitVec, BitVec]:
    """Turn two distinct valid message/signature pairs under one public
    key into a hash collision.

    Distinct valid pairs force distinct signatures (equal signatures pin
    equal message prefixes), and decoding two distinct coset points gives
    two distinct permutation preimages with the same hash value y.
    """
    m0, s0 = first
    m1, s1 = second
    if (m0, s0.sigma) == (m1, s1.sigma):
        raise ValueError("pairs must be distinct")
    if not verify(o, pk, m0, s0):
        raise ValueError("first pair does not verify")
    if not verify(o, pk, m1, s1):
        raise ValueError("second pair does not verify")
    x0 = o.decode(pk.y, s0.sigma)
    x1 = o.decode(pk.y, s1.sigma)
    assert x0 is not None and x1 is not None  # both pairs just verified
    return x0, x1


# -- hash-and-sign wrapper ---------------------------------------------


def rom_hash(seed: bytes, msg: bytes, out_bits: int) -> BitVec:
    """Keyed random-oracle stand-in: SHAKE-256 over (seed, "rom", msg),
    truncated to the first out_bits bits."""
    h = hashlib.shake_256()
    h.update(len(seed).to_bytes(2, "big") + seed + b"rom")
    h.update(msg)  # fed on its own, so a long message is not copied
    data = h.digest((out_bits + 7) // 8)
    value = int.from_bytes(data, "big") >> (8 * len(data) - out_bits) if out_bits else 0
    return BitVec(out_bits, value)


def hs_sign(o: OracleSet, pk: PublicKey, sk: SecretKey, msg: bytes, rng) -> Signature:
    """Sign an arbitrary byte string by signing its l-bit oracle digest.
    The width rule refuses it on an incompressible world."""
    return sign(o, pk, sk, rom_hash(o.seed, msg, o.params.ell), rng)


def hs_verify(o: OracleSet, pk: PublicKey, msg: bytes, sig: Signature) -> bool:
    return verify(o, pk, rom_hash(o.seed, msg, o.params.ell), sig)
