"""osslab: a classical laboratory for one-shot signatures.

A *world* is a pair (parameters, 32-byte seed) that determines a keyed
permutation and a family of shifted GF(2) cosets.  Everyone with the
seed can evaluate the oracles; the scheme layer on top restricts itself
to oracle queries only, so query counts mean something.

Quick start::

    from osslab import BitVec, Params, build_oracles, generate, sign, verify
    import numpy as np, os

    o = build_oracles(Params(n=8, r=3, ell=2), os.urandom(32))
    rng = np.random.default_rng()
    pk, sk = generate(o, "symbolic", rng)
    sig = sign(o, pk, sk, m=BitVec.from_str("10"), rng=rng)
    assert verify(o, pk, BitVec.from_str("10"), sig)

Signing a second time with the same ``sk`` raises OneShotViolation.
"""

from .gf2 import BitMatrix, BitVec, Subspace
from .oracles import OracleSet, Params, SeededStream, build_oracles, metered
from .scheme import (
    BACKENDS,
    OneShotViolation,
    PublicKey,
    SecretKey,
    Signature,
    extract_collision,
    generate,
    hs_sign,
    hs_verify,
    rom_hash,
    sign,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BitVec",
    "BitMatrix",
    "Subspace",
    "Params",
    "SeededStream",
    "OracleSet",
    "build_oracles",
    "metered",
    "BACKENDS",
    "OneShotViolation",
    "PublicKey",
    "SecretKey",
    "Signature",
    "generate",
    "sign",
    "verify",
    "extract_collision",
    "rom_hash",
    "hs_sign",
    "hs_verify",
]
