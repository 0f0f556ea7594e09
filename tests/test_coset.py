"""Symbolic signing backend: the closed-form walk state."""

from dataclasses import fields, replace

import numpy as np
import pytest

from osslab.coset import (
    STEP_PHASE,
    CosetState,
    enumerate_support,
    grover_step,
    sign_with_coset,
    to_statevector,
)
from osslab.gf2 import BitVec, split_draws
from osslab.oracles import Params, build_oracles, metered
from osslab.qsim import StateVector, generate_keypair_state, phase_dual, phase_prefix
from osslab.scheme import draw_key, key_state

SEED = bytes(range(32))


def world(**kw):
    return build_oracles(Params(n=8, r=3, ell=2, **kw), SEED)


def fresh_key(o, rng):
    """A symbolic key state for a freshly drawn y, as keygen builds it."""
    return key_state(o, "symbolic", draw_key(o, rng))


def test_step_phase_has_order_eight():
    assert abs(STEP_PHASE**8 - 1) < 1e-12
    assert all(abs(STEP_PHASE**k - 1) > 0.1 for k in range(1, 8))
    assert abs(abs(STEP_PHASE) - 1) < 1e-12


def test_keypair_support_size(rng):
    o = world()
    st = fresh_key(o, rng)
    assert len(enumerate_support(st)) == 32  # 2^(n-r)
    assert st.matched == 0 and st.phase == 1


def test_grover_step_enforces_order_and_consistency(rng):
    o = world()
    st = fresh_key(o, rng)
    m = BitVec.from_str("10")
    with pytest.raises(ValueError):
        grover_step(st, 2, m)  # steps must be taken in order
    st1 = grover_step(st, 1, m)
    assert st1.matched == 1 and len(enumerate_support(st1)) == 16
    assert abs(st1.phase - STEP_PHASE) < 1e-12
    with pytest.raises(ValueError):
        grover_step(st1, 2, BitVec.from_str("00"))  # contradicts pinned bit


def test_grover_step_refusals(rng):
    o = build_oracles(Params(n=12, r=4, ell=4), SEED)
    m = BitVec(4, 0b1011)
    st = fresh_key(o, rng)
    with pytest.raises(ValueError, match="in order"):
        grover_step(st, 2, m)
    st = grover_step(grover_step(st, 1, m), 2, m)
    with pytest.raises(ValueError, match="in order"):
        grover_step(st, 2, m)  # a repeated step
    with pytest.raises(ValueError, match="too short"):
        grover_step(st, 3, BitVec(2, 0b10))
    for bad in (0b0011, 0b1111, 0b0111):  # flips bit 1, bit 2, both
        with pytest.raises(ValueError, match="disagrees"):
            grover_step(st, 3, BitVec(4, bad))
    # only the pinned bits must agree
    assert grover_step(st, 3, BitVec(4, 0b1000)).prefix == BitVec(3, 0b100)


def test_walk_equals_field_by_field_replaced_states(rng):
    o = build_oracles(Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED)
    m = BitVec(16, 0xB3C5)
    st = ref = fresh_key(o, rng)
    for step in range(1, 17):
        st = grover_step(st, step, m)
        ref = replace(ref, matched=step, prefix=m.prefix(step), phase=ref.phase * STEP_PHASE)
        assert type(st) is CosetState
        for f in fields(CosetState):
            assert getattr(st, f.name) == getattr(ref, f.name), f.name
    assert st.prefix == m and len(enumerate_support(st)) == 1 << 16


def test_full_walk_accumulates_step_phases(rng):
    o = build_oracles(Params(n=10, r=2, ell=8), SEED)
    st = fresh_key(o, rng)
    m = BitVec(8, 0b10110100)
    for step in range(1, 9):
        st = grover_step(st, step, m)
    assert len(enumerate_support(st)) == 1
    assert abs(st.phase - 1) < 1e-12  # STEP_PHASE ** 8


def test_enumerate_support_matches_brute_force(rng):
    o = world()
    y = BitVec(3, 5)
    gen, shift = o.coset_of(y)
    st = CosetState(y=y, gen=gen, shift=shift)
    m = BitVec.from_str("01")
    st = grover_step(st, 1, m)
    pts = [p.bits for p in enumerate_support(st)]
    brute = sorted(
        shift.bits ^ gen.matvec(BitVec(5, w)).bits
        for w in range(32)
        if ((shift.bits ^ gen.matvec(BitVec(5, w)).bits) >> 7) == 0
    )
    assert pts == brute
    assert len(pts) == 16


def test_enumerate_support_refuses_huge_states():
    o = build_oracles(Params(n=32, r=4, ell=2, perm_mode="feistel"), SEED)
    y = BitVec(4, 0)
    gen, shift = o.coset_of(y)
    st = CosetState(y=y, gen=gen, shift=shift)
    with pytest.raises(ValueError):
        enumerate_support(st)


def test_to_statevector_tracks_dense_backend(rng):
    o = world()
    draw = np.random.default_rng(123)
    y, sv = generate_keypair_state(o, np.random.default_rng(99))
    gen, shift = o.coset_of(y)
    st = CosetState(y=y, gen=gen, shift=shift)
    m = BitVec(2, int(draw.integers(0, 4)))
    for step in (1, 2):
        phase_prefix(sv, step, m)
        phase_dual(sv, step, y, o)
        st = grover_step(st, step, m)
        assert np.max(np.abs(to_statevector(st).amp - sv.amp)) < 1e-12


@pytest.mark.parametrize("shape", [(8, 3, 2), (10, 4, 4), (12, 4, 6)])
def test_to_statevector_equals_enumerated_support(shape):
    """The array bridge scatters exactly the state that enumerate_support's
    sorted points give, at every level of the walk."""
    n, r, ell = shape
    o = build_oracles(Params(n=n, r=r, ell=ell, perm_mode="feistel"), SEED)
    rng = np.random.default_rng(n)
    st = fresh_key(o, rng)
    m = BitVec(ell, int(rng.integers(0, 1 << ell)))
    for step in range(ell + 1):
        if step:
            st = grover_step(st, step, m)
        points = [p.bits for p in enumerate_support(st)]
        expect = StateVector.from_support(n, points, weight=st.phase)
        got = to_statevector(st)
        assert st.matched == step
        assert np.array_equal(got.amp.view(np.uint64), expect.amp.view(np.uint64))


def test_sign_with_coset_spends_no_queries(rng):
    """The walk's l dual queries are spent by scheme.sign (see
    test_sign_spends_exactly_l_dual_queries), never by the backend."""
    o = world()
    st = fresh_key(o, rng)
    with metered() as spent:
        sigma = sign_with_coset(st, BitVec.from_str("01"), rng)
    assert spent == {}
    assert sigma.prefix(2) == BitVec.from_str("01")
    assert o.decode(st.y, sigma) is not None
    with pytest.raises(ValueError, match="fresh key state"):
        sign_with_coset(grover_step(st, 1, BitVec.from_str("01")), BitVec.from_str("01"), rng)


def test_sign_with_coset_on_wide_feistel_world(rng):
    o = build_oracles(Params(n=40, r=20, ell=8, perm_mode="feistel"), SEED)
    st = fresh_key(o, rng)
    m = BitVec(8, 0xA5)
    sigma = sign_with_coset(st, m, rng)
    assert sigma.prefix(8) == m
    assert o.decode(st.y, sigma) is not None


def reference_sign(st, m, rng):
    """The signer written out step by step: pin m + the shift's first l bits,
    draw the free coefficients as the top bits of rng.bytes, and map the
    coefficients through the generator."""
    free = st.gen.cols - m.n
    coeffs = (m ^ st.shift.prefix(m.n)).concat(BitVec(free, split_draws(rng.bytes((free + 7) // 8), free)[0]))
    return st.gen.matvec(coeffs) ^ st.shift


@pytest.mark.parametrize(
    "params",
    [
        Params(n=64, r=32, ell=16, perm_mode="feistel"),
        Params(n=32, r=8, ell=8, perm_mode="feistel"),
        Params(n=12, r=4, ell=3, variant="incompressible"),
        Params(n=64, r=8, ell=2, perm_mode="feistel"),  # 54 free bits: two words
    ],
    ids=lambda p: f"{p.n}-{p.r}-{p.ell}-{p.variant}",
)
def test_sign_with_coset_matches_the_reference_signer(params, rng):
    o = build_oracles(params, SEED)
    draw = np.random.default_rng(7)
    ref = np.random.default_rng(7)
    for _ in range(200):
        st = fresh_key(o, rng)
        m = BitVec(params.ell, int(rng.integers(0, 1 << params.ell)))
        assert sign_with_coset(st, m, draw) == reference_sign(st, m, ref)
        assert draw.bytes(16) == ref.bytes(16)
