"""Dense simulator: transform identities, measurement behavior, and the
coset-coordinate signer against the full register."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osslab.gf2 import BitVec
from osslab.oracles import Params, build_oracles, metered
from osslab.qsim import (
    StateVector,
    coset_amplitudes,
    coset_state,
    generate_keypair_state,
    measure,
    phase_dual,
    phase_prefix,
    walk_step,
    walsh_hadamard,
)
from osslab.scheme import draw_key, generate, key_state, sign

SEED = bytes(range(32))


def small_world():
    return build_oracles(Params(n=6, r=2, ell=2), SEED)


def random_state(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return StateVector(n, amp.astype(np.complex128))


def test_wht_is_an_involution(rng):
    st = random_state(rng, 6)
    before = st.amp.copy()
    walsh_hadamard(st)
    assert not np.allclose(st.amp, before)
    walsh_hadamard(st)
    assert np.allclose(st.amp, before, atol=1e-12)
    assert abs(st.norm() - 1.0) < 1e-12


def test_wht_matches_naive_matrix(rng):
    n = 5
    st = random_state(rng, n)
    size = 1 << n
    h = np.array(
        [[(-1) ** bin(x & y).count("1") for y in range(size)] for x in range(size)],
        dtype=np.float64,
    ) / np.sqrt(size)
    expect = h @ st.amp
    walsh_hadamard(st)
    assert np.allclose(st.amp, expect, atol=1e-12)


def radix2_walsh_hadamard(state):
    """The in-place radix-2 butterfly: the slow reference that
    walsh_hadamard's shuffle-order passes must match bit for bit."""
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


@pytest.mark.parametrize("n", range(1, 15))
def test_wht_equals_radix2_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    st = random_state(rng, n)
    ref = radix2_walsh_hadamard(st.copy())
    amp = st.amp
    assert walsh_hadamard(st) is st
    assert st.amp is amp  # mutated in place
    assert np.array_equal(st.amp.view(np.uint64), ref.amp.view(np.uint64))


def test_from_support_refuses_bad_indices():
    with pytest.raises(ValueError, match="outside"):
        StateVector.from_support(3, [-1])
    with pytest.raises(ValueError, match="outside"):
        StateVector.from_support(3, [8])
    with pytest.raises(ValueError, match="outside"):
        StateVector.from_support(3, np.array([1 << 63], dtype=np.uint64))
    with pytest.raises(ValueError, match="repeats"):
        StateVector.from_support(3, [2, 2])
    with pytest.raises(ValueError, match="non-empty"):
        StateVector.from_support(3, [])
    with pytest.raises(ValueError, match="nonzero"):
        StateVector.from_support(3, [1], weight=0)
    for weight in (2.0, 0.5j, 1 + 1e-6):
        with pytest.raises(ValueError, match="modulus 1"):
            StateVector.from_support(3, [1], weight=weight)
    for indices in ([1.7, 2.2], [True, False], np.array([1.0, 2.0]), [1 << 64]):
        with pytest.raises(ValueError, match="must be integers"):
            StateVector.from_support(3, indices)
    with pytest.raises(ValueError, match="1 <= n <= 24"):
        StateVector.from_support(40, [0])  # refused before 2^40 amplitudes are allocated


def test_from_support_takes_arrays_as_they_are():
    points = np.array([5, 1, 6], dtype=np.uint64)
    st = StateVector.from_support(3, points, weight=1j)
    assert np.array_equal(st.amp, StateVector.from_support(3, [1, 5, 6], weight=1j).amp)
    assert np.count_nonzero(st.amp) == 3 and abs(st.norm() - 1.0) < 1e-12


def test_keypair_state_is_uniform_coset(rng):
    o = small_world()
    with metered() as spent:
        y, st = generate_keypair_state(o, rng)
    assert spent == {}  # measurement short-circuit: no queries
    gen, shift = o.coset_of(y)
    support = {shift.bits ^ gen.matvec(BitVec(4, w)).bits for w in range(16)}
    nz = np.nonzero(st.amp)[0]
    assert set(nz.tolist()) == support
    assert np.allclose(st.amp[nz], 1 / 4.0)  # 2^(n-r) = 16 points, weight 1/sqrt(16)


def test_keypair_state_rejects_wide_or_feistel(rng):
    # the full register needs n <= 24; the key alone needs only n - r <= 24
    o = build_oracles(Params(n=40, r=24, ell=8, perm_mode="feistel"), SEED)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="1 <= n <= 24"):
        generate_keypair_state(o, rng)
    assert rng.bit_generator.state == before  # refused before the key draw
    key = key_state(o, "statevector", draw_key(o, rng))
    assert key.points.dtype == np.uint64 and key.amp.shape == (1 << 16,)


def test_wht_of_coset_state_lives_on_the_dual(rng):
    """Transforming the coset state gives support on the dual of the
    column span, with signs read off the shift."""
    o = small_world()
    y, st = generate_keypair_state(o, rng)
    gen, shift = o.coset_of(y)
    walsh_hadamard(st)
    dual = gen.left_kernel()
    members = set(dual.element_ints())
    nz = set(np.nonzero(np.abs(st.amp) > 1e-12)[0].tolist())
    assert nz == members
    for v in members:
        sign = (-1) ** bin(v & shift.bits).count("1")
        assert abs(st.amp[v] - sign / 2.0) < 1e-12  # |dual| = 2^r = 4


def test_phase_prefix_marks_exactly_the_matching_block():
    o = small_world()
    st = StateVector.from_support(6, list(range(64)))
    m = BitVec.from_str("10")
    phase_prefix(st, 1, m)
    idx = np.arange(64)
    first_bit = idx >> 5
    expect = np.where(first_bit == 1, 1j / 8.0, 1 / 8.0)
    assert np.allclose(st.amp, expect)


def test_phase_dual_spends_one_dual_query():
    o = small_world()
    rng = np.random.default_rng(7)
    y, st = generate_keypair_state(o, rng)
    with metered() as spent:
        phase_dual(st, 1, y, o)
    assert spent == {"D": 1}


def test_measure_collapses_and_respects_support(rng):
    o = small_world()
    y, st = generate_keypair_state(o, rng)
    support = set(np.nonzero(st.amp)[0].tolist())
    out = measure(st, rng)
    assert out.bits in support
    assert st.amp[out.bits] == 1.0 and np.count_nonzero(st.amp) == 1


def test_measure_rejects_unnormalized(rng):
    st = StateVector(3, np.zeros(8, dtype=np.complex128))
    with pytest.raises(ValueError):
        measure(st, rng)


def test_measurement_statistics_are_flat(rng):
    o = small_world()
    y, base = generate_keypair_state(o, rng)
    support = np.nonzero(base.amp)[0]
    counts = {int(s): 0 for s in support}
    n_draws = 3200
    for _ in range(n_draws):
        counts[measure(base.copy(), rng).bits] += 1
    # 16 outcomes, 200 expected each; allow 5 sigma of binomial noise
    bound = 5 * np.sqrt(n_draws * (1 / 16) * (15 / 16))
    assert all(abs(c - 200) < bound for c in counts.values())


# -- the signing walk in coset coordinates ------------------------------


def scatter(ca) -> np.ndarray:
    """Coset-coordinate amplitudes placed on the full 2^n register."""
    amp = np.zeros(1 << ca.gen.rows, dtype=np.complex128)
    amp[ca.points] = ca.amp
    return amp


@st.composite
def walk_worlds(draw):
    """A table world with l anywhere in 1..n-r (often l = n - r), a y and
    an l-bit message."""
    n = draw(st.integers(3, 10))
    r = draw(st.integers(1, n - 1))
    ell = n - r if draw(st.booleans()) else draw(st.integers(1, n - r))
    variant = draw(st.sampled_from(["standard", "incompressible"]))
    seed = draw(st.binary(min_size=32, max_size=32))
    o = build_oracles(Params(n=n, r=r, ell=ell, variant=variant), seed)
    y = BitVec(r, draw(st.integers(0, (1 << r) - 1)))
    m = BitVec(ell, draw(st.integers(0, (1 << ell) - 1)))
    return o, y, m


@settings(max_examples=60)
@given(walk_worlds())
def test_coset_walk_matches_the_full_register(case):
    o, y, m = case
    sv = coset_state(o, y)
    ca = coset_amplitudes(o, y)
    assert np.max(np.abs(scatter(ca) - sv.amp)) < 1e-12
    for step in range(1, m.n + 1):
        phase_prefix(sv, step, m)
        phase_dual(sv, step, y, o)
        walk_step(ca, step, m)
        assert np.max(np.abs(scatter(ca) - sv.amp)) < 1e-12


@pytest.mark.parametrize("shape, keys", [((8, 3, 2), 200), ((12, 4, 6), 20)])
def test_dense_sign_draws_the_full_register_signature(shape, keys):
    """Same sigma as phase_prefix/phase_dual/measure on the full register,
    with the rng left at the same position."""
    n, r, ell = shape
    for k in range(keys):
        o = build_oracles(Params(n=n, r=r, ell=ell), hashlib.sha256(b"walk%d" % k).digest())
        ours, ref = np.random.default_rng(k), np.random.default_rng(k)
        pk, sk = generate(o, "statevector", ours)
        y, sv = generate_keypair_state(o, ref)
        assert y == pk.y
        m = BitVec(ell, k % (1 << ell))
        sigma = sign(o, pk, sk, m, ours).sigma
        for step in range(1, ell + 1):
            phase_prefix(sv, step, m)
            phase_dual(sv, step, y, o)
        assert sigma == measure(sv, ref)
        assert ours.random() == ref.random()
