"""Dense simulator: transform identities and measurement behavior."""

import numpy as np
import pytest

from osslab.gf2 import BitVec
from osslab.oracles import Params, build_oracles, metered
from osslab.qsim import (
    StateVector,
    generate_keypair_state,
    measure,
    phase_dual,
    phase_prefix,
    walsh_hadamard,
)

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
    o = build_oracles(Params(n=8, r=3, ell=2, perm_mode="feistel"), SEED)
    with pytest.raises(ValueError):
        generate_keypair_state(o, rng)


def test_wht_of_coset_state_lives_on_the_dual(rng):
    """Transforming the coset state gives support on the dual of the
    column span, with signs read off the shift."""
    o = small_world()
    y, st = generate_keypair_state(o, rng)
    gen, shift = o.coset_of(y)
    walsh_hadamard(st)
    dual = gen.transpose().null_space()
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
