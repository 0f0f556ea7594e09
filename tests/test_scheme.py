"""Scheme layer: consumable keys, verification, collisions, wrappers."""

import hashlib
import itertools
import json
import sys
import textwrap
import threading

import numpy as np
import pytest

import osslab
from osslab import gf2
from osslab.gf2 import BitMatrix, BitVec
from osslab.oracles import PERM_MODES, VARIANTS, Params, PermutationEngine, build_oracles, metered
from osslab.scheme import (
    BACKENDS,
    OneShotViolation,
    PublicKey,
    SecretKey,
    Signature,
    extract_collision,
    generate,
    hs_sign,
    hs_verify,
    key_state,
    rom_hash,
    message_bits,
    sign,
    verify,
)

SEED = bytes(range(32))


def world(**kw):
    return build_oracles(Params(n=8, r=3, ell=2, **kw), SEED)


def test_package_quick_start_runs():
    """The code block under "Quick start::" in the package docstring."""
    lines = osslab.__doc__.split("Quick start::\n", 1)[1].splitlines()
    block = []
    for line in lines:
        if line and not line.startswith("    "):
            break
        block.append(line)
    exec(textwrap.dedent("\n".join(block)), {})


@pytest.mark.parametrize("backend", ["statevector", "symbolic"])
def test_sign_verify_round_trip(backend, rng):
    o = world()
    pk, sk = generate(o, backend, rng)
    m = BitVec.from_str("11")
    sig = sign(o, pk, sk, m, rng)
    assert verify(o, pk, m, sig)
    assert not verify(o, pk, BitVec.from_str("00"), sig)


@pytest.mark.parametrize("backend", ["statevector", "symbolic"])
def test_sign_queries_the_key_states_y(backend, rng, monkeypatch):
    """Both walks spend their l dual queries, in one spend_walk, on the y of
    the key state being consumed, whatever y the public key passed alongside
    it names."""
    o = world()
    pk, sk = generate(o, backend, rng)
    other = PublicKey(y=BitVec(3, pk.y.bits ^ 1), params=o.params, seed=o.seed)
    seen = []
    real = o.spend_walk
    monkeypatch.setattr(o, "spend_walk", lambda y: seen.append(y) or real(y))
    with metered() as spent:
        sig = sign(o, other, sk, BitVec.from_str("10"), rng)
    assert seen == [pk.y]
    assert spent == {"D": o.params.ell}
    assert verify(o, pk, BitVec.from_str("10"), sig)


@pytest.mark.parametrize("backend", ["statevector", "symbolic"])
def test_second_sign_raises(backend, rng):
    o = world()
    pk, sk = generate(o, backend, rng)
    sign(o, pk, sk, BitVec.from_str("01"), rng)
    assert sk.consumed
    with pytest.raises(OneShotViolation):
        sign(o, pk, sk, BitVec.from_str("10"), rng)


def test_two_signatures_give_a_hash_collision(rng):
    o = world()
    pk, sk = generate(o, "symbolic", rng)
    dup = SecretKey("symbolic", key_state(o, "symbolic", pk.y))
    m0, m1 = BitVec.from_str("00"), BitVec.from_str("11")
    s0 = sign(o, pk, sk, m0, rng)
    s1 = sign(o, pk, dup, m1, rng)
    x0, x1 = extract_collision(o, pk, (m0, s0), (m1, s1))
    assert x0 != x1
    assert o.hash_bits(x0) == o.hash_bits(x1) == pk.y


def test_extract_collision_validates_inputs(rng):
    o = world()
    pk, sk = generate(o, "symbolic", rng)
    m = BitVec.from_str("10")
    sig = sign(o, pk, sk, m, rng)
    with pytest.raises(ValueError):
        extract_collision(o, pk, (m, sig), (m, sig))  # identical pairs
    bogus = Signature(sigma=sig.sigma ^ BitVec(8, 1))
    with pytest.raises(ValueError):
        extract_collision(o, pk, (m, sig), (m, bogus))  # second does not verify


def test_verify_always_costs_one_decode(rng):
    o = world()
    pk, sk = generate(o, "symbolic", rng)
    m = BitVec.from_str("10")
    sig = sign(o, pk, sk, m, rng)
    for probe, msg in [(sig, m), (sig, BitVec.from_str("01")), (Signature(BitVec(8, 0)), m)]:
        with metered() as spent:
            verify(o, pk, msg, probe)
        assert spent == {"Pinv": 1}


def read_back(pk: PublicKey) -> PublicKey:
    """pk with its Params rebuilt through JSON: equal, not the world's own."""
    params = Params.from_json(json.loads(json.dumps(pk.params.to_json())))
    assert params == pk.params and params is not pk.params
    return PublicKey(y=pk.y, params=params, seed=pk.seed)


def off_coset(o, pk: PublicKey, sig: Signature) -> Signature:
    """sig with one bit below the pinned prefix flipped so that it leaves
    pk's coset: the n - l low unit vectors cannot all lie in the
    (n - r)-dimensional column span."""
    gen, shift = o.coset_of(pk.y)
    p = o.params
    flips = [sig.sigma ^ BitVec(p.n, 1 << i) for i in range(p.n - p.ell)]
    return Signature(next(u for u in flips if gen.solve(u ^ shift) is None))


@pytest.mark.parametrize("backend", ["statevector", "symbolic"])
def test_verify_never_inverts_the_permutation(backend, rng, monkeypatch):
    """On a Feistel world verify accepts the signature and rejects a wrong
    message or an off-coset sigma for one Pinv query each, with
    PermutationEngine.inverse unreachable."""
    o = build_oracles(Params(n=16, r=4, ell=3, perm_mode="feistel"), SEED)
    pk, sk = generate(o, backend, rng)
    m = BitVec.from_str("101")
    sig = sign(o, pk, sk, m, rng)
    probes = [
        (m, sig, True),
        (BitVec.from_str("011"), sig, False),
        (m, off_coset(o, pk, sig), False),
        (m, Signature(sig.sigma ^ BitVec(16, 1 << 15)), False),
    ]

    def refuse(self, u):
        raise AssertionError("verify inverted the permutation")

    monkeypatch.setattr(PermutationEngine, "inverse", refuse)
    for msg, probe, accepted in probes:
        with metered() as spent:
            assert verify(o, pk, msg, probe) is accepted
        assert spent == {"Pinv": 1}


@pytest.mark.parametrize("backend", ["statevector", "symbolic"])
@pytest.mark.parametrize("variant", ["standard", "bloated", "incompressible"])
def test_verify_answers_every_variant_for_one_query(variant, backend, rng):
    """verify accepts the signature, rejects every one-bit flip of the
    message and a sigma with the right prefix off the coset, answers alike
    for a key whose Params was read back from JSON, and refuses a key of a
    world with another seed.  Each call spends its one query."""
    p = Params(n=10, r=4, ell=3, s=1 if variant == "bloated" else 0, variant=variant)
    o = build_oracles(p, SEED)
    pk, sk = generate(o, backend, rng)
    width = message_bits(p)
    m = BitVec(width, 0b101 & ((1 << width) - 1))
    sig = sign(o, pk, sk, m, rng)
    probes = [(m, sig, True), (m, off_coset(o, pk, sig), False)]
    probes += [(m ^ BitVec(width, 1 << i), sig, False) for i in range(width)]
    cost = {"D0": 1} if variant == "incompressible" else {"Pinv": 1}
    for key in (pk, read_back(pk)):
        for msg, probe, accepted in probes:
            with metered() as spent:
                assert verify(o, key, msg, probe) is accepted
            assert spent == cost
    stranger, _ = generate(build_oracles(p, bytes(32)), backend, rng)
    with pytest.raises(ValueError, match="different world"):
        verify(o, stranger, m, sig)


def test_verify_builds_no_bitvec(rng, monkeypatch):
    """A warm verify compares the pinned prefix as ints and the world by
    identity: with the key generate made it builds no BitVec and compares no
    Params, on an incompressible world too, where m || 0 is pinned, while a
    key whose Params was read back from JSON takes the full comparison."""
    probes = []
    for variant in ("standard", "incompressible"):
        o = world(variant=variant)
        pk, sk = generate(o, "symbolic", rng)
        width = message_bits(o.params)
        m = BitVec(width, 1 << (width - 1))
        sig = sign(o, pk, sk, m, rng)
        probes += [(o, pk, m, sig, True), (o, pk, BitVec(width, m.bits ^ 1), sig, False)]
        probes.append((o, pk, m, off_coset(o, pk, sig), False))
    copy = read_back(pk)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"verify called {name}")

        return call

    monkeypatch.setattr(BitVec, "__init__", refuse("BitVec.__init__"))
    monkeypatch.setattr(Params, "__eq__", refuse("Params.__eq__"))
    for o, key, msg, probe, accepted in probes:
        assert verify(o, key, msg, probe) is accepted
    with pytest.raises(AssertionError, match="Params.__eq__"):
        verify(o, copy, m, sig)


def test_generate_query_free(rng):
    o = world()
    for backend in ("statevector", "symbolic"):
        with metered() as spent:
            generate(o, backend, rng)
        assert spent == {}


def test_sign_spends_exactly_l_dual_queries(rng):
    o = world()
    for backend in ("statevector", "symbolic"):
        pk, sk = generate(o, backend, rng)
        with metered() as spent:
            sign(o, pk, sk, BitVec.from_str("11"), rng)
        assert spent == {"D": 2}


@pytest.mark.parametrize("backend", ["statevector", "symbolic"])
def test_sign_builds_no_dual_chain(backend, rng, monkeypatch):
    """sign only counts its D queries: the chain slot is left as it was
    and no left kernel is taken."""
    o = world()
    o.dual_support(1, BitVec(3, 0))  # fill the slot with some y
    before = o.dual_chain.cache_info()
    pk, sk = generate(o, backend, rng)

    def refuse(self):
        raise AssertionError("sign took a left kernel")

    monkeypatch.setattr(BitMatrix, "left_kernel", refuse)
    sign(o, pk, sk, BitVec.from_str("01"), rng)
    after = o.dual_chain.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_cold_symbolic_cycles_transpose_no_matrix(rng, monkeypatch):
    """A coset is built by columns, and a cold symbolic cycle reads it only
    by columns (matvec in sign, and in verify the ColumnDecoder that derive
    built while it drew C); so does the dual chain of a freshly derived y.
    At (64, 32, 16) none of them transposes a matrix, and no generator is
    eliminated a second time."""
    calls = []
    real = gf2._transpose_words
    monkeypatch.setattr(
        gf2, "_transpose_words", lambda words, width: calls.append(width) or real(words, width)
    )
    decoders = []
    real_init = gf2.ColumnDecoder.__init__
    monkeypatch.setattr(
        gf2.ColumnDecoder, "__init__", lambda self, m: decoders.append(m) or real_init(self, m)
    )
    o = build_oracles(Params(n=64, r=32, ell=16, perm_mode="feistel"), SEED)
    ys = set()
    for _ in range(10):
        pk, sk = generate(o, "symbolic", rng)
        m = BitVec.random(rng, 16)
        sig = sign(o, pk, sk, m, rng)
        assert verify(o, pk, m, sig)
        ys.add(pk.y.bits)
    assert o.cosets.derive_cache.cache_info().misses == len(ys) == 10  # every cycle cold
    assert calls == []
    assert decoders == []
    fresh = next(y for y in range(11) if y not in ys)
    chain = o.dual_chain(fresh)
    assert [level.dim for level in chain] == list(range(32, 49))
    assert calls == []


def test_dual_chain_cache_keeps_only_the_latest_y(rng):
    o = build_oracles(Params(n=24, r=8, ell=6, perm_mode="feistel"), SEED)
    chains = o.dual_chain
    keys = []
    slot = None
    for _ in range(16):
        pk, sk = generate(o, "symbolic", rng)
        sign(o, pk, sk, BitVec(6, 0b101100), rng)
        y = pk.y.bits
        misses = chains.cache_info().misses
        chain = chains(y)  # a sign leaves the slot alone, so a new y is built here
        if y != slot:
            misses += 1
        assert chains.cache_info().misses == misses
        assert chains(y) is chain  # served from the slot without a rebuild
        assert chains.cache_info().misses == misses
        assert chains.cache_info().currsize == 1
        assert chain == o.cosets.derive(y)[0].dual_chain(6)
        slot = y
        if keys and keys[-1] != y:
            chains(keys[-1])  # the previous y was evicted, so it is rebuilt
            assert chains.cache_info().misses == misses + 1
            slot = keys[-1]
        keys.append(y)
    assert len(set(keys)) > 1


def run_threads(worker, count=4):
    """Run worker(slot) in count threads that switch often, to expose
    races; re-raise the first error a thread hit."""
    errors = []

    def guarded(slot):
        try:
            worker(slot)
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(slot,)) for slot in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]


def test_threads_share_one_oracle_set():
    o = build_oracles(Params(n=24, r=8, ell=6, perm_mode="feistel"), SEED)
    per_thread = 12
    results = [[] for _ in range(4)]
    served = []  # (y, chain) as each thread read it back, in call order
    order = threading.Lock()

    def worker(slot):
        local = np.random.default_rng(slot)
        for _ in range(per_thread):
            pk, sk = generate(o, "symbolic", local)
            m = BitVec(6, int(local.integers(0, 64)))
            results[slot].append((pk, m, sign(o, pk, sk, m, local)))
            with order:
                served.append((pk.y.bits, o.dual_chain(pk.y.bits)))

    run_threads(worker)
    signed = [item for chunk in results for item in chunk]
    assert len(signed) == 4 * per_thread
    assert o.query_counts()["D"] == len(signed) * o.params.ell
    assert all(verify(o, pk, m, sig) for pk, m, sig in signed)
    for y, chain in served:
        assert chain == o.cosets.derive(y)[0].dual_chain(o.params.ell)
    # Every thread ends on its locked read, so the last read left the slot.
    last_y, last_chain = served[-1]
    misses = o.dual_chain.cache_info().misses
    assert o.dual_chain(last_y) is last_chain
    assert o.dual_chain.cache_info().misses == misses


def test_each_thread_meters_only_its_own_queries():
    o = build_oracles(Params(n=24, r=8, ell=6, perm_mode="feistel"), SEED)
    per_thread = 12
    seen = [None] * 4

    def worker(slot):
        local = np.random.default_rng(100 + slot)
        with metered() as total:
            for _ in range(per_thread):
                pk, sk = generate(o, "symbolic", local)
                m = BitVec(6, int(local.integers(0, 64)))
                with metered() as spent:
                    sig = sign(o, pk, sk, m, local)
                assert spent == {"D": 6}
                assert verify(o, pk, m, sig)
        seen[slot] = total

    run_threads(worker)
    assert seen == [{"Pinv": per_thread, "D": 6 * per_thread}] * 4
    assert o.query_counts() == {"P": 0, "Pinv": 4 * per_thread, "D": 24 * per_thread, "D0": 0, "Dprime": 0}


def test_wrong_world_is_rejected(rng):
    o = world()
    other = build_oracles(Params(n=8, r=3, ell=2), bytes(32))
    pk, sk = generate(o, "symbolic", rng)
    with pytest.raises(ValueError):
        verify(other, pk, BitVec.from_str("00"), Signature(BitVec(8, 0)))
    with pytest.raises(ValueError):
        sign(other, pk, sk, BitVec.from_str("00"), rng)


def test_variant_dispatch_guards(rng):
    inc = world(variant="incompressible")
    pk, sk = generate(inc, "symbolic", rng)
    with pytest.raises(ValueError):
        sign(inc, pk, sk, BitVec.from_str("11"), rng)  # l - 1 = 1 bit on this variant
    with pytest.raises(ValueError, match="l - 1 on an incompressible world"):
        verify(inc, pk, BitVec.from_str("11"), Signature(BitVec(8, 0)))
    orig = build_oracles(Params(n=8, r=3, ell=0, variant="original"), SEED)
    with pytest.raises(ValueError):
        generate(orig, "symbolic", rng)


def test_statevector_key_is_bounded_by_its_width(rng):
    # the dense key never reads the permutation, and 64-bit points fit
    m = BitVec(8, 0b10100110)
    o = build_oracles(Params(n=64, r=48, ell=8, perm_mode="feistel"), SEED)
    pk, sk = generate(o, "statevector", rng)
    assert verify(o, pk, m, sign(o, pk, sk, m, rng))
    # n - r = 25: refused before any of its 2^25 coset points is listed
    o = build_oracles(Params(n=64, r=39, ell=8, perm_mode="feistel"), SEED)
    with pytest.raises(ValueError, match="allow n - r <= 24, got 25"):
        generate(o, "statevector", rng)
    pk, sk = generate(o, "symbolic", rng)  # the symbolic key has no such bound
    assert verify(o, pk, m, sign(o, pk, sk, m, rng))
    # n = 70 fits the dense key's width but not its uint64 points: a
    # ValueError, not numpy's OverflowError
    o = build_oracles(Params(n=70, r=50, ell=8, perm_mode="feistel"), SEED)
    with pytest.raises(ValueError, match="^statevector keys allow n <= 64, got 70$"):
        generate(o, "statevector", rng)
    pk, sk = generate(o, "symbolic", rng)
    assert verify(o, pk, m, sign(o, pk, sk, m, rng))


def test_every_shape_params_accepts_is_a_world_that_runs(rng):
    """Params is the one gate on a world's shape.  Every shape with n <= 8
    (r >= 1, l >= 0, 0 <= s <= n, each variant and permutation mode)
    either raises ValueError as it is constructed or generates, signs and
    verifies on both backends with the pinned query profiles; generate
    refuses an 'original' world by design.  A bloated world also samples
    its bloat, and its widened level j has dimension r + s + j - 1."""
    accepted = round_trips = bloat_levels = 0
    for n, variant, perm_mode in itertools.product(range(1, 9), VARIANTS, PERM_MODES):
        for r, ell, s in itertools.product(range(1, n + 1), range(n + 1), range(n + 1)):
            try:
                p = Params(n=n, r=r, ell=ell, s=s, variant=variant, perm_mode=perm_mode)
            except ValueError:
                continue
            accepted += 1
            o = build_oracles(p, SEED)
            for backend in BACKENDS:
                if variant == "original":
                    with pytest.raises(ValueError, match="cannot generate signing keys"):
                        generate(o, backend, rng)
                    continue
                with metered() as gen_spent:
                    pk, sk = generate(o, backend, rng)
                m = BitVec.random(rng, message_bits(p))
                with metered() as sign_spent:
                    sig = sign(o, pk, sk, m, rng)
                with metered() as verify_spent:
                    assert verify(o, pk, m, sig)
                verify_query = "D0" if variant == "incompressible" else "Pinv"
                assert (gen_spent, sign_spent, verify_spent) == ({}, {"D": ell}, {verify_query: 1})
                round_trips += 1
            if variant == "bloated":
                o.sample_bloat(rng)
                for j in range(1, ell + 2):
                    assert o.bloated_support(j, pk.y).dim == r + s + j - 1
                    bloat_levels += 1
    assert (accepted, round_trips, bloat_levels) == (3252, 5544, 756)


# -- serialization ------------------------------------------------------


def test_signature_json_round_trip():
    sig = Signature(sigma=BitVec.from_str("10110011"))
    assert Signature.from_json(json.loads(json.dumps(sig.to_json()))) == sig


# -- incompressible variant ---------------------------------------------


def test_incompressible_round_trip_and_structure(rng):
    o = world(variant="incompressible")
    for backend in ("statevector", "symbolic"):
        pk, sk = generate(o, backend, rng)
        m = BitVec(1, 1)
        with metered() as spent:
            sig = sign(o, pk, sk, m, rng)
        assert spent == {"D": 2}  # the walk pins l = 2 bits, the forced 0 included
        with metered() as spent:
            assert verify(o, pk, m, sig)
        assert spent == {"D0": 1}  # membership only, no decode
        gen, shift = o.coset_of(pk.y)
        diff = sig.sigma ^ shift
        assert diff.bits != 0 and gen.solve(diff) is not None
        assert sig.sigma.bit(2) == 0  # message is extended with a forced 0


def test_incompressible_message_width(rng):
    o = world(variant="incompressible")
    pk, sk = generate(o, "symbolic", rng)
    assert message_bits(o.params) == 1 and message_bits(world().params) == 2
    with pytest.raises(ValueError, match="message must have 1 bits .*, got 2"):
        sign(o, pk, sk, BitVec.from_str("11"), rng)  # l - 1 = 1 bit
    assert not sk.consumed  # refused before the key is claimed
    with pytest.raises(ValueError, match="message must have 1 bits"):
        verify(o, pk, BitVec.from_str("11"), Signature(BitVec(8, 0)))
    with pytest.raises(ValueError, match="message must have 2 bits"):
        verify(world(), pk, BitVec(1, 0), Signature(BitVec(8, 0)))
    with pytest.raises(ValueError, match="message must have 1 bits"):
        hs_sign(o, pk, sk, b"hello", rng)  # a digest has l bits


# sigma for these worlds, keys and rngs, pinned from the incompressible signer
# that sign replaced: serving every variant from sign must not move a bit
INCOMPRESSIBLE_GOLDEN = [
    ((8, 3, 2, "table"), "statevector", "0f"),
    ((8, 3, 2, "table"), "symbolic", "3d"),
    ((12, 4, 4, "table"), "statevector", "23c"),
    ((12, 4, 4, "table"), "symbolic", "2da"),
    ((40, 16, 8, "feistel"), "symbolic", "3ccd376ac4"),
]


@pytest.mark.parametrize("shape, backend, sigma", INCOMPRESSIBLE_GOLDEN)
def test_incompressible_sign_matches_the_former_variant_signer(shape, backend, sigma):
    n, r, ell, perm_mode = shape
    o = build_oracles(Params(n=n, r=r, ell=ell, variant="incompressible", perm_mode=perm_mode), SEED)
    rng = np.random.default_rng(2024)
    m = BitVec(ell - 1, int(rng.integers(0, 1 << (ell - 1))))
    pk, sk = generate(o, backend, rng)
    with metered() as spent:
        sig = sign(o, pk, sk, m, rng)
    assert sig.sigma.to_hex() == sigma
    assert spent == {"D": ell}
    with metered() as spent:
        assert verify(o, pk, m, sig)
    assert spent == {"D0": 1}


# (world shape, rng seed, m, y, sigma) for the symbolic signer: the rng
# draws m, then keygen's y, then sign's free coefficients
SYMBOLIC_GOLDEN = [
    ((8, 3, 2, "table"), 1, "1", "4", "6e"),
    ((8, 3, 2, "table"), 2, "3", "2", "c6"),
    ((8, 3, 2, "table"), 3, "3", "0", "fb"),
    ((64, 32, 16, "feistel"), 1, "7922", "8306bdf3", "7922137ceca84ef4"),
    ((64, 32, 16, "feistel"), 2, "d66b", "42f90348", "d66bc025e3954000"),
    ((64, 32, 16, "feistel"), 3, "cfbe", "15ed1a93", "cfbe0cf28dcda208"),
]


@pytest.mark.parametrize("shape, seed, m_hex, y_hex, sigma", SYMBOLIC_GOLDEN)
def test_symbolic_sign_draws_pinned_signatures(shape, seed, m_hex, y_hex, sigma):
    n, r, ell, perm_mode = shape
    o = build_oracles(Params(n=n, r=r, ell=ell, perm_mode=perm_mode), SEED)
    rng = np.random.default_rng(seed)
    m = BitVec(ell, int(rng.integers(0, 1 << ell)))
    pk, sk = generate(o, "symbolic", rng)
    assert (m.to_hex(), pk.y.to_hex()) == (m_hex, y_hex)
    with metered() as spent:
        sig = sign(o, pk, sk, m, rng)
    assert sig.sigma.to_hex() == sigma
    assert spent == {"D": ell}
    with metered() as spent:
        assert verify(o, pk, m, sig)
    assert spent == {"Pinv": 1}


# -- hash-and-sign ------------------------------------------------------


def test_rom_hash_behaviour():
    a = rom_hash(SEED, b"alpha", 13)
    assert a.n == 13
    assert rom_hash(SEED, b"alpha", 13) == a  # deterministic
    assert rom_hash(SEED, b"beta", 13) != a
    assert rom_hash(bytes(32), b"alpha", 13) != a  # keyed by the seed
    assert rom_hash(SEED, b"alpha", 0) == BitVec(0, 0)
    # truncation really is a prefix
    wide = rom_hash(SEED, b"alpha", 64)
    assert wide.prefix(13) == a


@pytest.mark.parametrize("msg", [b"", b"alpha", bytes(range(256)) * 4096])
def test_rom_hash_is_shake_over_seed_label_and_message(msg):
    joined = len(SEED).to_bytes(2, "big") + SEED + b"rom" + msg
    expect = int.from_bytes(hashlib.shake_256(joined).digest(3), "big") >> 4
    assert rom_hash(SEED, msg, 20) == BitVec(20, expect)


def test_hash_and_sign_round_trip(rng):
    o = world()
    pk, sk = generate(o, "symbolic", rng)
    msg = b"arbitrary bytes of any length \x00\xff" * 9
    sig = hs_sign(o, pk, sk, msg, rng)
    assert hs_verify(o, pk, msg, sig)
    assert not hs_verify(o, pk, msg + b"?", sig)
