"""Distribution lab: chain samplers, exact laws, the distinguisher."""

import gc
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from osslab import distlab, gf2
from osslab.distlab import (
    DISTINGUISHER_TRIALS,
    ExperimentReport,
    Metric,
    _hash_only_worlds,
    _invertible_rows,
    _syndrome_level,
    _trial_seed,
    chain_by_basis,
    chain_by_matrix,
    chain_by_shear,
    chain_by_syndrome,
    chain_by_vector,
    collapse_acceptance_exact,
    coset_points,
    exact_distribution,
    run_collapse_distinguisher,
    signature_set_census,
    tv_distance,
    validate_collapse_shortcut,
)
from osslab.gf2 import BitMatrix, BitVec, Subspace, sample_full_column_rank
from osslab.oracles import OracleSet, Params, SeededStream, build_oracles, metered
from osslab.suites import SUITES, _world_seed, default_seed

SEED = bytes(range(32))


def toy_matrix(n, r, tag=b"toy"):
    return sample_full_column_rank(SeededStream(SEED, tag), n, n - r)


# -- samplers -----------------------------------------------------------


def test_single_step_samplers_share_one_exact_law():
    mat = toy_matrix(4, 1)
    base = exact_distribution(chain_by_vector(mat, 4, 1, 1))
    assert sum(base.values()) == 1
    for other in (chain_by_syndrome, chain_by_shear):
        dist = exact_distribution(other(mat, 4, 1, 1))
        assert tv_distance(base, dist) == 0


def test_widened_samplers_share_one_exact_law():
    mat = toy_matrix(4, 1)
    db = exact_distribution(chain_by_basis(mat, 4, 1, 1, 1))
    dm = exact_distribution(chain_by_matrix(mat, 4, 1, 1, 1))
    assert tv_distance(db, dm) == 0
    assert len(db) == (1 << 3) - (1 << 1)  # 2^(n-r) - 2^l tuples at s = 1


def packed_words(bits, count, width):
    """The ``count`` words of ``width`` bits packed first to last into ``bits``."""
    return tuple((bits >> (width * (count - 1 - i))) & ((1 << width) - 1) for i in range(count))


def widened_chain_reference(mat, n, r, ell, s, invertible, index):
    """chain_by_matrix's tuple at index, computed directly: decode M and
    M' from the index, each by its columns, widen A to
    A [[I, 0], [M', M]], drop columns l+1..l+s and take a fresh left
    kernel at every level."""
    d = n - r - ell
    m_index, mp_bits = divmod(index, 1 << (d * ell))
    m = BitMatrix._from_columns(d, d, packed_words(invertible[m_index], d, d))
    m_prime = BitMatrix._from_columns(d, ell, packed_words(mp_bits, ell, d))
    upper = BitMatrix.identity(ell).hstack(BitMatrix.zeros(ell, d))
    wide = mat @ upper.vstack(m_prime.hstack(m))
    tail = wide.col_range(ell + s + 1, n - r)
    return tuple(
        wide.col_range(j, ell).hstack(tail).left_kernel() for j in range(1, ell + 2)
    )


@pytest.mark.parametrize(
    "shape, picks", [((4, 1, 1, 1), None), ((5, 1, 2, 2), None), ((6, 1, 1, 2), 2000)]
)
def test_memoized_matrix_chain_matches_direct_widening(shape, picks):
    n, r, ell, s = shape
    d = n - r - ell
    mat = toy_matrix(n, r, b"memo")
    sampler = chain_by_matrix(mat, n, r, ell, s)
    invertible = [
        bits
        for bits in range(1 << (d * d))
        if BitMatrix._from_columns(d, d, packed_words(bits, d, d)).rank() == d
    ]
    assert sampler.domain_size == len(invertible) << (d * ell)
    if picks is None:
        indices = range(sampler.domain_size)
    else:
        indices = np.random.default_rng(7).integers(0, sampler.domain_size, picks).tolist()
    for index in indices:
        expect = widened_chain_reference(mat, n, r, ell, s, invertible, index)
        assert sampler.tuple_at(index) == expect


def witness_level(kernel, sub, target):
    """{w : w^T sub in {0, target}} as ``kernel``, sub's left kernel,
    extended by one solution of w^T sub = target found through sub's
    transpose."""
    witness = sub.transpose().solve(target)
    assert witness is not None, "target must be attainable"
    return kernel.extend([witness])


def syndrome_chain_reference(sampler, index):
    """chain_by_syndrome's tuple at index, each level the dual level
    S_j extended by a witness of y's suffix."""
    mat = sampler.mat
    y = mat.rmatvec(BitVec(sampler.n, sampler._outside[index]))
    width = mat.cols
    return tuple(
        witness_level(sampler.levels[j - 1], mat.col_range(j, width), y.sub(j, width))
        for j in range(1, sampler.ell + 2)
    )


def shear_chain_reference(sampler, index):
    """chain_by_shear's tuple at index: B decoded by its columns, the
    shear factor assembled from blocks, and each level a fresh left
    kernel extended by a witness of the zero-padded target z."""
    d, ell = sampler._d, sampler.ell
    b_bits, z_index = divmod(index, (1 << d) - 1)
    z = BitVec(d, z_index + 1)
    shear_block = BitMatrix._from_columns(d, ell, packed_words(b_bits, ell, d))
    top = BitMatrix.identity(ell).hstack(BitMatrix.zeros(ell, d))
    sheared = sampler.mat @ top.vstack(shear_block.hstack(BitMatrix.identity(d)))
    width = sheared.cols
    out = []
    for j in range(1, ell + 2):
        sub = sheared.col_range(j, width)
        target = BitVec.zeros(ell - j + 1).concat(z) if j <= ell else z
        out.append(witness_level(sub.left_kernel(), sub, target))
    return tuple(out)


@pytest.mark.parametrize("shape", [(4, 1, 1), (5, 1, 2), (6, 2, 2)])
@pytest.mark.parametrize(
    "sampler_cls, reference",
    [(chain_by_syndrome, syndrome_chain_reference), (chain_by_shear, shear_chain_reference)],
)
def test_kernel_levels_match_witness_extension(shape, sampler_cls, reference):
    n, r, ell = shape
    sampler = sampler_cls(toy_matrix(n, r, b"witness"), n, r, ell)
    for index in range(sampler.domain_size):
        assert sampler.tuple_at(index) == reference(sampler, index)


def test_syndrome_level_refuses_an_unattainable_target():
    # two equal columns: w^T sub always has equal bits, so 10 is never hit
    sub = BitMatrix._from_columns(3, 2, (0b101, 0b101))
    assert _syndrome_level(sub, 0b11) == Subspace.full(3)
    with pytest.raises(AssertionError, match="target must be attainable"):
        _syndrome_level(sub, 0b10)


def test_distributions_battery_transposes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a matrix was transposed or built from rows")

    monkeypatch.setattr(gf2, "_transpose_words", refuse)
    monkeypatch.setattr(gf2.BitMatrix, "__init__", refuse)
    report = SUITES["distributions"](default_seed())
    assert report.passed, report.render()


def test_distributions_battery_reduces_no_span_from_its_words(monkeypatch):
    def refuse(cls, ambient, words):
        raise AssertionError("a span was row-reduced from its words")

    monkeypatch.setattr(gf2.Subspace, "from_words", classmethod(refuse))
    report = SUITES["distributions"](default_seed())
    assert report.passed, report.render()


def test_distributions_battery_counts_matrix_chains_without_tuple_at(monkeypatch):
    def refuse(self, index):
        raise AssertionError("a matrix chain was looked up one index at a time")

    monkeypatch.setattr(chain_by_matrix, "tuple_at", refuse)
    report = SUITES["distributions"](default_seed())
    assert report.passed, report.render()


@pytest.mark.parametrize("shape", [(4, 1, 1, 1), (5, 1, 2, 2), (6, 1, 1, 2)])
def test_counts_are_every_index_tuple_counted(shape):
    # chain_by_matrix counts each shared chain list once, weighted by its
    # number of M; every sampler must agree with counting index by index
    n, r, ell, s = shape
    mat = toy_matrix(n, r, b"counts")
    samplers = [cls(mat, n, r, ell) for cls in (chain_by_vector, chain_by_syndrome, chain_by_shear)]
    samplers += [cls(mat, n, r, ell, s) for cls in (chain_by_basis, chain_by_matrix)]
    for sampler in samplers:
        counts = sampler.counts()
        assert counts == Counter(sampler.tuple_at(i) for i in range(sampler.domain_size))
        assert sum(counts.values()) == sampler.domain_size


def distribution_digest(dist):
    items = sorted(
        (tuple((level.ambient, level.basis) for level in chain), p.numerator, p.denominator)
        for chain, p in dist.items()
    )
    return hashlib.sha256(repr(items).encode()).hexdigest()


@pytest.mark.parametrize(
    "shape, digest",
    [
        ((4, 1, 1, 1), "043ac23d46836f53c9cbc386ab65887376a7e1ed8bd035e794ce5e667562032e"),
        ((6, 1, 1, 2), "57877519349c359eb2b65b8f2f831bec7485d95dfbe689fcc30ed82871dc0826"),
    ],
)
def test_widened_exact_distributions_are_pinned(shape, digest):
    n, r, ell, s = shape
    mat = toy_matrix(n, r, b"pin")
    assert distribution_digest(exact_distribution(chain_by_matrix(mat, n, r, ell, s))) == digest
    assert distribution_digest(exact_distribution(chain_by_basis(mat, n, r, ell, s))) == digest


def test_basis_pick_matches_a_full_scan():
    n, r, ell, s = 6, 1, 1, 2
    sampler = chain_by_basis(toy_matrix(n, r, b"pick"), n, r, ell, s)

    def scan(span, k):
        return [w for w in range(1 << n) if not span.contains_word(w)][k]

    top = sampler.levels[-1]
    spans = [top] + [top.extend([BitVec(n, scan(top, k))]) for k in (0, 17, 59)]
    for span in spans:
        for k in range((1 << n) - (1 << span.dim)):
            assert sampler._pick(span, k).bits == scan(span, k)
    # whole tuples: every digit picks by the scan
    for index in range(0, sampler.domain_size, 37):
        first, second = divmod(index, sampler._radix[1])
        v1 = BitVec(n, scan(top, first))
        v2 = BitVec(n, scan(top.extend([v1]), second))
        assert sampler.tuple_at(index) == tuple(lv.extend([v1, v2]) for lv in sampler.levels)


def validate_chain(tpl, n, r, extra):
    """Assert the shape every sampler must produce: ascending subspaces
    of Z2^n with dim T_j = r + extra + j - 1."""
    for j, sub in enumerate(tpl, start=1):
        if sub.ambient != n:
            raise AssertionError("wrong ambient dimension")
        if sub.dim != r + extra + j - 1:
            raise AssertionError(f"level {j} has dim {sub.dim}, expected {r + extra + j - 1}")
        if j > 1 and not tpl[j - 2].is_subspace_of(sub):
            raise AssertionError("levels must be nested")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_invertible_rows_scan_every_word_in_order(d):
    words = range(1 << (d * d))
    rows = [tuple((w >> (d * (d - 1 - t))) & ((1 << d) - 1) for t in range(d)) for w in words]
    assert list(_invertible_rows(d)) == [m for m in rows if BitMatrix(d, d, m).rank() == d]


def test_invertible_rows_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        rows = list(_invertible_rows(3))
        assert len(rows) == 168  # |GL(3, 2)|
        del rows
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sampler_chains_have_the_right_shape():
    # single-vector chains widen each dual level by one dimension
    mat = toy_matrix(5, 1)
    plain = chain_by_vector(mat, 5, 1, 2)
    for idx in range(0, plain.domain_size, 3):
        validate_chain(plain.tuple_at(idx), 5, 1, 1)
    # s-vector chains widen by s
    wide = chain_by_basis(toy_matrix(4, 1), 4, 1, 1, 1)
    for idx in range(wide.domain_size):
        validate_chain(wide.tuple_at(idx), 4, 1, 1)


def test_validate_chain_rejects_wrong_dims():
    mat = toy_matrix(4, 1)
    tpl = chain_by_vector(mat, 4, 1, 1).tuple_at(0)
    with pytest.raises(AssertionError):
        validate_chain(tpl, 4, 2, 1)  # claims r = 2, chain was built at r = 1


def test_samplers_demand_full_column_rank():
    rows = (0b100, 0b100, 0b000, 0b010)  # rank 2 < 3 columns
    with pytest.raises(ValueError):
        chain_by_vector(BitMatrix(4, 3, rows), 4, 1, 1)


# -- census -------------------------------------------------------------


def test_coset_points_enumerates_the_whole_coset():
    o = build_oracles(Params(n=8, r=3, ell=2), SEED)
    y = BitVec(3, 6)
    pts = coset_points(o, y)
    assert len(pts) == 32 and len(set(pts.tolist())) == 32
    assert all(o.coset_check(y, BitVec(8, int(p))) for p in pts[:5])
    assert list(pts) == sorted(pts)


def test_coset_points_and_census_on_a_64_bit_world():
    o = build_oracles(Params(n=64, r=48, ell=8, perm_mode="feistel"), SEED)
    y = BitVec(48, 0x123456789ABC)
    pts = coset_points(o, y)
    words = pts.tolist()
    assert len(set(words)) == 1 << 16 and words == sorted(words)
    assert words[-1] >= 1 << 63  # past what a signed 64-bit array holds
    # every point is the shift plus a column-span point: it passes each
    # parity check of the generator's left kernel
    gen, shift = o.coset_of(y)
    diff = pts ^ np.uint64(shift.bits)
    for check in gen.left_kernel().basis:
        assert not np.any(np.bitwise_count(diff & np.uint64(check)) & 1)
    assert all(o.coset_check(y, BitVec(64, w)) for w in words[::1024])
    census = signature_set_census(o, y, [BitVec(8, 0xA5), BitVec(8, 0x3C)])
    assert census == [[1 << (16 - j) for j in range(9)]] * 2


def test_census_counts_halve_per_level():
    o = build_oracles(Params(n=8, r=3, ell=2), SEED)
    census = signature_set_census(o, BitVec(3, 1), [BitVec.from_str("10"), BitVec(0, 0)])
    assert census == [[32, 16, 8], [32]]


@pytest.mark.parametrize(
    "params", [Params(n=8, r=3, ell=2), Params(n=32, r=16, ell=8, perm_mode="feistel")]
)
def test_census_matches_one_enumeration_per_message(params):
    o = build_oracles(params, SEED)
    rng = np.random.default_rng(3)
    n, r, ell = params.n, params.r, params.ell
    y = BitVec(r, int(rng.integers(0, 1 << r)))
    messages = [BitVec(ell, int(rng.integers(0, 1 << ell))) for _ in range(3)]
    expect = []
    for m in messages:
        gen, shift = o.coset_of(y)
        points = gen.span_ints(shift.bits)
        wants = [m.prefix(j).bits for j in range(ell + 1)]
        expect.append(
            [sum(1 for w in points if w >> (n - j) == want) for j, want in enumerate(wants)]
        )
    assert signature_set_census(o, y, messages) == expect


def test_census_guard_on_huge_cosets():
    o = build_oracles(Params(n=40, r=10, ell=2, perm_mode="feistel"), SEED)
    with pytest.raises(ValueError):
        coset_points(o, BitVec(10, 0))


# -- collapse distinguisher ---------------------------------------------


def test_collapse_acceptance_closed_form():
    got = collapse_acceptance_exact(6, 2)
    assert got == Fraction(1, 2) + Fraction(48, 32 * 63)
    assert abs(float(got) - 0.5238095238095238) < 1e-15


def first_half_count_pmf(n, r):
    """Law of k, the fiber points with first bit 0, when the fiber is a
    uniform 2^(n-r)-subset of the 2^n inputs (hypergeometric)."""
    size, fiber, half = 1 << n, 1 << (n - r), 1 << (n - 1)
    total = math.comb(size, fiber)
    return {
        k: Fraction(math.comb(half, k) * math.comb(half, fiber - k), total)
        for k in range(fiber + 1)
    }


@pytest.mark.parametrize("n, r", [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3), (8, 3)])
def test_hypergeometric_split_gives_the_closed_form(n, r):
    fiber = 1 << (n - r)
    pmf = first_half_count_pmf(n, r)
    assert sum(pmf.values()) == 1
    mean = sum(p * Fraction(k * k + (fiber - k) ** 2, fiber * fiber) for k, p in pmf.items())
    assert mean == collapse_acceptance_exact(n, r)


def test_hypergeometric_law_matches_every_fiber_of_a_small_world():
    # every 4-subset of 16 inputs is equally likely to be the fiber of y
    n, r = 4, 2
    subsets = list(itertools.combinations(range(16), 4))
    counts = Counter(sum(x < 8 for x in fiber) for fiber in subsets)
    pmf = first_half_count_pmf(n, r)
    assert {k: Fraction(c, len(subsets)) for k, c in counts.items()} == pmf
    acc = sum(Fraction(k * k + (4 - k) ** 2, 16) * c for k, c in counts.items()) / len(subsets)
    assert acc == collapse_acceptance_exact(n, r)


def test_distinguisher_hash_only_is_exactly_one():
    rep = run_collapse_distinguisher(6, 2, "hash-only", 64, SEED)
    assert rep.passed
    (metric,) = [m for m in rep.metrics if m.id == "acceptance_always_one"]
    assert metric.estimate == 1.0


def test_hash_only_distinguisher_builds_no_world_and_takes_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a hash-only world was built or reduced on its own")

    monkeypatch.setattr(OracleSet, "__init__", refuse)
    monkeypatch.setattr(BitMatrix, "left_kernel", refuse)
    rep = run_collapse_distinguisher(6, 2, "hash-only", 10_000, default_seed())
    (metric,) = rep.metrics
    assert metric.id == "acceptance_always_one" and metric.estimate == 1.0


@pytest.mark.parametrize("case", sorted(DISTINGUISHER_TRIALS))
@pytest.mark.parametrize("trials", [0, -3])
def test_distinguisher_refuses_fewer_than_one_trial(case, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_collapse_distinguisher(6, 2, case, trials, SEED)


def test_distinguisher_query_profiles_are_pinned():
    with metered() as spent:
        run_collapse_distinguisher(6, 2, "hash-only", 50, SEED)
    assert spent == {"D": 200}  # the 2^r dual points of each world
    with metered() as spent:
        validate_collapse_shortcut(6, 2, SEED)
    assert spent == {"P": 80, "D": 320}  # per world: 2^(n-r) preimages, 2^n dual points


def test_a_wrong_dual_basis_fails_the_hash_only_check(monkeypatch):
    # one basis vector of the bulk kernel moved off the dual: half of each
    # world's points must fail the bulk dual check, so no world accepts surely
    real = distlab._kernel_bases

    def skewed(rows, n):
        basis = real(rows, n)
        held = np.bitwise_or.reduce(rows, axis=1)  # e_i is off the dual iff some row holds i
        basis[:, -1] ^= held & -held
        return basis

    monkeypatch.setattr(distlab, "_kernel_bases", skewed)
    rep = run_collapse_distinguisher(6, 2, "hash-only", 20, SEED)
    (metric,) = rep.metrics
    assert metric.id == "acceptance_always_one"
    assert not metric.passed and metric.estimate == 0.0


def test_a_dual_check_that_skips_the_last_column_fails_the_hash_only_check(monkeypatch):
    # _dual_hits with its column loop one short: a point can no longer
    # show an even parity with every column, so no world accepts surely
    def skipping(points, cols):
        even = np.zeros(points.shape, np.uint8)
        for col in cols.T[:-1]:
            even += (np.bitwise_count(points & col[:, None]) & 1) ^ 1
        return np.count_nonzero(even == cols.shape[1], axis=1)

    monkeypatch.setattr(distlab, "_dual_hits", skipping)
    rep = run_collapse_distinguisher(6, 2, "hash-only", 20, SEED)
    (metric,) = rep.metrics
    assert not metric.passed and metric.estimate == 0.0


def _reference_world(o, y):
    """One hash-only world, checked on its own OracleSet: the generator's
    columns, the points of its left kernel and how many pass the dual
    check, asked of dual_check one point at a time."""
    gen, _ = o.coset_of(y)
    points = gen.left_kernel().element_ints()
    n = o.params.n
    return gen.col_words, points, sum(o.dual_check(1, y, BitVec(n, w)) for w in points)


def _hash_only_acceptance(o, y):
    """Acceptance with the coset register intact: the dual check averaged
    over the dual of the generator, which the transformed state is
    uniform over."""
    _, points, hits = _reference_world(o, y)
    return hits / len(points)


def _reference_worlds(n, r, trials, seed):
    """The per-world reference for the bulk hash-only pass: for each
    trial, its world built on its own, as run_collapse_distinguisher did
    before the bulk pass, with the world's points sorted."""
    params = Params(n=n, r=r, ell=0, variant="original", perm_mode="feistel")
    for t in range(trials):
        world_seed = _trial_seed(seed, t)
        o = build_oracles(params, world_seed)
        cols, points, hits = _reference_world(o, SeededStream(world_seed, b"pick-y").bitvec(r))
        yield cols, sorted(points), hits


def _bulk_worlds(n, r, trials, seed):
    """The bulk pass's worlds in the reference's form."""
    params = Params(n=n, r=r, ell=0, variant="original", perm_mode="feistel")
    for cols, points, hits in _hash_only_worlds(params, trials, seed):
        for c, p, h in zip(cols.tolist(), points, hits.tolist()):
            yield tuple(c), sorted(p.tolist()), h


@pytest.mark.parametrize("n, r, trials", [(6, 2, 2000), (20, 8, 200), (64, 16, 2)])
def test_bulk_hash_only_worlds_match_the_per_world_reference(n, r, trials):
    bulk = list(_bulk_worlds(n, r, trials, SEED))
    assert bulk == list(_reference_worlds(n, r, trials, SEED))
    assert all(len(points) == hits == 1 << r for _, points, hits in bulk)


def test_worlds_whose_slab_runs_out_take_the_derived_columns(monkeypatch):
    # with one-byte blocks a (6, 2) world's slab holds 5 candidates, so a
    # world that rejects two of them runs out and derives (68 of 2,000)
    derived = []
    real = distlab._coset_deriver

    def counted(params, seed):
        derived.append(seed)
        return real(params, seed)

    monkeypatch.setattr(distlab, "_SLAB_BLOCK", 1)
    monkeypatch.setattr(distlab, "_coset_deriver", counted)
    bulk = list(_bulk_worlds(6, 2, 2000, SEED))
    assert 0 < len(derived) < 2000
    assert bulk == list(_reference_worlds(6, 2, 2000, SEED))


def test_distinguisher_first_bit_matches_closed_form():
    rep = run_collapse_distinguisher(6, 2, "hash-first-bit", 20_000, SEED)
    assert rep.passed
    mean = next(m for m in rep.metrics if m.id == "acceptance_mean")
    assert abs(mean.estimate - float(collapse_acceptance_exact(6, 2))) < 0.02
    adv = next(m for m in rep.metrics if m.id == "advantage_over_quarter")
    assert adv.estimate > 0.25


def test_hash_only_worlds_need_no_table():
    # the hash-only case builds Feistel worlds: for each trial seed they
    # must carry the table world's coset and acceptance
    for t in range(200):
        world_seed = _trial_seed(SEED, t)
        table, feistel = (
            build_oracles(Params(n=6, r=2, ell=0, variant="original", perm_mode=mode), world_seed)
            for mode in ("table", "feistel")
        )
        y = SeededStream(world_seed, b"pick-y").bitvec(2)
        assert table.coset_of(y) == feistel.coset_of(y)
        assert _hash_only_acceptance(table, y) == _hash_only_acceptance(feistel, y) == 1


def test_grover_worlds_need_no_table():
    # the grover and backends batteries build Feistel worlds: at their
    # shapes and seeds every y must carry the table world's coset and dual levels
    shapes = [(6, 2, 2), (7, 2, 3), (8, 3, 2), (9, 3, 4), (10, 4, 3)]
    worlds = [(shapes[t % 5], _world_seed(default_seed(), "grover", t)) for t in range(20)]
    worlds.append(((14, 4, 8), _world_seed(default_seed(), "grover-cycle", 0)))
    shapes = [(8, 3, 2), (9, 3, 3), (10, 4, 4), (11, 4, 2), (12, 4, 6)]
    worlds += [(shapes[t % 5], _world_seed(default_seed(), "bridge", t)) for t in range(50)]
    for (n, r, ell), world_seed in worlds:
        table, feistel = (
            build_oracles(Params(n=n, r=r, ell=ell, perm_mode=mode), world_seed)
            for mode in ("table", "feistel")
        )
        for yv in range(1 << r):
            y = BitVec(r, yv)
            assert table.coset_of(y) == feistel.coset_of(y)
            for j in range(1, ell + 2):
                assert table.dual_support(j, y) == feistel.dual_support(j, y)


def test_distinguisher_rejects_unknown_case():
    with pytest.raises(ValueError):
        run_collapse_distinguisher(6, 2, "sideways", 10, SEED)


# -- report plumbing ----------------------------------------------------


def test_report_json_and_render():
    metric = Metric(id="thing", estimate=1.5, expected=1.0, source="oracle", passed=False)
    rep = ExperimentReport(
        name="demo", params={"n": 6}, metrics=[metric], seed="00", trials=3
    )
    doc = rep.to_json()
    assert doc["name"] == "demo"
    assert doc["metrics"][0]["pass"] is False
    assert not rep.passed
    text = rep.render()
    assert "FAIL" in text and "thing" in text


def test_exact_compares_before_rounding():
    # 2^-1100 rounds to 0.0 but is not 0
    metric = Metric.exact("x", Fraction(1, 2**1100), 0)
    assert (metric.estimate, metric.expected, metric.passed) == (0.0, 0.0, False)
    assert Metric.exact("x", Fraction(0), 0).passed


@pytest.mark.parametrize(
    "got, want, passed", [(99 / 100, 1, False), (100 / 100, 1, True), (3, 4, False), (4, 4, True)]
)
def test_exact_passes_a_rate_or_a_count_only_when_equal(got, want, passed):
    metric = Metric.exact("x", got, want)
    assert (metric.estimate, metric.expected, metric.passed) == (float(got), float(want), passed)


def test_residual_fails_at_its_bound():
    assert Metric.residual("x", 0.5e-10, 1e-10, "d").passed
    assert not Metric.residual("x", 1e-10, 1e-10, "d").passed
    assert not Metric.residual("x", float("nan"), 1e-10, "d").passed


@pytest.mark.parametrize(
    "built, by_hand",
    [
        (
            Metric.exact("census_deviations", 0, 0, "levels"),
            Metric(id="census_deviations", estimate=0.0, expected=0.0, source="theory", passed=True, detail="levels"),
        ),
        (
            Metric.exact("accept_rate", 100 / 100, 1),
            Metric(id="accept_rate", estimate=1.0, expected=1.0, source="theory", passed=True),
        ),
        (
            Metric.exact("profile", False, True, "spent", source="oracle"),
            Metric(id="profile", estimate=0.0, expected=1.0, source="oracle", passed=False, detail="spent"),
        ),
        (
            Metric.residual("bridge_error", 3e-16, 1e-10, "dense"),
            Metric(id="bridge_error", estimate=3e-16, expected=0.0, source="theory", passed=True, detail="dense"),
        ),
    ],
)
def test_constructed_metrics_serialize_as_the_hand_written_ones(built, by_hand):
    doc = built.to_json()
    assert list(doc.items()) == list(by_hand.to_json().items())  # key order too
    assert not any(key.startswith("ci_") for key in doc)
    assert ("detail" in doc) == bool(built.detail)
