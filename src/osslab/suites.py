"""Acceptance suites: the checks the whole artifact is judged by.

Each suite is a fixed experiment: it takes only a master seed, builds
its own worlds from it at one defined size, measures, and returns its
params, metrics and trial count.  The ``_battery`` harness does the
rest in one place: it times the body, closes the metrics with the
runtime budget, builds the ExperimentReport and registers the suite in
SUITES.  The CLI runs them via ``osslab experiments`` and the test
suite asserts on the same reports, so there is exactly one definition
of "passing".
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections.abc import Callable

import numpy as np

from . import coset as _coset
from . import qsim as _qsim
from . import scheme as _scheme
from .distlab import (
    DISTINGUISHER_TRIALS,
    ExperimentReport,
    Metric,
    chain_by_basis,
    chain_by_matrix,
    chain_by_shear,
    chain_by_syndrome,
    chain_by_vector,
    coset_points,
    exact_distribution,
    run_collapse_distinguisher,
    signature_set_census,
    tv_distance,
    validate_collapse_shortcut,
)
from .gf2 import BitVec, sample_full_column_rank
from .oracles import Params, SeededStream, build_oracles, metered

__all__ = ["SUITES", "run_suite", "default_seed"]


def default_seed() -> bytes:
    return hashlib.blake2b(b"osslab-acceptance", digest_size=32).digest()


def _world_seed(seed: bytes, label: str, index: int) -> bytes:
    data = label.encode() + index.to_bytes(4, "big")
    return hashlib.blake2b(data, key=seed, digest_size=32).digest()


def _rng(seed: bytes, label: str, index: int = 0) -> np.random.Generator:
    raw = _world_seed(seed, "rng-" + label, index)
    return np.random.default_rng(int.from_bytes(raw[:8], "big"))


_Outcome = tuple[dict, list[Metric], int]  # a battery body's (params, metrics, trials)

SUITES: dict[str, Callable[[bytes], ExperimentReport]] = {}


def _battery(key: str, name: str, budget: float):
    """Register a battery body under ``key``, in definition order.

    The body takes only the master seed and returns ``(params, metrics,
    trials)``.  The harness times it, appends the ``runtime_seconds``
    metric against ``budget`` last, and wraps the lot in the battery's
    ExperimentReport.
    """

    def register(body: Callable[[bytes], _Outcome]):
        @functools.wraps(body)
        def suite(seed: bytes) -> ExperimentReport:
            started = time.perf_counter()
            params, metrics, trials = body(seed)
            elapsed = time.perf_counter() - started
            # a budget on wall time, not a residual that should be 0
            runtime = Metric(
                id="runtime_seconds",
                estimate=elapsed,
                expected=budget,
                source="oracle",
                passed=elapsed < budget,
                detail=f"budget {budget:.0f}s",
            )
            return ExperimentReport(
                name=name, params=params, metrics=[*metrics, runtime], seed=seed.hex(), trials=trials
            )

        SUITES[key] = suite
        return suite

    return register


# -- 1: perfect correctness --------------------------------------------


@_battery("correctness", "correctness", 5.0)
def suite_correctness(seed: bytes) -> _Outcome:
    trials = 100
    params = Params(n=8, r=3, ell=2)
    ok = {"statevector": 0, "symbolic": 0}
    for t in range(trials):
        o = build_oracles(params, _world_seed(seed, "correct", t))
        for backend in ("statevector", "symbolic"):
            rng = _rng(seed, f"correct-{backend}", t)
            pk, sk = _scheme.generate(o, backend, rng)
            m = BitVec(2, int(rng.integers(0, 4)))
            sig = _scheme.sign(o, pk, sk, m, rng)
            if _scheme.verify(o, pk, m, sig):
                ok[backend] += 1
    metrics = [
        Metric.exact(f"accept_rate_{backend}", ok[backend] / trials, 1, "sign-then-verify must never fail")
        for backend in ("statevector", "symbolic")
    ]
    return {"n": 8, "r": 3, "l": 2, "backends": 2}, metrics, trials


# -- 2: one-iteration identity and the 8-step phase cycle ---------------


def _fresh_level_state(n: int, pts: np.ndarray, m, depth) -> _qsim.StateVector:
    """Real uniform superposition over the n-bit coset points ``pts`` whose
    first ``depth`` bits equal the message prefix (no phase)."""
    if depth:
        pts = pts[(pts >> (n - depth)) == m.prefix(depth).bits]
    return _qsim.StateVector.from_support(n, pts)


@_battery("grover", "grover-identity", 30.0)
def suite_grover(seed: bytes) -> _Outcome:
    """Reads only coset_points and dual_support, which never touch the
    permutation, so its worlds are Feistel ones, with the same cosets as
    the table worlds of the same seeds."""
    worlds = 20
    shapes = [(6, 2, 2), (7, 2, 3), (8, 3, 2), (9, 3, 4), (10, 4, 3)]
    worst = 0.0
    for t in range(worlds):
        n, r, ell = shapes[t % len(shapes)]
        params = Params(n=n, r=r, ell=ell, perm_mode="feistel")
        o = build_oracles(params, _world_seed(seed, "grover", t))
        rng = _rng(seed, "grover", t)
        y = _scheme.draw_key(o, rng)
        m = BitVec(ell, int(rng.integers(0, 1 << ell)))
        pts = coset_points(o, y)  # every level of the walk is a slice of it
        for step in range(1, ell + 1):
            state = _fresh_level_state(n, pts, m, step - 1)
            _qsim.phase_prefix(state, step, m)
            _qsim.phase_dual(state, step, y, o)
            target = _fresh_level_state(n, pts, m, step)
            target.amp *= _coset.STEP_PHASE
            worst = max(worst, float(np.max(np.abs(state.amp - target.amp))))
    detail = "one walk iteration maps level j-1 to ((i-1)/sqrt2) x level j"
    metrics = [Metric.residual("single_iteration_error", worst, 1e-10, detail)]
    params = Params(n=14, r=4, ell=8, perm_mode="feistel")
    o = build_oracles(params, _world_seed(seed, "grover-cycle", 0))
    rng = _rng(seed, "grover-cycle", 0)
    y = _scheme.draw_key(o, rng)
    m = BitVec(8, int(rng.integers(0, 256)))
    pts = coset_points(o, y)
    state = _fresh_level_state(params.n, pts, m, 0)
    for step in range(1, 9):
        _qsim.phase_prefix(state, step, m)
        _qsim.phase_dual(state, step, y, o)
    target = _fresh_level_state(params.n, pts, m, 8)
    phase = complex(np.vdot(target.amp, state.amp))
    phase_err = abs(phase - 1.0)
    detail = "((i-1)/sqrt2)^8 = 1: full 8-step walk at l=8 carries phase 1"
    metrics.append(Metric.residual("eight_step_phase", phase_err, 1e-9, detail))
    return {"worlds": worlds, "cycle_world": {"n": 14, "r": 4, "l": 8}}, metrics, worlds


# -- 3: backend equivalence ---------------------------------------------


@_battery("backends", "backend-equivalence", 30.0)
def suite_backends(seed: bytes) -> _Outcome:
    """Feistel worlds, as in suite_grover: only cosets and dual levels are read."""
    pairs = 50
    shapes = [(8, 3, 2), (9, 3, 3), (10, 4, 4), (11, 4, 2), (12, 4, 6)]
    worst = 0.0
    for t in range(pairs):
        n, r, ell = shapes[t % len(shapes)]
        o = build_oracles(Params(n=n, r=r, ell=ell, perm_mode="feistel"), _world_seed(seed, "bridge", t))
        draw = _rng(seed, "bridge", t)
        y, sv = _qsim.generate_keypair_state(o, _rng(seed, "bridge", t))
        cst = _scheme.key_state(o, "symbolic", y)
        m = BitVec(ell, int(draw.integers(0, 1 << ell)))
        for step in range(1, ell + 1):
            _qsim.phase_prefix(sv, step, m)
            _qsim.phase_dual(sv, step, y, o)
            cst = _coset.grover_step(cst, step, m)
            bridge = _coset.to_statevector(cst)
            worst = max(worst, float(np.max(np.abs(sv.amp - bridge.amp))))
    detail = "symbolic lowering equals dense evolution at every iteration"
    metrics = [Metric.residual("bridge_error", worst, 1e-10, detail, source="oracle")]
    return {"pairs": pairs}, metrics, pairs


# -- 4: signature-set census --------------------------------------------


@_battery("census", "signature-census", 5.0)
def suite_census(seed: bytes) -> _Outcome:
    worlds, messages = 10, 4
    params = Params(n=32, r=16, ell=8, perm_mode="feistel")
    deviations = 0
    checked = 0
    for t in range(worlds):
        o = build_oracles(params, _world_seed(seed, "census", t))
        rng = _rng(seed, "census", t)
        y = _scheme.draw_key(o, rng)
        ms = [BitVec(8, int(rng.integers(0, 256))) for _ in range(messages)]
        for counts in signature_set_census(o, y, ms):
            for j, c in enumerate(counts):
                checked += 1
                if c != 1 << (32 - 16 - j):
                    deviations += 1
    detail = f"levels checked: {checked}; each must hold exactly 2^(n-r-j) points"
    metrics = [Metric.exact("census_deviations", deviations, 0, detail)]
    return {"n": 32, "r": 16, "l": 8, "worlds": worlds, "messages": messages}, metrics, worlds * messages


# -- 5: chain distribution equalities -----------------------------------


@_battery("distributions", "chain-distributions", 60.0)
def suite_distributions(seed: bytes) -> _Outcome:
    metrics: list[Metric] = []

    def toy(n, r, tag):
        return sample_full_column_rank(SeededStream(seed, b"dist", tag.encode()), n, n - r)

    for n, r, ell in [(4, 1, 1), (5, 1, 2)]:
        mat = toy(n, r, f"v{n}{r}{ell}")
        d1 = exact_distribution(chain_by_vector(mat, n, r, ell))
        d2 = exact_distribution(chain_by_syndrome(mat, n, r, ell))
        d3 = exact_distribution(chain_by_shear(mat, n, r, ell))
        for other, name in [(d2, "syndrome"), (d3, "shear")]:
            tv = tv_distance(d1, other)
            detail = "exact enumeration over the full randomness domain"
            metrics.append(Metric.exact(f"tv_vector_vs_{name}_{n}_{r}_{ell}", tv, 0, detail))
    for n, r, ell, s in [(4, 1, 1, 1), (6, 1, 1, 2)]:
        mat = toy(n, r, f"m{n}{r}{ell}{s}")
        db = exact_distribution(chain_by_basis(mat, n, r, ell, s))
        dm = exact_distribution(chain_by_matrix(mat, n, r, ell, s))
        tv = tv_distance(db, dm)
        metrics.append(Metric.exact(f"tv_basis_vs_matrix_s{s}", tv, 0, f"exact at (n={n}, r={r}, l={ell})"))
        if s == 1:
            detail = "2^(n-r) - 2^l distinct tuples at s = 1"
            metrics.append(Metric.exact("support_size_s1", len(db), (1 << (n - r)) - (1 << ell), detail))
    return {"single": [[4, 1, 1], [5, 1, 2]], "widened": [[4, 1, 1, 1], [6, 1, 1, 2]]}, metrics, 0


# -- 6: collapse distinguisher ------------------------------------------


@_battery("distinguisher", "collapse-distinguisher", 120.0)
def suite_distinguisher(seed: bytes) -> _Outcome:
    trials = DISTINGUISHER_TRIALS["hash-first-bit"]
    hash_only_trials = DISTINGUISHER_TRIALS["hash-only"]
    only = run_collapse_distinguisher(6, 2, "hash-only", hash_only_trials, seed)
    first = run_collapse_distinguisher(6, 2, "hash-first-bit", trials, seed)
    shortcut_err = validate_collapse_shortcut(6, 2, seed)
    metrics = list(only.metrics) + list(first.metrics)
    detail = "per-world census acceptance equals dense simulation"
    metrics.append(Metric.residual("census_shortcut_vs_dense", shortcut_err, 1e-10, detail, source="oracle"))
    params = {"n": 6, "r": 2, "mc_trials": trials, "hash_only_trials": hash_only_trials}
    return params, metrics, trials + hash_only_trials


# -- 7: collision extraction --------------------------------------------


@_battery("collisions", "collision-extraction", 10.0)
def suite_collisions(seed: bytes) -> _Outcome:
    worlds = 5
    params = Params(n=8, r=3, ell=2)
    failures = 0
    pairs_checked = 0
    for t in range(worlds):
        o = build_oracles(params, _world_seed(seed, "collide", t))
        rng = _rng(seed, "collide", t)
        pk, _ = _scheme.generate(o, "symbolic", rng)
        pts = coset_points(o, pk.y)
        valid = [(BitVec(8, int(w)).prefix(2), _scheme.Signature(BitVec(8, int(w)))) for w in pts]
        for a in range(len(valid)):
            for b in range(a + 1, len(valid)):
                pairs_checked += 1
                x0, x1 = _scheme.extract_collision(o, pk, valid[a], valid[b])
                same_hash = o.hash_bits(x0) == o.hash_bits(x1) == pk.y
                if x0 == x1 or not same_hash:
                    failures += 1
    detail = f"all {pairs_checked} distinct valid pairs yield x0 != x1 with equal hash"
    metrics = [Metric.exact("collision_failures", failures, 0, detail)]
    return {"n": 8, "r": 3, "l": 2, "worlds": worlds}, metrics, pairs_checked


# -- 8: incompressible variant ------------------------------------------


@_battery("incompressible", "incompressible", 5.0)
def suite_incompressible(seed: bytes) -> _Outcome:
    runs = 100
    params = Params(n=8, r=3, ell=2, variant="incompressible")
    ok = 0
    decode_free = 0
    structural = 0
    for t in range(runs):
        o = build_oracles(params, _world_seed(seed, "incompress", t))
        rng = _rng(seed, "incompress", t)
        backend = "statevector" if t % 2 == 0 else "symbolic"
        pk, sk = _scheme.generate(o, backend, rng)
        m = BitVec(1, int(rng.integers(0, 2)))
        sig = _scheme.sign(o, pk, sk, m, rng)
        with metered() as spent:
            accepted = _scheme.verify(o, pk, m, sig)
        if accepted:
            ok += 1
        if "Pinv" not in spent and spent.get("D0") == 1:
            decode_free += 1
        gen, shift = o.coset_of(pk.y)
        diff = sig.sigma ^ shift
        in_span = gen.solve(diff) is not None
        if in_span and diff.bits != 0 and shift.bit(2) == 1 and sig.sigma.bit(2) == 0:
            structural += 1
    metrics = [
        Metric.exact("accept_rate", ok / runs, 1),
        Metric.exact(
            "decode_free_verifies",
            decode_free / runs,
            1,
            "verification spends one membership query and zero decode queries",
        ),
        Metric.exact(
            "structural_signatures",
            structural / runs,
            1,
            "sigma - shift is a nonzero column-span point; forced shift bit holds",
        ),
    ]
    return {"n": 8, "r": 3, "l": 2, "runs": runs}, metrics, runs


# -- 9: hash-and-sign ---------------------------------------------------


@_battery("hashsign", "hash-and-sign", 30.0)
def suite_hashsign(seed: bytes) -> _Outcome:
    params = Params(n=40, r=20, ell=8, perm_mode="feistel")
    o = build_oracles(params, _world_seed(seed, "hashsign", 0))
    stream = SeededStream(seed, b"hashsign-msgs")
    lengths = [0, 1, 1024, 1 << 20]
    # A tamper msg + b"x" keeps msg's 8-bit digest with probability 1/256,
    # and then the signature must carry over to it as to any digest twin.
    round_trips = moved = rejects = wrong = 0
    for i, ln in enumerate(lengths):
        msg = stream.read(ln)
        rng = _rng(seed, "hashsign", i)
        pk, sk = _scheme.generate(o, "symbolic", rng)
        digest = _scheme.rom_hash(o.seed, msg, params.ell)  # what hs_sign signs
        sig = _scheme.sign(o, pk, sk, digest, rng)
        round_trips += _scheme.verify(o, pk, digest, sig)
        tampered = _scheme.rom_hash(o.seed, msg + b"x", params.ell)
        accepted = _scheme.verify(o, pk, tampered, sig)
        moved += tampered != digest
        rejects += not accepted
        wrong += accepted == (tampered != digest)  # accepted a moved digest, or rejected a kept one
    # Birthday collision on the 8-bit digest: a signature for one message
    # transfers to any message with the same digest.
    target = b"birthday-0"
    digest = _scheme.rom_hash(o.seed, target, 8)
    partner = None
    for i in range(1, 200_000):
        cand = b"birthday-%d" % i
        if _scheme.rom_hash(o.seed, cand, 8) == digest:
            partner = cand
            break
    rng = _rng(seed, "hashsign-birthday", 0)
    pk, sk = _scheme.generate(o, "symbolic", rng)
    sig = _scheme.hs_sign(o, pk, sk, target, rng)
    transferred = partner is not None and _scheme.hs_verify(o, pk, partner, sig)
    metrics = [
        Metric.exact("round_trips", round_trips, len(lengths), "lengths 0 B, 1 B, 1 KiB, 1 MiB"),
        # stronger than rejects == moved: no tamper may be answered against its digest
        Metric("tamper_rejects", float(rejects), float(moved), "oracle", passed=wrong == 0),
        Metric.exact(
            "digest_collision_transfers",
            transferred,
            True,
            "8-bit digests collide by birthday; the signature follows the digest",
            source="oracle",
        ),
    ]
    return {"n": 40, "r": 20, "l": 8, "lengths": lengths}, metrics, len(lengths) + 1


# -- 10: query profiles -------------------------------------------------


@_battery("queries", "query-profiles", 5.0)
def suite_queries(seed: bytes) -> _Outcome:
    params = Params(n=8, r=3, ell=2)
    metrics: list[Metric] = []
    for backend in ("statevector", "symbolic"):
        o = build_oracles(params, _world_seed(seed, "queries-" + backend, 0))
        rng = _rng(seed, "queries-" + backend, 0)
        with metered() as gen_spent:
            pk, sk = _scheme.generate(o, backend, rng)
        m = BitVec(2, int(rng.integers(0, 4)))
        with metered() as sign_spent:
            sig = _scheme.sign(o, pk, sk, m, rng)
        with metered() as verify_spent:
            _scheme.verify(o, pk, m, sig)
        profile_ok = gen_spent == {} and sign_spent == {"D": 2} and verify_spent == {"Pinv": 1}
        detail = f"gen={gen_spent} sign={sign_spent} verify={verify_spent}"
        metrics.append(Metric.exact(f"profile_{backend}", profile_ok, True, detail))
    return {"n": 8, "r": 3, "l": 2}, metrics, 2


def run_suite(name: str, seed: bytes) -> ExperimentReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](seed)
