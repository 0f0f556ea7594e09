"""Acceptance gate: ten batteries, one pass/fail line each.

Every test runs one suite from osslab.suites against the fixed master
seed, prints a single summary line, and fails if any metric inside the
report (including the runtime budget) fails.  Full report text goes to
captured stdout so failures are self-explaining.  Each battery runs at
one defined size, and its report's name, params, trial count and
runtime budget are pinned.
"""

import inspect

import pytest

from osslab import coset, distlab, gf2, scheme
from osslab.suites import SUITES, default_seed

SEED = default_seed()


def check(number, key, name, budget, params, trials):
    report = SUITES[key](SEED)
    assert (report.name, report.params, report.trials) == (name, params, trials)
    last = report.metrics[-1]
    assert (last.id, last.expected) == ("runtime_seconds", budget)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {number:>2}/10 {report.name}: {verdict}")
    print(report.render())
    assert report.passed, f"criterion {number} ({report.name}) failed:\n{report.render()}"


def test_c01_correctness():
    check(1, "correctness", "correctness", 5.0, {"n": 8, "r": 3, "l": 2, "backends": 2}, 100)


def test_c02_grover_identity():
    params = {"worlds": 20, "cycle_world": {"n": 14, "r": 4, "l": 8}}
    check(2, "grover", "grover-identity", 30.0, params, 20)


def test_c03_backend_equivalence():
    check(3, "backends", "backend-equivalence", 30.0, {"pairs": 50}, 50)


def test_c04_signature_census():
    params = {"n": 32, "r": 16, "l": 8, "worlds": 10, "messages": 4}
    check(4, "census", "signature-census", 5.0, params, 40)


def test_c05_chain_distributions():
    check(
        5,
        "distributions",
        "chain-distributions",
        60.0,
        {"single": [[4, 1, 1], [5, 1, 2]], "widened": [[4, 1, 1, 1], [6, 1, 1, 2]]},
        0,
    )


def test_c06_collapse_distinguisher():
    check(
        6,
        "distinguisher",
        "collapse-distinguisher",
        120.0,
        {"n": 6, "r": 2, "mc_trials": 100_000, "hash_only_trials": 10_000},
        110_000,
    )


def test_c07_collision_extraction():
    check(7, "collisions", "collision-extraction", 10.0, {"n": 8, "r": 3, "l": 2, "worlds": 5}, 2480)


def test_c08_incompressible():
    check(8, "incompressible", "incompressible", 5.0, {"n": 8, "r": 3, "l": 2, "runs": 100}, 100)


def test_c09_hash_and_sign():
    params = {"n": 40, "r": 20, "l": 8, "lengths": [0, 1, 1024, 1 << 20]}
    check(9, "hashsign", "hash-and-sign", 30.0, params, 5)


def test_hashsign_expects_rejections_only_of_tampers_that_move_the_digest():
    # At this master seed one tamper msg + b"x" keeps its message's 8-bit
    # digest, so the signature carries over to it and 3 of 4 are rejected.
    seed = bytes.fromhex("bcab874911d6dfe4ba80fe0be4e0a369bbaa127d8733dd3bb0c371ba20b25255")
    report = SUITES["hashsign"](seed)
    tamper = next(m for m in report.metrics if m.id == "tamper_rejects")
    assert (tamper.estimate, tamper.expected) == (3.0, 3.0)
    assert report.passed, report.render()


def test_tamper_rejects_fails_when_a_wrong_accept_and_a_wrong_reject_cancel(monkeypatch):
    """tamper_rejects is not Metric.exact(rejects, moved).  At the seed
    above, a verifier that rejects the 1 KiB message's kept tamper (call
    5) and accepts message 0's moved tamper (call 1) leaves rejects equal
    to moved (3 = 3), and the battery must fail all the same."""
    seed = bytes.fromhex("bcab874911d6dfe4ba80fe0be4e0a369bbaa127d8733dd3bb0c371ba20b25255")
    honest = scheme.verify
    calls = []

    def inverted(*args):
        calls.append(args)
        return honest(*args) != (len(calls) - 1 in (1, 5))

    monkeypatch.setattr(scheme, "verify", inverted)
    report = SUITES["hashsign"](seed)
    tamper = next(m for m in report.metrics if m.id == "tamper_rejects")
    assert (tamper.estimate, tamper.expected) == (3.0, 3.0)
    assert not tamper.passed and not report.passed


def test_c10_query_profiles():
    check(10, "queries", "query-profiles", 5.0, {"n": 8, "r": 3, "l": 2}, 2)


# The per-element paths a battery must not take.  No battery transposes a
# matrix or builds one from rows; the rest are paths that one battery
# replaced with a bulk one.
NO_BATTERY_TAKES = [
    (gf2, "_transpose_words", "a matrix was transposed"),
    (gf2.BitMatrix, "__init__", "a matrix was built from rows"),
]
SUPPORT_LIST = (coset, "enumerate_support", "a support was enumerated as a list of BitVecs")
REFUSED = {
    "census": [(gf2, "xor_span_ints", "a census coset was enumerated through xor_span_ints")],
    "distributions": [
        (gf2.Subspace, "from_words", "a span was row-reduced from its words"),
        (distlab.chain_by_matrix, "tuple_at", "a matrix chain was looked up one index at a time"),
    ],
    "grover": [SUPPORT_LIST],
    "backends": [SUPPORT_LIST],
}


@pytest.mark.parametrize("key", list(SUITES))
def test_battery_takes_no_refused_path(key, monkeypatch):
    """The hash-only distinguisher's refusals are a test of their own
    (tests/test_distlab.py): the distinguisher battery's dense
    cross-check builds worlds on purpose."""
    for owner, name, what in NO_BATTERY_TAKES + REFUSED.get(key, []):

        def refuse(*args, what=what):
            raise AssertionError(what)

        if isinstance(inspect.getattr_static(owner, name), classmethod):
            refuse = classmethod(refuse)
        monkeypatch.setattr(owner, name, refuse)
    report = SUITES[key](SEED)
    assert report.passed, report.render()


def test_every_battery_takes_only_the_seed():
    # SUITES is built in definition order, which is the order the CLI prints.
    assert list(SUITES) == [
        "correctness",
        "grover",
        "backends",
        "census",
        "distributions",
        "distinguisher",
        "collisions",
        "incompressible",
        "hashsign",
        "queries",
    ]
    for fn in SUITES.values():
        assert list(inspect.signature(fn).parameters) == ["seed"], fn.__name__
