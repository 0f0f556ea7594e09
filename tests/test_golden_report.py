"""The default-seed acceptance report, pinned value by value.

``experiments_default_seed.json`` is ``osslab experiments --json`` for the
default seed without its ten ``runtime_seconds`` metrics.  A fresh run
must reproduce it: every exact value exactly, each float residual within
the bound its own battery applies, and the distinguisher's two Monte
Carlo means exactly.  A change that moves the evidence on purpose
regenerates the file and says why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from osslab import cli

GOLDEN = json.loads(Path(__file__).with_name("experiments_default_seed.json").read_text())

# Float residuals near machine epsilon, which can move with numpy or BLAS:
# each is held to its battery's own pass bound (suites.py), not to the
# pinned digits.
RESIDUAL_BOUNDS = {
    ("grover-identity", "single_iteration_error"): 1e-10,
    ("backend-equivalence", "bridge_error"): 1e-10,
    ("collapse-distinguisher", "census_shortcut_vs_dense"): 1e-10,
}
# Seeded Monte Carlo means, fixed by numpy's Generator stream.
MONTE_CARLO = {
    ("collapse-distinguisher", "acceptance_mean"),
    ("collapse-distinguisher", "advantage_over_quarter"),
}
KEYS = [(rep["name"], m["id"]) for rep in GOLDEN["reports"] for m in rep["metrics"]]


def by_key(payload):
    return {(rep["name"], m["id"]): m for rep in payload["reports"] for m in rep["metrics"]}


@pytest.fixture(scope="module")
def fresh():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["experiments", "--json"]) == 0
    payload = json.loads(out.getvalue())
    for rep in payload["reports"]:
        runtime = rep["metrics"].pop()
        assert runtime["id"] == "runtime_seconds"
    return payload


def test_golden_holds_every_metric_but_the_run_times():
    assert len(GOLDEN["reports"]) == 10
    assert len(KEYS) == len(set(KEYS)) == 26
    assert all(metric != "runtime_seconds" for _, metric in KEYS)
    assert set(RESIDUAL_BOUNDS) | MONTE_CARLO <= set(KEYS)


def test_reports_match_the_golden_outside_their_metrics(fresh):
    def frame(payload):
        return [
            {**rep, "metrics": [m["id"] for m in rep["metrics"]]} for rep in payload["reports"]
        ]

    assert frame(fresh) == frame(GOLDEN)


@pytest.mark.parametrize("key", KEYS, ids=["/".join(k) for k in KEYS])
def test_metric_matches_the_golden(fresh, key):
    got, want = by_key(fresh)[key], by_key(GOLDEN)[key]
    if key in RESIDUAL_BOUNDS:
        assert {**got, "estimate": None} == {**want, "estimate": None}
        assert 0.0 <= got["estimate"] < RESIDUAL_BOUNDS[key], got
    elif key in MONTE_CARLO:
        assert got == want, (
            f"{key} differs from the golden: {got} != {want}.  This mean is a seeded "
            "Monte Carlo estimate over numpy's Generator stream, which NEP 19 does not "
            "promise to keep stable across numpy versions; if numpy changed, regenerate "
            "the golden and say why."
        )
    else:
        assert got == want
