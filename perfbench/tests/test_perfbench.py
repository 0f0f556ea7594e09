"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import osslab  # noqa: E402
from osslab import distlab, gf2, qsim, scheme, suites  # noqa: E402
from osslab.gf2 import BitMatrix, BitVec  # noqa: E402
from osslab.oracles import Params, build_oracles  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "symbolic-wide": dict(params=Params(n=16, r=6, ell=4, perm_mode="feistel"), setup_reps=1, trace_units=5),
    "verify-fanout": dict(params=Params(n=12, r=4, ell=3, perm_mode="feistel"), setup_reps=1, trace_units=5),
    "acceptance": dict(batteries=("queries", "hashsign", "distinguisher"), setup_reps=1, trace_units=1),
}


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name):
    res = workloads.run(tiny(name), seed=3, seconds=0.2, trace=False)
    assert res.failed == 0 and res.attempted > 0
    assert list(res.metrics) == [m for m, _, _ in workloads.END_TO_END]
    assert all(value > 0 for value, _ in res.metrics.values())
    assert res.to_json()["correct"] is True

    traced = workloads.run(tiny(name), seed=3, seconds=0.2, trace=True)
    assert traced.failed == 0
    assert list(traced.metrics) == [m for m, _, _ in workloads.PER_LAYER]
    m = {k: v for k, (v, _) in traced.metrics.items()}
    if name != "acceptance":
        ell = tiny(name).params.ell
        assert m["oracles.queries_per_gen"] == 0
        assert m["oracles.queries_per_sign"] == ell
        assert m["oracles.queries_per_verify"] == 1
        assert m["trace.units"] == tiny(name).trace_units


def test_wrong_accept_is_counted_and_fails_the_run(monkeypatch):
    real_verify = scheme.verify
    # Spends its decode query as the real one does, then accepts anything.
    monkeypatch.setattr(scheme, "verify", lambda o, pk, m, sig: real_verify(o, pk, m, sig) or True)
    w = tiny("verify-fanout")
    res = workloads.run(w, seed=1, seconds=0.2, trace=False)
    assert res.failed > 0
    # Only the flipped-message verifies are wrong; every other op passes.
    cycles = res.notes["cycles"] + w.warm_cycles * w.setup_reps
    assert res.failed == cycles * w.rejects
    assert res.failed_frac == res.failed / res.attempted
    assert res.to_json()["correct"] is False

    monkeypatch.setitem(workloads.WORKLOADS, "verify-fanout", w)
    assert run.main(["--workload", "verify-fanout", "--seconds", "0.2"]) == 1


def test_tracer_wraps_every_binding_and_restores():
    originals = (qsim.walsh_hadamard, distlab.coset_points, scheme.generate, BitMatrix.__dict__["left_kernel"])
    with Tracer():
        assert distlab.walsh_hadamard is qsim.walsh_hadamard
        assert qsim.walsh_hadamard.__wrapped__ is originals[0]
        assert suites.coset_points is distlab.coset_points
        assert distlab.coset_points.__wrapped__ is originals[1]
        assert osslab.generate is scheme.generate
        assert scheme.generate.__wrapped__ is originals[2]
        assert BitMatrix.__dict__["left_kernel"].__wrapped__ is originals[3]
    assert (qsim.walsh_hadamard, distlab.coset_points, scheme.generate, BitMatrix.__dict__["left_kernel"]) == originals
    assert distlab.walsh_hadamard is originals[0] and osslab.generate is originals[2]


def test_self_time_subtracts_children_and_gf2_folds():
    tracer = Tracer()
    mat = BitMatrix.from_rows([BitVec.from_str("1010"), BitVec.from_str("0110")])
    with tracer:
        tracer.recording = True
        with tracer.span("outer"):
            mat.left_kernel()  # calls null_space -> Subspace.from_words inside gf2
            gf2.Subspace.from_words(4, [3, 5])
    s = tracer.summary()
    assert s["gf2.left_kernel"]["calls"] == 1
    assert s["gf2.subspace_from_words"]["calls"] == 1  # the nested one is folded
    children = s["gf2.left_kernel"]["wall_s"] + s["gf2.subspace_from_words"]["wall_s"]
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["wall_s"] - children, abs=1e-12)
    assert s["gf2.left_kernel"]["self_s"] == s["gf2.left_kernel"]["wall_s"]


def test_derive_hits_count_first_sightings():
    o = build_oracles(Params(n=12, r=4, ell=3, perm_mode="feistel"), bytes(32))
    tracer = Tracer()
    with tracer:
        tracer.recording = True
        o.cosets.derive(5)
        o.cosets.derive(5)
        o.cosets.derive(6)
    assert (tracer.derive_calls, tracer.derive_hits) == (3, 1)


def test_piecewise_scaling_leaves_out_calibrations():
    ref = workloads.REF_S
    # Five calibrations before the stretch [10, 20), one inside at 14 and
    # five after; the ones near the inner one run at half the reference speed.
    log = [(float(i), ref) for i in range(5)] + [(14.0, 2 * ref)] + [(21.0 + i, 2 * ref) for i in range(5)]
    scaled, factors = workloads._piecewise(log, 10.0, 20.0, [11.0, 15.0])
    # [10, 14) is scaled by the median of the three calibrations before
    # it and the two after its end: ref, ref, ref, 2 ref, 2 ref -> 1.
    # [14 + 2 ref, 20) by ref, ref, 2 ref, 2 ref, 2 ref -> 1/2.
    assert factors == [1.0, 0.5]
    assert scaled == pytest.approx(4.0 * 1.0 + (6.0 - 2 * ref) * 0.5)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify-fanout", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
