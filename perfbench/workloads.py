"""The osslab benchmark's workloads, their correctness gate and metrics.

A cycle workload builds one world and runs gen -> sign -> verify cycles
on it; the acceptance workload runs the acceptance batteries.  Every
operation is checked as it completes and counts as failed on a wrong
accept or reject, a signature outside the key's coset or off its
message, a query profile other than gen {}, sign {D: l}, verify
{Pinv: 1}, a failing battery, or an exception.

End-to-end times are given at a reference speed of this machine.  On
a shared host the speed of interpreted Python swings by up to 1.6x for
seconds to minutes at a time.  So a fixed pure-Python calibration loop
runs between operations, at most once every ``CAL_GAP_S``, and each
time is multiplied by the loop's reference time ``REF_S`` over its
median time nearby: in the same half-second window of a cycle
workload, or, inside a battery, around the stretch between two
calibrations.  The loop does not touch osslab, so a change to osslab
moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from osslab import oracles, scheme, suites
from osslab.gf2 import BitVec
from osslab.oracles import Params

from spans import SCHEME_TARGETS, Target, Tracer

__all__ = ["Workload", "WORKLOADS", "END_TO_END", "PER_LAYER", "Result", "run"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``params`` is None for the acceptance workload, which runs
    ``batteries`` as its loop.  Each cycle generates a key, signs with
    it, then verifies the signature ``accepts`` times under its message
    and ``rejects`` times with one message bit flipped.  ``prefill``
    derives every coset before timing, so the derive cache is hot.
    ``trace_units`` is a fixed amount of work (cycles, or battery
    passes): a traced run does that much, so per-layer counts repeat
    exactly, and an untraced run reads peak memory once it is done, so a
    faster commit that fits more cycles into a run (and caches more
    cosets) does not read as using more memory.
    """

    name: str
    params: Optional[Params]
    backend: str
    setup_reps: int
    trace_units: int
    batteries: tuple[str, ...] = ()
    warm_cycles: int = 0
    accepts: int = 1
    rejects: int = 0
    prefill: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symbolic-wide",
            Params(n=64, r=32, ell=16, perm_mode="feistel"),
            "symbolic",
            setup_reps=5,
            trace_units=200,
            warm_cycles=5,
        ),
        Workload(
            "verify-fanout",
            Params(n=32, r=8, ell=8, perm_mode="feistel"),
            "symbolic",
            setup_reps=5,
            trace_units=300,
            warm_cycles=5,
            accepts=8,
            rejects=8,
            prefill=True,
        ),
        Workload(
            "acceptance",
            None,
            "",
            setup_reps=5,
            trace_units=1,
            batteries=tuple(suites.SUITES),
        ),
    )
}

# (name, unit, better); the order is the order of the printed result.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cycles_per_s", "1/s", "higher"),
    ("gen_ms_p50", "ms", "lower"),
    ("sign_ms_p50", "ms", "lower"),
    ("verify_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_CALLS_AND_SELF = (
    "gf2.left_kernel",
    "gf2.subspace_from_words",
    "gf2.solve",
    "oracles.dual_support",
    "oracles.derive",
    "oracles.perm_inverse",
    "distlab.exact_distribution",
)
_SELF_ONLY = (
    "qsim.phase_dual",
    "qsim.measure",
    "qsim.generate_keypair_state",
    "gf2.sample_full_column_rank",
    "gf2.xor_span_ints",
    "oracles.decode",
    "oracles.build",
    "coset.sign_with_coset",
    "scheme.generate",
    "scheme.sign",
    "scheme.verify",
    "distlab.run_collapse_distinguisher",
    "distlab.validate_collapse_shortcut",
    "distlab.coset_points",
)

PER_LAYER = (
    ("qsim.walsh_hadamard.calls", "count", "lower"),
    ("qsim.walsh_hadamard.s", "s", "lower"),
    # Computed from array sizes (2 x passes x array bytes), not measured traffic.
    ("qsim.walsh_hadamard.bytes_computed", "B-computed", "lower"),
    *((f"{base}.calls", "count", "lower") for base in _CALLS_AND_SELF),
    *((f"{base}.s", "s", "lower") for base in _CALLS_AND_SELF + _SELF_ONLY),
    ("oracles.derive.hit_ratio", "ratio", "higher"),
    ("oracles.derive.call_hit_ratio", "ratio", "higher"),
    ("oracles.queries_per_gen", "queries/op", "lower"),
    ("oracles.queries_per_sign", "queries/op", "lower"),
    ("oracles.queries_per_verify", "queries/op", "lower"),
    *((f"suites.{b}.wall_s", "s", "lower") for b in suites.SUITES),
    ("trace.units", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _digest(*parts: object) -> bytes:
    return hashlib.blake2b(":".join(map(str, ("perfbench",) + parts)).encode(), digest_size=32).digest()


def _rng(w: Workload, seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(int.from_bytes(_digest(w.name, seed, label)[:8], "big"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CAL_ITERS = 4000
REF_S = 0.5e-3  # the Python calibration's time at the reference speed
CAL_GAP_S = 0.02
MIN_CAL = 5
WINDOW_S = 0.5


def _calibrate() -> float:
    """Time one pass of the fixed pure-Python calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
    return time.perf_counter() - t0


class RefClock:
    """Calibrations taken between operations: ``samples`` since the
    window began, and ``log`` for a stretch scaled piece by piece."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.log: list[tuple[float, float]] = []  # (start, time) of each Python calibration
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Calibrate if ``CAL_GAP_S`` has passed since the last time."""
        if time.perf_counter() - self._last >= CAL_GAP_S:
            self.sample()

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            start = time.perf_counter()
            self.samples.append(_calibrate())
            self.log.append((start, self.samples[-1]))
        self._last = time.perf_counter()

    def factor(self) -> float:
        """``REF_S`` over the window's median calibration; starts a new window."""
        self.sample(max(0, MIN_CAL - len(self.samples)))
        f = REF_S / statistics.median(self.samples)
        self.samples = []
        return f

    def scaled(self, seconds: float, reps: int = MIN_CAL) -> float:
        """``seconds`` measured just now, at the reference speed;
        calibrates ``reps`` times after it, to go with samples taken
        before it."""
        self.sample(reps)
        return seconds * self.factor()


@dataclass
class Recorder:
    """Counts operations and keeps per-op latencies of timed phases.

    While ``timing``, latencies wait in ``pending`` until ``flush`` scales
    them with the window's calibration and moves them to ``samples``;
    ``busy_s`` sums the scaled latencies flushed.
    """

    tracer: Optional[Tracer] = None
    clock: Optional[RefClock] = None
    timing: bool = False
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=lambda: {"gen": [], "sign": [], "verify": []})
    pending: list[tuple[str, float]] = field(default_factory=list)
    busy_s: float = 0.0

    def op(self, kind: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED op: {kind}", file=sys.stderr)
        if self.timing and kind in self.samples:
            self.pending.append((kind, seconds))
        if self.clock is not None:
            self.clock.tick()

    def flush(self) -> None:
        f = self.clock.factor()
        for kind, seconds in self.pending:
            seconds *= f
            self.samples[kind].append(seconds)
            self.busy_s += seconds
        self.pending = []

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id += 1


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


def _on_coset(o, pk, m: BitVec, sig) -> bool:
    """The signature reads m and lies on the key's coset (checked by gf2,
    independently of scheme.verify)."""
    gen, shift = o.coset_of(pk.y)
    sigma = sig.sigma
    return sigma.prefix(m.n) == m and gen.solve(sigma ^ shift) is not None


def _cycle(w: Workload, o, rng, rec: Recorder) -> None:
    """gen -> sign -> (accepts + rejects) verifies, each op checked."""
    p = o.params
    kind = "gen"
    try:
        rec.next_op()
        before = o.query_counts()
        t0 = time.perf_counter()
        pk, sk = scheme.generate(o, w.backend, rng)
        dt = time.perf_counter() - t0
        rec.op(kind, dt, _delta(before, o.query_counts()) == {})

        kind = "sign"
        m = BitVec(p.ell, int(rng.integers(0, 1 << p.ell)))
        rec.next_op()
        before = o.query_counts()
        t0 = time.perf_counter()
        sig = scheme.sign(o, pk, sk, m, rng)
        dt = time.perf_counter() - t0
        profile = _delta(before, o.query_counts())
        with nullcontext() if rec.tracer is None else rec.tracer.paused():
            ok = profile == {"D": p.ell} and _on_coset(o, pk, m, sig)
        rec.op(kind, dt, ok)

        kind = "verify"
        for k in range(w.accepts + w.rejects):
            expect = k < w.accepts
            msg = m
            if not expect:
                i = int(rng.integers(1, p.ell + 1))
                msg = m.with_bit(i, 1 - m.bit(i))
            rec.next_op()
            before = o.query_counts()
            t0 = time.perf_counter()
            accepted = scheme.verify(o, pk, msg, sig)
            dt = time.perf_counter() - t0
            ok = accepted is expect and _delta(before, o.query_counts()) == {"Pinv": 1}
            rec.op(kind, dt, ok)
    except Exception:
        traceback.print_exc()
        rec.op(kind, 0.0, False)


def _run_battery(name: str, rec: Recorder) -> float:
    """Run one battery with the default seed; record and return its wall."""
    rec.next_op()
    t0 = time.perf_counter()
    try:
        with nullcontext() if rec.tracer is None else rec.tracer.span(f"suites.{name}"):
            passed = suites.run_suite(name, suites.default_seed()).passed
    except Exception:
        traceback.print_exc()
        passed = False
    dt = time.perf_counter() - t0
    rec.op(f"battery {name}", dt, passed)
    return dt


def _setup(w: Workload, seed: int, rec: Recorder):
    """World build plus warm-up; returns the world (None for acceptance)."""
    if w.params is None:
        suites.run_suite("queries", suites.default_seed())
        return None
    o = oracles.build_oracles(w.params, _digest(w.name, seed, "world"))
    if w.prefill:
        for y in range(1 << w.params.r):
            o.coset_of(BitVec(w.params.r, y))
    rng = _rng(w, seed, "warm")
    for _ in range(w.warm_cycles):
        _cycle(w, o, rng, rec)
    return o


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _p90_ms(values: list[float]) -> Optional[float]:
    """The 90th percentile in ms, or None unless at least 10 samples lie beyond it."""
    if len(values) < 100:
        return None
    return 1e3 * statistics.quantiles(values, n=10, method="inclusive")[-1]


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, object]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def to_json(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def run(w: Workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> Result:
    """Run one workload; end-to-end metrics, or per-layer ones when ``trace``.

    ``import_s`` is the import time to add to setup_s, at the reference speed.
    """
    rec = Recorder()
    clock = RefClock()
    setup_walls = []
    o = None
    for _ in range(w.setup_reps):
        clock.sample(MIN_CAL)
        t0 = time.perf_counter()
        o = _setup(w, seed, rec)
        setup_walls.append(clock.scaled(time.perf_counter() - t0))
    notes: dict[str, object] = {"import_s": import_s, "setup_reps_s": setup_walls}
    if trace:
        metrics = _traced(w, seed, rec, notes)
    elif w.params is None:
        metrics = _untraced_batteries(w, seconds, rec, notes)
    else:
        metrics = _untraced(w, o, seed, seconds, rec, notes)
    metrics["setup_s"] = import_s + _median(setup_walls)
    units = {name: unit for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    notes["samples"] = {k: len(v) for k, v in rec.samples.items()}
    notes["p90_ms"] = {k: _p90_ms(v) for k, v in rec.samples.items()}
    return Result(
        workload=w.name,
        attempted=rec.attempted,
        failed=rec.failed,
        metrics={k: (float(metrics[k]), unit) for k, unit in units.items()},
        notes=notes,
    )


def _per_op_ms(samples: dict[str, list[float]]) -> dict[str, float]:
    return {f"{kind}_ms_p50": 1e3 * _median(values) for kind, values in samples.items()}


def _untraced(w: Workload, o, seed: int, seconds: float, rec: Recorder, notes: dict) -> dict:
    """Cycles for ``seconds`` (and at least ``trace_units`` of them).

    The throughput counts the time spent inside gen, sign and verify,
    as scaled, and leaves out the benchmark's own checks and calibration.
    """
    rng = _rng(w, seed, "loop")
    rec.clock = RefClock()
    rec.timing = True
    cycles = 0
    rss = None
    t0 = window = time.perf_counter()
    while rss is None or time.perf_counter() - t0 < seconds:
        _cycle(w, o, rng, rec)
        cycles += 1
        if time.perf_counter() - window >= WINDOW_S:
            rec.flush()
            window = time.perf_counter()
        if cycles == w.trace_units:
            rss = _peak_rss_mb()
    rec.flush()
    notes["cycle"] = "gen-sign-verify"
    notes["cycles"] = cycles
    notes["basis"] = f"ops scaled to the reference speed in {WINDOW_S:g} s windows"
    return {"cycles_per_s": cycles / rec.busy_s, **_per_op_ms(rec.samples), "peak_rss_mb": rss}


TICK_TARGETS = (
    Target("gf2.left_kernel", "osslab.gf2", "BitMatrix.left_kernel"),
    Target("oracles.build", "osslab.oracles", "build_oracles"),
    Target("distlab.exact_distribution", "osslab.distlab", "exact_distribution"),
    Target("distlab.coset_points", "osslab.distlab", "coset_points"),
    *SCHEME_TARGETS,
)


class _Ticker(Tracer):
    """Lets ``clock`` calibrate when a call to ``TICK_TARGETS`` returns
    outside every span of ``timer``, so inside a long battery but never
    inside a timed gen, sign or verify."""

    def __init__(self, clock: RefClock, timer: Tracer) -> None:
        super().__init__(TICK_TARGETS)
        self.clock = clock
        self.timer = timer

    def _wrap(self, target: Target, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if not self.timer._stack:
                    self.clock.tick()

        wrapper.__wrapped__ = fn
        return wrapper


def _piecewise(log: list[tuple[float, float]], t0: float, t1: float, starts: list[float]):
    """Scale the stretch from ``t0`` to ``t1`` piece by piece.

    ``log`` holds the calibrations taken just before the stretch, inside
    it and just after it.  Those inside cut it into pieces and are left
    out of its time; a piece is scaled by ``REF_S`` over the median of
    the ``MIN_CAL`` calibrations nearest its end.  Returns the scaled
    time and the factor at each of ``starts``.
    """
    inside = [i for i, (at, _) in enumerate(log) if t0 <= at < t1]
    after = next(i for i, (at, _) in enumerate(log) if at >= t1)
    begins = [t0] + [log[i][0] + log[i][1] for i in inside]
    ends = [log[i][0] for i in inside] + [t1]
    factors = []
    for k in inside + [after]:
        near = log[max(0, k - MIN_CAL // 2 - 1) : k + MIN_CAL // 2]
        factors.append(REF_S / statistics.median(d for _, d in near))
    scaled = sum((e - b) * f for b, e, f in zip(begins, ends, factors))
    return scaled, [factors[max(0, bisect.bisect_right(begins, s) - 1)] for s in starts]


LIGHT_S = 1.0
LIGHT_REPS = 4


def _untraced_batteries(w: Workload, seconds: float, rec: Recorder, notes: dict) -> dict:
    """Full passes over the batteries for ``seconds`` (at least one pass).

    A battery whose first run takes under ``LIGHT_S`` runs ``LIGHT_REPS``
    times in a row in every pass, which gives the light batteries, where
    most gen/sign/verify calls are made, more runs to average over.
    Calibrations run just before and after each battery run, and inside
    the long ones between calls to ``TICK_TARGETS``; each run's wall and
    the gen/sign/verify calls it makes, timed by wrapping ``scheme``, are
    scaled piece by piece.  A battery's wall is the median over its runs.
    Every pass makes the same calls, but they mix shapes and backends
    (correctness signs 100 times on each backend), so a median over the
    pooled calls would sit on the edge between two clusters; each per-op
    figure is instead the median over passes of the pass's mean time per
    call.
    """
    kinds = {f"scheme.{'generate' if kind == 'gen' else kind}": kind for kind in rec.samples}
    clock = RefClock()
    walls: dict[str, list[float]] = {name: [] for name in w.batteries}
    means: dict[str, list[float]] = {kind: [] for kind in rec.samples}
    light: dict[str, bool] = {}
    passes = 0
    rss = None

    def run_once(name: str) -> float:
        gc.collect()  # no battery pays for another's garbage
        clock.log = []
        clock.sample(MIN_CAL)
        first = len(timer.name)
        timer.recording = True
        t0 = time.perf_counter()
        _run_battery(name, rec)
        t1 = time.perf_counter()
        timer.recording = False
        clock.sample(MIN_CAL)
        spans = range(first, len(timer.name))
        wall, factors = _piecewise(clock.log, t0, t1, [timer.start[i] for i in spans])
        walls[name].append(wall)
        for i, f in zip(spans, factors):
            rec.samples[kinds[timer.names[timer.name[i]]]].append((timer.end[i] - timer.start[i]) * f)
        return wall

    with Tracer(SCHEME_TARGETS) as timer, _Ticker(clock, timer):
        t_run = time.perf_counter()
        while passes == 0 or time.perf_counter() - t_run < seconds:
            first_sample = {kind: len(v) for kind, v in rec.samples.items()}
            for name in w.batteries:
                for _ in range(LIGHT_REPS):
                    wall = run_once(name)
                    if not light.setdefault(name, wall < LIGHT_S):
                        break
            for kind, values in rec.samples.items():
                means[kind].append(statistics.fmean(values[first_sample[kind] :]))
            passes += 1
            if passes == w.trace_units:
                rss = _peak_rss_mb()
    battery_s = {name: _median(v) for name, v in walls.items()}
    suites_wall = sum(battery_s.values())
    notes["cycle"] = "battery-pass"
    notes["cycles"] = passes
    notes["basis"] = (
        f"walls and ops scaled to the reference speed piece by piece between calibrations; "
        f"batteries under {LIGHT_S:g} s run {LIGHT_REPS} times a pass; "
        "op p50s are medians over passes of each pass's mean per call"
    )
    notes["battery_walls_s"] = battery_s
    notes["suites_wall_s"] = suites_wall
    return {"cycles_per_s": 1.0 / suites_wall, **_per_op_ms(means), "peak_rss_mb": rss}


def _phase(w: Workload, seed: int, rec: Recorder) -> float:
    """A fixed amount of work: world set-up plus ``trace_units`` cycles, or
    ``trace_units`` passes of the batteries.  Returns its wall time."""
    gc.collect()  # so neither phase pays for collecting the other's garbage
    t0 = time.perf_counter()
    if w.params is None:
        for _ in range(w.trace_units):
            for name in w.batteries:
                _run_battery(name, rec)
    else:
        o = _setup(w, seed, rec)
        rng = _rng(w, seed, "loop")
        for _ in range(w.trace_units):
            _cycle(w, o, rng, rec)
    return time.perf_counter() - t0


def _traced(w: Workload, seed: int, rec: Recorder, notes: dict) -> dict:
    # Alternate untraced and traced phases and keep the fastest of each,
    # since other processes can slow any one phase by more than tracing does.
    untraced_walls, traced = [], []
    for _ in range(2):
        untraced_walls.append(_phase(w, seed, rec))
        tracer = Tracer()
        with tracer:
            rec.tracer = tracer
            tracer.recording = True
            traced.append((_phase(w, seed, rec), tracer))
            tracer.recording = False
            rec.tracer = None
    untraced_wall = min(untraced_walls)
    traced_wall, tracer = min(traced, key=lambda pair: pair[0])
    notes["tracer"] = tracer
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def per_op(name: str) -> float:
        calls = get(name, "calls")
        return tracer.queries[name] / calls if calls else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key == "calls":
            out[name] = get(base, "calls")
        elif key == "s":
            out[name] = get(base, "self_s")
        elif key == "wall_s":
            out[name] = get(base, "wall_s")
    out["qsim.walsh_hadamard.bytes_computed"] = tracer.wht_bytes
    out["oracles.derive.hit_ratio"] = tracer.key_hits / tracer.key_derives if tracer.key_derives else 0.0
    out["oracles.derive.call_hit_ratio"] = (
        tracer.derive_hits / tracer.derive_calls if tracer.derive_calls else 0.0
    )
    out["oracles.queries_per_gen"] = per_op("scheme.generate")
    out["oracles.queries_per_sign"] = per_op("scheme.sign")
    out["oracles.queries_per_verify"] = per_op("scheme.verify")
    out["trace.units"] = w.trace_units
    out["trace.overhead_s"] = traced_wall - untraced_wall
    notes["untraced_wall_s"] = untraced_wall
    notes["traced_wall_s"] = traced_wall
    notes["summary"] = summary
    return out
