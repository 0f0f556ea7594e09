"""Benchmark of the osslab laboratory.

Run from the root of the repository::

    python3 perfbench/run.py --workload verify-fanout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one process

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``symbolic-wide``, ``verify-fanout`` and ``acceptance``.  With
``--trace 0`` the run reports the end-to-end metrics, with times given
at a reference CPU speed (see ``workloads.py``); setup_s counts the
import of numpy and osslab, timed in fresh interpreters.  With
``--trace 1`` it runs a fixed amount of work untraced and traced, twice
each, reports per-layer self times and counts from the faster traced
pass and the tracing overhead as its wall minus the faster untraced one,
and writes every span of that pass to ``.bench_out/``.

The last line of standard output is one JSON object (for ``all``, one
per workload, keyed by name; peak_rss_mb is then the process's peak so
far, which carries over from one workload to the next).  The exit code
is 0 when every operation passed its check, 1 when any failed, and 2
when the osslab sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _git_sha() -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


IMPORT_REPS = 9


def _import_s(src: Path, clock) -> float:
    """Median time a fresh interpreter takes to import numpy and osslab,
    at the reference speed of ``clock`` (a ``workloads.RefClock``).

    Part of setup_s.  One import is too noisy on a shared machine, and a
    process imports a module only once, so each sample is a new process.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(src)!r}); t = time.perf_counter(); "
        "import numpy, osslab.suites; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_REPS):
        clock.sample(3)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
        samples.append(clock.scaled(float(out.stdout), 3))
    return statistics.median(samples)


def _print_untraced(res) -> None:
    n = res.notes
    print(f"  {n['cycles']} {n['cycle']} cycles; {n['basis']}")
    extra = {"setup_s": f"median import {n['import_s']:.3f} s + median of {len(n['setup_reps_s'])} set-ups"}
    for kind in ("gen", "sign", "verify"):
        extra[f"{kind}_ms_p50"] = f"n={n['samples'][kind]}"
        if n["cycle"] == "battery-pass":
            extra[f"{kind}_ms_p50"] = f"median of {n['cycles']} passes' means, n={n['samples'][kind]} calls"
    if n["cycle"] == "battery-pass":
        extra["cycles_per_s"] = "full battery passes per second, 1 / suites_wall_s"
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:<16} {value:>12.6g} {unit:<4}  {extra.get(name, '')}")
    for kind in ("sign", "verify"):
        count = n["samples"][kind]
        if count >= 100:
            print(f"  {kind + '_ms_p90':<16} {n['p90_ms'][kind]:>12.6g} ms    all n={count} samples")
        else:
            print(f"  {kind + '_ms_p90':<16} {'n/a':>12} ms    n={count}: fewer than 10 samples beyond p90")
    if "suites_wall_s" in n:
        walls = ", ".join(f"{b} {s:.3f}" for b, s in n["battery_walls_s"].items())
        print(f"  {'suites_wall_s':<16} {n['suites_wall_s']:>12.6g} s     median per battery: {walls}")
    print(f"  {'failed_frac':<16} {res.failed_frac:>12.6g} {'ratio':<4}  {res.failed} of {res.attempted} ops")


def _print_traced(res) -> None:
    n = res.notes
    summary = n["summary"]
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    sign_wall = summary.get("scheme.sign", {}).get("wall_s", 0.0)
    if sign_wall:
        within = n["tracer"].self_within("scheme.sign")
        for layer in ("qsim.walsh_hadamard", "gf2.left_kernel"):
            share = within.get(layer, 0.0) / sign_wall
            print(f"  {layer} self time inside scheme.sign: {share:.1%} of sign time")
    walls = {k: s["wall_s"] for k, s in summary.items() if k.startswith("suites.")}
    if walls:
        print(f"  largest battery wall: {max(walls, key=walls.get)}")
    print(
        f"  tracing overhead: fastest traced {n['traced_wall_s']:.3f} s - fastest untraced "
        f"{n['untraced_wall_s']:.3f} s of two phases each, same work"
    )
    print("  top self times:")
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    for name, s in top:
        print(f"    {name:<36} {s['self_s']:10.4f} s  {s['calls']:>8} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the osslab laboratory.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "osslab" / "__init__.py").is_file():
        print(f"perfbench: osslab sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import osslab
    import workloads

    if Path(osslab.__file__).resolve().parent != (src / "osslab").resolve():
        print(f"perfbench: osslab imported from {osslab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")

    print(
        f"perfbench: python {platform.python_version()} numpy {numpy.__version__} "
        f"nproc {os.cpu_count()} git {_git_sha()} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    import_s = 0.0 if args.trace else _import_s(src, workloads.RefClock())
    results = {}
    for name in names:
        res = workloads.run(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), import_s)
        print(f"{name}: attempted {res.attempted} failed {res.failed}")
        if args.trace:
            _print_traced(res)
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{name}-seed{args.seed}.tsv"
            res.notes["tracer"].dump(path)
            print(f"  spans written to {path.relative_to(ROOT)}")
        else:
            _print_untraced(res)
        results[name] = res
    if args.workload == "all":
        print(json.dumps({k: r.to_json() for k, r in results.items()}))
    else:
        print(json.dumps(results[names[0]].to_json()))
    return 0 if all(r.failed == 0 for r in results.values()) else 1


ADDR_NO_RANDOMIZE = 0x0040000


def _fix_layout() -> None:
    """Re-execute this script once with address-space randomization off.

    Where the loader puts the heap and libraries moves the time of a
    10-microsecond operation by up to 25% from one process to the next;
    with the layout fixed, runs agree.  Does nothing where Linux's
    personality call is missing or refused.
    """
    if os.environ.get("PERFBENCH_FIXED_LAYOUT") or not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xFFFFFFFF)
        if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
            return
    except (OSError, AttributeError):
        return
    os.environ["PERFBENCH_FIXED_LAYOUT"] = "1"
    os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    _fix_layout()
    sys.exit(main())
