"""Span tracing for the osslab benchmark.

The benchmark measures osslab's layers from outside: ``Tracer.install``
replaces each public function listed in ``TARGETS`` with a wrapper at
every name it is bound under (module globals such as
``distlab.walsh_hadamard`` or ``suites.coset_points``, re-exports in
``osslab``, and class attributes for methods), and ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

Each recorded span holds a name, start, end, parent span and op id.
Spans are kept in memory in flat arrays and written out on request.
A span's self time is its duration minus the time its direct children
cover.  gf2 is the bottom layer and its public functions build on each
other (``left_kernel`` calls ``null_space`` calls ``from_words``), so a
gf2 call made inside another gf2 span is folded into that span rather
than recorded: a gf2 span covers the kernel its caller asked for.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["TARGETS", "SCHEME_TARGETS", "Target", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One public function to wrap: span ``name`` for ``module.attr``
    (``attr`` may be ``Class.method``)."""

    name: str
    module: str
    attr: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


SCHEME_TARGETS = (
    Target("scheme.generate", "osslab.scheme", "generate"),
    Target("scheme.sign", "osslab.scheme", "sign"),
    Target("scheme.verify", "osslab.scheme", "verify"),
)

TARGETS = SCHEME_TARGETS + (
    Target("coset.sign_with_coset", "osslab.coset", "sign_with_coset"),
    Target("qsim.generate_keypair_state", "osslab.qsim", "generate_keypair_state"),
    Target("qsim.walsh_hadamard", "osslab.qsim", "walsh_hadamard"),
    Target("qsim.phase_dual", "osslab.qsim", "phase_dual"),
    Target("qsim.measure", "osslab.qsim", "measure"),
    Target("oracles.build", "osslab.oracles", "build_oracles"),
    Target("oracles.derive", "osslab.oracles", "CosetFamily.derive"),
    Target("oracles.decode", "osslab.oracles", "OracleSet.decode"),
    Target("oracles.dual_support", "osslab.oracles", "OracleSet.dual_support"),
    Target("oracles.perm_inverse", "osslab.oracles", "PermutationEngine.inverse"),
    Target("gf2.left_kernel", "osslab.gf2", "BitMatrix.left_kernel"),
    Target("gf2.solve", "osslab.gf2", "BitMatrix.solve"),
    Target("gf2.subspace_from_words", "osslab.gf2", "Subspace.from_words"),
    Target("gf2.sample_full_column_rank", "osslab.gf2", "sample_full_column_rank"),
    Target("gf2.xor_span_ints", "osslab.gf2", "xor_span_ints"),
    Target("distlab.exact_distribution", "osslab.distlab", "exact_distribution"),
    Target("distlab.run_collapse_distinguisher", "osslab.distlab", "run_collapse_distinguisher"),
    Target("distlab.validate_collapse_shortcut", "osslab.distlab", "validate_collapse_shortcut"),
    Target("distlab.coset_points", "osslab.distlab", "coset_points"),
)


class Tracer:
    """Records spans around the wrapped functions while ``recording``.

    Besides spans it keeps counts that need the call's arguments:

    - ``oracles.derive`` hits.  A call hits when its ``CosetFamily`` has
      been asked for the same ``y`` before, which is exactly when the
      family's unbounded cache holds it.  Hits are counted over all calls
      and, separately, over the one derive each ``scheme.generate`` makes:
      the latter says whether a new key found its coset already cached,
      since the sign and verify of a key always re-derive a cached ``y``.
    - The bytes each Walsh-Hadamard transform computes over, from array
      sizes rather than measured traffic.
    - The oracle queries each scheme operation spends.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.recording = False
        self._stack: list[int] = []
        self._gf2_depth = 0
        self._undo: list[tuple[object, str, object]] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.derive_calls = 0
        self.derive_hits = 0
        self.key_derives = 0
        self.key_hits = 0
        self._generating = 0
        self.wht_bytes = 0
        self.queries = {t.name: 0 for t in SCHEME_TARGETS}

    # -- spans ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself, such as one battery."""
        if not self.recording:
            yield
            return
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Stop recording, for the benchmark's own correctness checks."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- wrapping -------------------------------------------------------

    def _wrap(self, target: Target, fn):
        nid = self._id(target.name)
        gf2 = target.layer == "gf2"
        tracer = self

        def call(*args, **kwargs):
            if gf2:
                if tracer._gf2_depth:
                    return fn(*args, **kwargs)
                tracer._gf2_depth += 1
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
                if gf2:
                    tracer._gf2_depth -= 1

        if target.name == "oracles.derive":

            def wrapper(family, y, *args, **kwargs):
                seen = tracer._seen.setdefault(family, set())
                hit = y in seen
                seen.add(y)
                if not tracer.recording:
                    return fn(family, y, *args, **kwargs)
                tracer.derive_calls += 1
                tracer.derive_hits += hit
                if tracer._generating:
                    tracer.key_derives += 1
                    tracer.key_hits += hit
                return call(family, y, *args, **kwargs)

        elif target.name == "qsim.walsh_hadamard":

            def wrapper(state, *args, **kwargs):
                if not tracer.recording:
                    return fn(state, *args, **kwargs)
                # log2(size) butterfly passes, each reading and writing the array.
                passes = state.amp.shape[0].bit_length() - 1
                tracer.wht_bytes += 2 * passes * state.amp.nbytes
                return call(state, *args, **kwargs)

        elif target.layer == "scheme":

            def wrapper(o, *args, **kwargs):
                if not tracer.recording:
                    return fn(o, *args, **kwargs)
                before = sum(o.query_counts().values())
                generating = target.name == "scheme.generate"
                tracer._generating += generating
                try:
                    return call(o, *args, **kwargs)
                finally:
                    tracer._generating -= generating
                    tracer.queries[target.name] += sum(o.query_counts().values()) - before

        else:

            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                return call(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target at every name it is bound under in osslab."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "osslab" or k.startswith("osslab.")]
        for target in self.targets:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(target, raw.__func__))
                else:
                    new = self._wrap(target, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, target.attr)
            wrapper = self._wrap(target, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        self.recording = False
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        """Each span's duration and self time (duration minus its children's)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = dur[:]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``wall_s`` and ``self_s``."""
        dur, own = self._durations()
        out: dict[str, dict[str, float]] = {}
        for i in range(len(dur)):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["wall_s"] += dur[i]
            row["self_s"] += own[i]
        return out

    def self_within(self, ancestor: str) -> dict[str, float]:
        """Per span name, the self time of its spans inside an ``ancestor`` span."""
        _, own = self._durations()
        aid = self._ids.get(ancestor)
        inside = [False] * len(own)
        out: dict[str, float] = {}
        for i in range(len(own)):
            # Parents are opened, so recorded, before their children.
            p = self.parent[i]
            inside[i] = self.name[i] == aid or (p >= 0 and inside[p])
            if inside[i]:
                key = self.names[self.name[i]]
                out[key] = out.get(key, 0.0) + own[i]
        return out

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )
