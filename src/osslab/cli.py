"""Command-line front end.

Subcommands: ``world new``, ``world show``, ``gen``, ``sign``,
``verify``, ``experiments``, ``distinguisher``, ``bench``.

Exit codes: 0 success, 1 domain rejection (verify failure, failing
experiment metric, or any ValueError the library raises to refuse a
world, key or message), 2 one-shot violation (a consumed key token used
again), 64 usage error, malformed input file or unwritable output path.

All files written by the CLI are versioned JSON documents ("v": 1) and
are written atomically (temp file + rename).  Secret-key tokens exist
only behind --unsafe-test-io: a real secret key is unclonable state and
cannot survive serialization, so the token merely records (world, y,
backend) and rebuilds the state on load with scheme.key_state, the
constructor that gen uses.  The consumed flag makes the token one-shot
at the file level.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import scheme, suites
from .distlab import DISTINGUISHER_TRIALS, run_collapse_distinguisher
from .gf2 import BitVec
from .oracles import PERM_MODES, QUERY_KEYS, VARIANTS, Params, build_oracles, metered

__all__ = ["main", "entry"]

FORMAT_VERSION = 1
SEED_BYTES = 32

EX_OK = 0
EX_FAIL = 1
EX_ONESHOT = 2
EX_USAGE = 64


class UsageError(Exception):
    """Bad invocation or malformed/mismatched input file (exit 64)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


# -- files --------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".osslab-tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse an output path that _atomic_write would fail on for want of
    a directory, before work that cannot be undone or is long."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise UsageError(f"cannot write {path}: no such directory, or the path is a directory")


def _write_doc(path: str, kind: str, body: dict) -> None:
    doc = {"v": FORMAT_VERSION, "kind": kind}
    doc.update(body)
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _load_doc(path: str, kind: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a JSON object")
    if type(obj.get("v")) is not int or obj["v"] != FORMAT_VERSION:  # True == 1.0 == 1
        raise UsageError(f"{path}: unsupported format version {obj.get('v')!r}")
    if obj.get("kind") != kind:
        raise UsageError(f"{path}: expected a {kind!r} document, found {obj.get('kind')!r}")
    return obj


def _parse_seed(text: str | None) -> bytes:
    if text is None:
        return os.urandom(SEED_BYTES)
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise UsageError(f"seed must be hex: {exc}") from exc
    if len(raw) != SEED_BYTES:
        raise UsageError(f"seed must be {SEED_BYTES} bytes ({2 * SEED_BYTES} hex digits), got {len(raw)}")
    return raw


def _make_rng(text: str | None) -> np.random.Generator:
    if text is None:
        return np.random.default_rng()
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise UsageError(f"--rng-seed must be hex: {exc}") from exc
    if not raw:
        raise UsageError("--rng-seed must not be empty")
    return np.random.default_rng(int.from_bytes(raw, "big"))


def _world_from_doc(doc: dict, origin: str) -> tuple[Params, bytes]:
    try:
        params = Params.from_json(doc["params"])
        seed = bytes.fromhex(doc["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{origin}: bad world document ({exc})") from exc
    if len(seed) != SEED_BYTES:
        raise UsageError(f"{origin}: world seed must be {SEED_BYTES} bytes")
    return params, seed


def _public_key_from_doc(doc: dict, origin: str) -> scheme.PublicKey:
    """The public key that a pk document or a key token names: its world
    and its y."""
    params, seed = _world_from_doc(doc.get("world", {}), origin)
    try:
        y = BitVec.from_hex(doc["y"], params.r)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{origin}: bad y field ({exc})") from exc
    return scheme.PublicKey(y=y, params=params, seed=seed)


# -- message handling ---------------------------------------------------


def _parse_bits(text: str, nbits: int, what: str) -> BitVec:
    if len(text) != nbits or set(text) - {"0", "1"}:
        raise UsageError(f"{what} must be a bit string of exactly {nbits} characters")
    return BitVec.from_str(text)


def _message_bytes(args) -> bytes:
    if args.msg_file is not None:
        if args.msg is not None:
            raise UsageError("give --msg or --msg-file, not both")
        try:
            with open(args.msg_file, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.msg_file}: {exc.strerror or exc}") from exc
    if args.msg is None:
        raise UsageError("a message is required (--msg or --msg-file)")
    return args.msg.encode()


def _message(args, pk: scheme.PublicKey) -> BitVec:
    """The message to sign or verify: the l-bit oracle digest of the
    bytes in --hash mode, else a --msg bit string of message_bits."""
    if args.hash:
        return scheme.rom_hash(pk.seed, _message_bytes(args), pk.params.ell)
    if args.msg is None or args.msg_file is not None:
        raise UsageError("fixed-length mode needs --msg with a bit string (use --hash for bytes)")
    return _parse_bits(args.msg, scheme.message_bits(pk.params), "message")


# -- subcommand handlers ------------------------------------------------


def cmd_world_new(args) -> int:
    explicit = [args.n, args.r, args.l]
    if args.lam is not None:
        if any(v is not None for v in explicit) or args.s != 0:
            raise UsageError("--lambda replaces --n/--r/--l/--s; do not mix them")
        params = Params.from_lambda(args.lam, args.variant, args.perm_mode or "feistel")
    else:
        if any(v is None for v in explicit):
            raise UsageError("give --n, --r and --l (or --lambda)")
        params = Params(
            n=args.n,
            r=args.r,
            ell=args.l,
            s=args.s,
            variant=args.variant,
            perm_mode=args.perm_mode or "table",
        )
    seed = _parse_seed(args.seed)
    _write_doc(args.out, "world", {"params": params.to_json(), "seed": seed.hex()})
    if args.json:
        print(json.dumps({"params": params.to_json()}, indent=2))
    else:
        print(f"wrote world {args.out}: {_describe(params)}")
    return EX_OK


def _describe(params: Params) -> str:
    bits = f"n={params.n} r={params.r} l={params.ell}"
    if params.s:
        bits += f" s={params.s}"
    if params.lam is not None:
        bits += f" lambda={params.lam}"
    return f"{bits} variant={params.variant} perm={params.perm_mode}"


def cmd_world_show(args) -> int:
    doc = _load_doc(args.world, "world")
    params, seed = _world_from_doc(doc, args.world)
    if args.json:
        print(json.dumps({"params": params.to_json(), "seed": seed.hex()}, indent=2))
    else:
        print(_describe(params))
        print(f"seed      {seed.hex()}")
    return EX_OK


def cmd_gen(args) -> int:
    doc = _load_doc(args.world, "world")
    o = build_oracles(*_world_from_doc(doc, args.world))
    if args.sk_out is not None and not args.unsafe_test_io:
        raise UsageError("writing key tokens requires --unsafe-test-io (test use only)")
    rng = _make_rng(args.rng_seed)
    pk, sk = scheme.generate(o, args.backend, rng)
    _write_doc(args.pk_out, "pk", pk.to_json())
    if args.sk_out is not None:
        _write_doc(
            args.sk_out,
            "sk-token",
            {
                "backend": sk.backend,
                **pk.to_json(),
                "consumed": False,
                "note": "test-only token; the live key state is re-derived on load",
            },
        )
    else:
        print(
            "note: secret key dropped (one-shot state does not serialize); "
            "pass --sk-out with --unsafe-test-io to keep a test token",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps({"pk": pk.to_json()}, indent=2))
    else:
        print(f"wrote public key {args.pk_out} (y = {pk.y})")
    return EX_OK


def cmd_sign(args) -> int:
    if not args.unsafe_test_io:
        raise UsageError("signing from a key token requires --unsafe-test-io (test use only)")
    token = _load_doc(args.sk, "sk-token")
    if token.get("consumed"):
        raise scheme.OneShotViolation(f"{args.sk}: key token already consumed")
    backend = token.get("backend")
    if backend not in scheme.BACKENDS:
        raise UsageError(f"{args.sk}: unknown backend {backend!r}")
    pk = _public_key_from_doc(token, args.sk)
    o = build_oracles(pk.params, pk.seed)
    rng = _make_rng(args.rng_seed)
    m = _message(args, pk)
    if args.out:
        _check_writable(args.out)

    # Refuse the world and the message and rebuild the key state first, so
    # a token that the signer or the backend refuses is kept.
    scheme.check_signable(pk.params, m)
    sk = scheme.SecretKey(backend, scheme.key_state(o, backend, pk.y))

    # Burn the token before emitting anything: a crash mid-way loses the
    # key rather than double-spending it.
    token["consumed"] = True
    _atomic_write(args.sk, json.dumps(token, indent=2) + "\n")

    sig = scheme.sign(o, pk, sk, m, rng)
    if args.out:
        _write_doc(args.out, "sig", sig.to_json())
    if args.json or not args.out:
        print(json.dumps({"sig": sig.to_json()}, indent=2))
    else:
        print(f"wrote signature {args.out} (sigma = {sig.sigma})")
    return EX_OK


def cmd_verify(args) -> int:
    pk = _public_key_from_doc(_load_doc(args.pk, "pk"), args.pk)
    o = build_oracles(pk.params, pk.seed)
    sig_doc = _load_doc(args.sig, "sig")
    try:
        sig = scheme.Signature.from_json(sig_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.sig}: bad signature ({exc})") from exc
    ok = scheme.verify(o, pk, _message(args, pk), sig)
    if args.json:
        print(json.dumps({"accept": ok}))
    else:
        print("accept" if ok else "reject")
    return EX_OK if ok else EX_FAIL


def _worker_count() -> int:
    raw = os.environ.get("OSSLAB_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"OSSLAB_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UsageError("OSSLAB_THREADS must be >= 1")
    return value


def cmd_experiments(args) -> int:
    names = args.suite or list(suites.SUITES)
    seed = _parse_seed(args.seed) if args.seed is not None else suites.default_seed()
    if args.out:
        _check_writable(args.out)
    workers = min(_worker_count(), len(names))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(suites.run_suite, names, [seed] * len(names)))
    else:
        reports = [suites.run_suite(name, seed) for name in names]
    payload = {"reports": [rep.to_json() for rep in reports]}
    if args.out:
        _write_doc(args.out, "experiments", payload)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            print(rep.render())
            print()
        good = sum(1 for rep in reports if rep.passed)
        print(f"overall: {'PASS' if good == len(reports) else 'FAIL'} ({good}/{len(reports)} suites)")
    return EX_OK if all(rep.passed for rep in reports) else EX_FAIL


def cmd_distinguisher(args) -> int:
    trials = args.trials
    if trials is None:
        trials = DISTINGUISHER_TRIALS[args.case]
    elif trials < 1:
        raise UsageError("--trials must be >= 1")
    seed = _parse_seed(args.seed) if args.seed is not None else suites.default_seed()
    report = run_collapse_distinguisher(args.n, args.r, args.case, trials, seed)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return EX_OK if report.passed else EX_FAIL


def cmd_bench(args) -> int:
    if args.ops < 1:
        raise UsageError("--ops must be >= 1")
    doc = _load_doc(args.world, "world")
    o = build_oracles(*_world_from_doc(doc, args.world))
    rng = _make_rng(args.rng_seed)
    mbits = scheme.message_bits(o.params)
    phases = {"gen": 0.0, "sign": 0.0, "verify": 0.0}
    with metered() as spent:
        for _ in range(args.ops):
            t0 = time.perf_counter()
            pk, sk = scheme.generate(o, args.backend, rng)
            phases["gen"] += time.perf_counter() - t0
            m = BitVec.random(rng, mbits)
            t0 = time.perf_counter()
            sig = scheme.sign(o, pk, sk, m, rng)
            phases["sign"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            ok = scheme.verify(o, pk, m, sig)
            phases["verify"] += time.perf_counter() - t0
            if not ok:
                raise ValueError("benchmark signature failed to verify")
    result = {
        "backend": args.backend,
        "ops": args.ops,
        "seconds": {k: round(v, 6) for k, v in phases.items()},
        "per_op_ms": {k: round(1000 * v / args.ops, 4) for k, v in phases.items()},
        "query_delta": {k: spent.get(k, 0) for k in QUERY_KEYS},
    }
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(f"backend {args.backend}, {args.ops} gen/sign/verify cycles")
        for k in ("gen", "sign", "verify"):
            print(f"  {k:7s} {phases[k]:8.4f}s total  {1000 * phases[k] / args.ops:8.3f} ms/op")
        print(f"  oracle queries consumed: {spent}")
    return EX_OK


# -- parser -------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="osslab", description="one-shot signature laboratory")
    sub = parser.add_subparsers(dest="cmd", required=True)

    world = sub.add_parser("world", help="create or inspect world files")
    wsub = world.add_subparsers(dest="wcmd", required=True)

    wnew = wsub.add_parser("new", help="create a world file")
    wnew.add_argument("--n", type=int)
    wnew.add_argument("--r", type=int)
    wnew.add_argument("--l", type=int)
    wnew.add_argument("--s", type=int, default=0)
    wnew.add_argument("--lambda", dest="lam", type=int, help="derive n, r, l, s from one knob")
    wnew.add_argument("--variant", choices=VARIANTS, default="standard")
    wnew.add_argument("--perm-mode", choices=PERM_MODES)
    wnew.add_argument("--seed", help="32-byte hex world seed (default: random)")
    wnew.add_argument("--out", required=True)
    wnew.add_argument("--json", action="store_true")
    wnew.set_defaults(func=cmd_world_new)

    wshow = wsub.add_parser("show", help="print a world file")
    wshow.add_argument("--world", required=True)
    wshow.add_argument("--json", action="store_true")
    wshow.set_defaults(func=cmd_world_show)

    gen = sub.add_parser("gen", help="generate a keypair in a world")
    gen.add_argument("--world", required=True)
    gen.add_argument("--backend", choices=scheme.BACKENDS, default="symbolic")
    gen.add_argument("--rng-seed", help="hex seed for deterministic randomness")
    gen.add_argument("--pk-out", required=True)
    gen.add_argument("--sk-out", help="write a TEST-ONLY key token (needs --unsafe-test-io)")
    gen.add_argument("--unsafe-test-io", action="store_true")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)

    sign = sub.add_parser("sign", help="consume a key token and sign once")
    sign.add_argument("--sk", required=True, help="key token from gen --sk-out")
    sign.add_argument("--msg", help="bit string (fixed mode) or text (--hash mode)")
    sign.add_argument("--msg-file", help="read message bytes from a file (--hash mode)")
    sign.add_argument("--hash", action="store_true", help="hash-and-sign arbitrary bytes")
    sign.add_argument("--rng-seed")
    sign.add_argument("--out", help="signature file (default: print JSON)")
    sign.add_argument("--unsafe-test-io", action="store_true")
    sign.add_argument("--json", action="store_true")
    sign.set_defaults(func=cmd_sign)

    verify = sub.add_parser("verify", help="verify a signature")
    verify.add_argument("--pk", required=True)
    verify.add_argument("--msg")
    verify.add_argument("--msg-file")
    verify.add_argument("--hash", action="store_true")
    verify.add_argument("--sig", required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiments", help="run acceptance suites")
    exp.add_argument("--suite", action="append", choices=list(suites.SUITES))
    exp.add_argument("--seed", help="32-byte hex master seed")
    exp.add_argument("--out", help="write a JSON report file")
    exp.add_argument("--json", action="store_true")
    exp.set_defaults(func=cmd_experiments)

    dist = sub.add_parser("distinguisher", help="run the collapse distinguisher")
    dist.add_argument("--n", type=int, default=6)
    dist.add_argument("--r", type=int, default=2)
    dist.add_argument("--case", choices=("hash-only", "hash-first-bit"), required=True)
    dist.add_argument("--trials", type=int)
    dist.add_argument("--seed")
    dist.add_argument("--json", action="store_true")
    dist.set_defaults(func=cmd_distinguisher)

    bench = sub.add_parser("bench", help="time gen/sign/verify and count queries")
    bench.add_argument("--world", required=True)
    bench.add_argument("--backend", choices=scheme.BACKENDS, default="symbolic")
    bench.add_argument("--ops", type=int, default=20)
    bench.add_argument("--rng-seed")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"osslab: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except scheme.OneShotViolation as exc:
        print(f"osslab: one-shot violation: {exc}", file=sys.stderr)
        return EX_ONESHOT
    except ValueError as exc:
        print(f"osslab: rejected: {exc}", file=sys.stderr)
        return EX_FAIL


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
