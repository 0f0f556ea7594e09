"""CLI behavior: file formats, exit codes, one-shot tokens."""

import json
import os

import numpy as np
import pytest

from osslab import Params, build_oracles, cli, rom_hash, scheme

WORLD_SEED = "ab" * 32


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def world(tmp_path):
    path = tmp_path / "world.json"
    assert (
        run(
            "world", "new", "--n", "8", "--r", "3", "--l", "2",
            "--seed", WORLD_SEED, "--out", str(path),
        )
        == 0
    )
    return path


def keypair(tmp_path, world, **extra):
    pk = tmp_path / "pk.json"
    sk = tmp_path / "sk.json"
    code = run(
        "gen", "--world", str(world), "--rng-seed", "0fe1",
        "--pk-out", str(pk), "--sk-out", str(sk), "--unsafe-test-io",
    )
    assert code == 0
    return pk, sk


def test_world_file_shape_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["world", "new", "--n", "8", "--r", "3", "--l", "2", "--seed", WORLD_SEED]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["v"] == 1 and doc["kind"] == "world"
    assert doc["params"]["l"] == 2 and doc["seed"] == WORLD_SEED


def test_world_show(world, capsys):
    assert run("world", "show", "--world", str(world), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["params", "seed"] and doc["params"]["n"] == 8


def test_sign_verify_round_trip(tmp_path, world):
    pk, sk = keypair(tmp_path, world)
    token = json.loads(sk.read_text())
    assert list(token) == ["v", "kind", "backend", "y", "world", "consumed", "note"]
    assert {k: token[k] for k in ("y", "world")} == {k: json.loads(pk.read_text())[k] for k in ("y", "world")}
    sig = tmp_path / "sig.json"
    assert (
        run("sign", "--sk", str(sk), "--msg", "10", "--rng-seed", "aa",
            "--out", str(sig), "--unsafe-test-io")
        == 0
    )
    assert run("verify", "--pk", str(pk), "--msg", "10", "--sig", str(sig)) == 0
    assert run("verify", "--pk", str(pk), "--msg", "01", "--sig", str(sig)) == 1


def test_statevector_round_trip_rebuilds_the_dense_key(tmp_path, world):
    pk, sk = tmp_path / "pk.json", tmp_path / "sk.json"
    assert (
        run("gen", "--world", str(world), "--backend", "statevector", "--rng-seed", "0fe1",
            "--pk-out", str(pk), "--sk-out", str(sk), "--unsafe-test-io")
        == 0
    )
    assert json.loads(sk.read_text())["backend"] == "statevector"
    sig = tmp_path / "sig.json"
    assert (
        run("sign", "--sk", str(sk), "--msg", "01", "--rng-seed", "aa",
            "--out", str(sig), "--unsafe-test-io")
        == 0
    )
    assert run("verify", "--pk", str(pk), "--msg", "01", "--sig", str(sig)) == 0
    assert run("verify", "--pk", str(pk), "--msg", "11", "--sig", str(sig)) == 1


@pytest.mark.parametrize("n, r, l, msg", [("8", "3", "2", "01"), ("64", "48", "8", "10100110")])
def test_statevector_round_trip_on_feistel_worlds(tmp_path, n, r, l, msg):
    # the dense key never reads the permutation, and 64-bit points fit
    world = tmp_path / "w.json"
    assert run("world", "new", "--n", n, "--r", r, "--l", l, "--perm-mode", "feistel",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    pk, sk, sig = tmp_path / "pk.json", tmp_path / "sk.json", tmp_path / "sig.json"
    assert run("gen", "--world", str(world), "--backend", "statevector", "--rng-seed", "0fe1",
               "--pk-out", str(pk), "--sk-out", str(sk), "--unsafe-test-io") == 0
    assert run("sign", "--sk", str(sk), "--msg", msg, "--rng-seed", "aa",
               "--out", str(sig), "--unsafe-test-io") == 0
    assert run("verify", "--pk", str(pk), "--msg", msg, "--sig", str(sig)) == 0


def test_statevector_token_on_a_feistel_world_is_refused_unburnt(tmp_path, capsys):
    # a Feistel world whose cosets hold 2^(40 - 8) points: too many for a dense key
    world = tmp_path / "w.json"
    assert run("world", "new", "--n", "40", "--r", "8", "--l", "2", "--perm-mode", "feistel",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    _, sk = keypair(tmp_path, world)
    capsys.readouterr()
    assert run("gen", "--world", str(world), "--backend", "statevector",
               "--pk-out", str(tmp_path / "dense.json")) == 1
    refusal = capsys.readouterr().err
    assert "allow n - r <= 24, got 32" in refusal
    # a dense token for the same key: sign refuses it as gen does, and keeps it
    token = json.loads(sk.read_text())
    token["backend"] = "statevector"
    sk.write_text(json.dumps(token))
    assert run("sign", "--sk", str(sk), "--msg", "10", "--unsafe-test-io") == 1
    assert capsys.readouterr().err == refusal
    assert json.loads(sk.read_text())["consumed"] is False


def test_original_world_token_is_refused_unburnt(tmp_path, world, capsys):
    orig = tmp_path / "orig.json"
    assert run("world", "new", "--n", "8", "--r", "3", "--l", "0", "--variant", "original",
               "--seed", WORLD_SEED, "--out", str(orig)) == 0
    _, sk = keypair(tmp_path, world)
    # gen refuses original worlds, so only an edited token points at one
    token = json.loads(sk.read_text())
    doc = json.loads(orig.read_text())
    token["world"] = {"params": doc["params"], "seed": doc["seed"]}
    sk.write_text(json.dumps(token))
    capsys.readouterr()
    for how in (["--msg", ""], ["--hash", "--msg", "hello"]):
        assert run("sign", "--sk", str(sk), *how, "--unsafe-test-io") == 1
        assert "unstructured worlds cannot sign" in capsys.readouterr().err
        assert json.loads(sk.read_text())["consumed"] is False


def test_hash_sign_on_an_incompressible_world_is_refused_unburnt(tmp_path, capsys):
    world = tmp_path / "inc.json"
    assert run("world", "new", "--n", "8", "--r", "3", "--l", "3", "--variant", "incompressible",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    _, sk = keypair(tmp_path, world)
    capsys.readouterr()
    assert run("sign", "--sk", str(sk), "--hash", "--msg", "hello", "--unsafe-test-io") == 1
    assert "message must have 2 bits (l - 1 on an incompressible world" in capsys.readouterr().err
    assert json.loads(sk.read_text())["consumed"] is False
    # the kept token still signs the (l-1)-bit messages such a world takes
    assert run("sign", "--sk", str(sk), "--msg", "10", "--unsafe-test-io") == 0
    assert json.loads(sk.read_text())["consumed"] is True


def test_hash_verify_on_an_incompressible_world_is_refused(tmp_path, capsys):
    seed = bytes(range(32)).hex()
    world = tmp_path / "inc.json"
    assert run("world", "new", "--n", "8", "--r", "3", "--l", "2", "--variant", "incompressible",
               "--perm-mode", "table", "--seed", seed, "--out", str(world)) == 0
    pk, sk, sig = tmp_path / "pk.json", tmp_path / "sk.json", tmp_path / "sig.json"
    assert run("gen", "--world", str(world), "--rng-seed", "01", "--pk-out", str(pk),
               "--sk-out", str(sk), "--unsafe-test-io") == 0
    assert run("sign", "--sk", str(sk), "--msg", "1", "--rng-seed", "02", "--out", str(sig),
               "--unsafe-test-io") == 0
    # b"m3" hashes to the 2 bits 10 here, so the signature's prefix matches the digest
    msg = tmp_path / "m3.bin"
    msg.write_bytes(b"m3")
    capsys.readouterr()
    assert run("verify", "--pk", str(pk), "--sig", str(sig), "--msg-file", str(msg), "--hash") == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "message must have 1 bits" in err


def test_second_sign_exits_two(tmp_path, world):
    pk, sk = keypair(tmp_path, world)
    out = tmp_path / "sig.json"
    base = ["sign", "--sk", str(sk), "--msg", "11", "--out", str(out), "--unsafe-test-io"]
    assert run(*base) == 0
    assert json.loads(sk.read_text())["consumed"] is True
    assert run(*base) == 2


def test_sign_requires_unsafe_flag(tmp_path, world):
    _, sk = keypair(tmp_path, world)
    assert run("sign", "--sk", str(sk), "--msg", "11") == 64


def test_sk_out_requires_unsafe_flag(tmp_path, world):
    code = run(
        "gen", "--world", str(world),
        "--pk-out", str(tmp_path / "p.json"), "--sk-out", str(tmp_path / "s.json"),
    )
    assert code == 64


def test_bad_message_is_usage_error(tmp_path, world):
    _, sk = keypair(tmp_path, world)
    assert run("sign", "--sk", str(sk), "--msg", "10110", "--unsafe-test-io") == 64
    assert run("sign", "--sk", str(sk), "--msg", "2x", "--unsafe-test-io") == 64
    # the failed attempts must not have burned the token
    assert json.loads(sk.read_text())["consumed"] is False


def test_verify_refuses_a_public_key_with_a_short_seed(tmp_path, world, capsys):
    pk, sk = keypair(tmp_path, world)
    sig = tmp_path / "sig.json"
    assert run("sign", "--sk", str(sk), "--msg", "10", "--out", str(sig), "--unsafe-test-io") == 0
    doc = json.loads(pk.read_text())
    doc["world"]["seed"] = "ab" * 31
    pk.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--pk", str(pk), "--msg", "10", "--sig", str(sig)) == 64
    err = capsys.readouterr().err
    assert err.endswith("world seed must be 32 bytes\n") and err.count("\n") == 1


def test_public_key_round_trips_through_the_cli_parse_path(tmp_path):
    """A pk written as `osslab gen` writes it reads back, through the
    parser `osslab verify` and `osslab sign` use, as the same key."""
    o = build_oracles(Params(n=8, r=3, ell=2), bytes.fromhex(WORLD_SEED))
    pk, _ = scheme.generate(o, "symbolic", np.random.default_rng(1))
    path = str(tmp_path / "pk.json")
    cli._write_doc(path, "pk", pk.to_json())
    clone = cli._public_key_from_doc(cli._load_doc(path, "pk"), path)
    assert clone == pk and clone.matches(o)


def test_malformed_files_exit_64(tmp_path, world):
    pk, sk = keypair(tmp_path, world)
    # wrong kind
    assert run("world", "show", "--world", str(pk)) == 64
    # version bump
    doc = json.loads(world.read_text())
    doc["v"] = 2
    bad = tmp_path / "v2.json"
    bad.write_text(json.dumps(doc))
    assert run("world", "show", "--world", str(bad)) == 64
    # not JSON at all
    junk = tmp_path / "junk.json"
    junk.write_text("{")
    assert run("world", "show", "--world", str(junk)) == 64
    junk.write_bytes(b"\xff{")  # not UTF-8
    assert run("world", "show", "--world", str(junk)) == 64
    # missing file
    assert run("world", "show", "--world", str(tmp_path / "absent.json")) == 64
    # a key token whose y is not a hex string, refused before the burn
    token = json.loads(sk.read_text())
    token["y"] = 5
    sk.write_text(json.dumps(token))
    assert run("sign", "--sk", str(sk), "--msg", "10", "--unsafe-test-io") == 64
    assert json.loads(sk.read_text())["consumed"] is False


@pytest.mark.parametrize("field, value", [("n", 8.0), ("n", 8.5), ("r", True)])
def test_world_with_a_non_integer_shape_exits_64(tmp_path, world, capsys, field, value):
    doc = json.loads(world.read_text())
    doc["params"][field] = value
    world.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (("world", "show"), ("gen", "--pk-out", str(tmp_path / "pk.json"))):
        assert run(*argv, "--world", str(world)) == 64
        err = capsys.readouterr().err
        assert "bad world document" in err and f"{field} must be an integer" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "pk.json").exists()


@pytest.mark.parametrize("lam, message", [(3, "lambda = 3 gives"), (-5, "need lam >= 2")])
def test_world_whose_lambda_contradicts_its_shape_exits_64(tmp_path, world, capsys, lam, message):
    doc = json.loads(world.read_text())
    doc["params"]["lambda"] = lam
    world.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (("world", "show"), ("world", "show", "--json"), ("gen", "--pk-out", str(tmp_path / "pk.json"))):
        assert run(*argv, "--world", str(world)) == 64
        err = capsys.readouterr().err
        assert "bad world document" in err and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "pk.json").exists()


def test_verify_refuses_a_public_key_with_a_float_shape(tmp_path, world, capsys):
    pk, sk = keypair(tmp_path, world)
    sig = tmp_path / "sig.json"
    assert run("sign", "--sk", str(sk), "--msg", "10", "--out", str(sig), "--unsafe-test-io") == 0
    doc = json.loads(pk.read_text())
    doc["world"]["params"]["n"] = 8.0
    pk.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--pk", str(pk), "--msg", "10", "--sig", str(sig)) == 64
    err = capsys.readouterr().err
    assert "n must be an integer, got 8.0" in err and err.count("\n") == 1


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_document_whose_version_is_not_the_integer_1_exits_64(tmp_path, world, capsys, version):
    doc = json.loads(world.read_text())
    doc["v"] = version  # True == 1.0 == 1 in Python
    world.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("world", "show", "--world", str(world)) == 64
    err = capsys.readouterr().err
    assert f"unsupported format version {version!r}" in err and err.count("\n") == 1


@pytest.mark.parametrize("width", [True, 8.0, "8"])
def test_verify_refuses_a_signature_whose_width_is_not_an_integer(tmp_path, world, capsys, width):
    pk, sk = keypair(tmp_path, world)
    sig = tmp_path / "sig.json"
    assert run("sign", "--sk", str(sk), "--msg", "10", "--out", str(sig), "--unsafe-test-io") == 0
    doc = json.loads(sig.read_text())
    doc["n"] = width  # True would pass for a 1-bit width
    sig.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--pk", str(pk), "--msg", "10", "--sig", str(sig)) == 64
    err = capsys.readouterr().err
    assert f"bad signature (n must be an integer, got {width!r})" in err and err.count("\n") == 1


def test_unknown_subcommand_exits_64():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 64


def test_deterministic_signing(tmp_path, world):
    pk1, sk1 = keypair(tmp_path, world)
    sig1 = tmp_path / "s1.json"
    run("sign", "--sk", str(sk1), "--msg", "10", "--rng-seed", "beef",
        "--out", str(sig1), "--unsafe-test-io")
    # regenerate with the same rng seed in a fresh directory
    other = tmp_path / "again"
    other.mkdir()
    pk2, sk2 = keypair(other, world)
    sig2 = other / "s2.json"
    run("sign", "--sk", str(sk2), "--msg", "10", "--rng-seed", "beef",
        "--out", str(sig2), "--unsafe-test-io")
    assert json.loads(sig1.read_text()) == json.loads(sig2.read_text())


def test_hash_mode_round_trip(tmp_path):
    world = tmp_path / "w.json"
    run("world", "new", "--n", "12", "--r", "4", "--l", "4",
        "--seed", WORLD_SEED, "--out", str(world))
    pk, sk = keypair(tmp_path, world)
    msg = tmp_path / "msg.bin"
    # a fixed message: the digest is only l = 4 bits, so a random one
    # would share "something else"'s digest one time in 16
    msg.write_bytes(bytes(range(256)) + bytes(44))
    seed = bytes.fromhex(WORLD_SEED)
    assert rom_hash(seed, msg.read_bytes(), 4) != rom_hash(seed, b"something else", 4)
    sig = tmp_path / "sig.json"
    assert (
        run("sign", "--sk", str(sk), "--msg-file", str(msg), "--hash",
            "--out", str(sig), "--unsafe-test-io")
        == 0
    )
    assert run("verify", "--pk", str(pk), "--msg-file", str(msg), "--hash",
               "--sig", str(sig)) == 0
    assert run("verify", "--pk", str(pk), "--msg", "something else", "--hash",
               "--sig", str(sig)) == 1


def test_incompressible_cli_flow(tmp_path):
    world = tmp_path / "w.json"
    run("world", "new", "--n", "8", "--r", "3", "--l", "2", "--variant",
        "incompressible", "--seed", WORLD_SEED, "--out", str(world))
    pk, sk = keypair(tmp_path, world)
    sig = tmp_path / "sig.json"
    # message width is l - 1 = 1 bit on this variant
    assert run("sign", "--sk", str(sk), "--msg", "1", "--out", str(sig),
               "--unsafe-test-io") == 0
    assert run("verify", "--pk", str(pk), "--msg", "1", "--sig", str(sig)) == 0
    assert run("verify", "--pk", str(pk), "--msg", "0", "--sig", str(sig)) == 1


def test_lambda_worlds_run_or_are_refused_at_world_new(tmp_path, capsys):
    for variant in ("standard", "bloated"):
        out = tmp_path / f"{variant}.json"
        assert run("world", "new", "--lambda", "2", "--variant", variant,
                   "--seed", WORLD_SEED, "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc["params"] == {
            "n": 82, "r": 32, "l": 2, "s": 32,
            "variant": variant, "perm_mode": "feistel", "lambda": 2,
        }
        pk, sk = keypair(tmp_path, out)
        sig = tmp_path / "sig.json"
        assert run("sign", "--sk", str(sk), "--msg", "10", "--out", str(sig), "--unsafe-test-io") == 0
        assert run("verify", "--pk", str(pk), "--msg", "10", "--sig", str(sig)) == 0
        assert run("verify", "--pk", str(pk), "--msg", "01", "--sig", str(sig)) == 1
        capsys.readouterr()
        assert run("bench", "--world", str(out), "--ops", "2", "--rng-seed", "01", "--json") == 0
        # gen {}, sign {D: l} and verify {Pinv: 1} per cycle
        spent = json.loads(capsys.readouterr().out)["query_delta"]
        assert spent == {"P": 0, "Pinv": 2, "D": 4, "D0": 0, "Dprime": 0}
    # lambda = 2 incompressible and lambda = 3 both have n = 171 and r = 96
    for argv in (["--lambda", "2", "--variant", "incompressible"], ["--lambda", "3"]):
        out = tmp_path / "refused.json"
        assert run("world", "new", *argv, "--out", str(out)) == 1
        assert "rejected: r = 96 exceeds the widest hash value" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "shape, refusal",
    [
        ({"n": 8, "r": 2, "l": 2, "variant": "bloated"}, "bloat needs s >= 1"),
        ({"n": 8, "r": 2, "l": 2, "s": 9, "variant": "bloated"}, "bloat needs n - r - l >= s"),
        ({"n": 25, "r": 2, "l": 2}, "n = 25 exceeds the 'table' permutation limit of 24"),
        ({"n": 129, "r": 2, "l": 2, "perm-mode": "feistel"}, "limit of 128"),
        ({"n": 80, "r": 64, "l": 2, "perm-mode": "feistel"}, "r = 64 exceeds"),
    ],
)
def test_a_refused_shape_exits_1_at_world_new_and_64_from_a_file(tmp_path, world, capsys, shape, refusal):
    out = tmp_path / "refused.json"
    flags = [arg for key, value in shape.items() for arg in (f"--{key}", str(value))]
    assert run("world", "new", *flags, "--seed", WORLD_SEED, "--out", str(out)) == 1
    assert refusal in capsys.readouterr().err
    assert not out.exists()
    # the same shape in a stored document is a malformed input file
    doc = json.loads(world.read_text())
    doc["params"].update({key.replace("-", "_"): value for key, value in shape.items()})
    world.write_text(json.dumps(doc))
    for argv in (("world", "show"), ("gen", "--pk-out", str(tmp_path / "pk.json"))):
        assert run(*argv, "--world", str(world)) == 64
        err = capsys.readouterr().err
        assert "bad world document" in err and refusal in err
    assert not (tmp_path / "pk.json").exists()


def test_bench_draws_messages_of_64_bits_and_more(tmp_path, capsys):
    world = tmp_path / "w.json"
    assert run("world", "new", "--n", "128", "--r", "1", "--l", "100", "--perm-mode", "feistel",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    capsys.readouterr()
    assert run("bench", "--world", str(world), "--ops", "2", "--rng-seed", "01", "--json") == 0
    spent = json.loads(capsys.readouterr().out)["query_delta"]
    assert spent == {"P": 0, "Pinv": 2, "D": 200, "D0": 0, "Dprime": 0}


def test_experiments_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run("experiments", "--suite", "queries", "--out", str(out), "--json")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in doc["reports"]] == ["query-profiles"]
    stored = json.loads(out.read_text())
    assert stored["kind"] == "experiments"
    assert all(m["pass"] for r in stored["reports"] for m in r["metrics"])


def test_experiments_in_worker_processes_match_the_serial_run(capsys, monkeypatch):
    args = ("experiments", "--suite", "queries", "--suite", "incompressible", "--json")

    def reports():
        doc = json.loads(capsys.readouterr().out)
        for rep in doc["reports"]:
            rep["metrics"] = [m for m in rep["metrics"] if m["id"] != "runtime_seconds"]
        return doc["reports"]

    assert run(*args) == 0
    serial = reports()
    monkeypatch.setenv("OSSLAB_THREADS", "2")
    assert run(*args) == 0
    assert reports() == serial
    assert [r["name"] for r in serial] == ["query-profiles", "incompressible"]


def test_experiments_take_no_trial_count():
    with pytest.raises(SystemExit) as exc:
        run("experiments", "--suite", "queries", "--trials", "5")
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [["experiments", "--suite", "queries"], ["distinguisher", "--case", "hash-only", "--trials", "1"]],
)
def test_an_empty_seed_is_refused_not_defaulted(argv, capsys):
    assert run(*argv, "--seed", "") == 64
    err = capsys.readouterr().err
    assert err.endswith("seed must be 32 bytes (64 hex digits), got 0\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["gen", "sign", "bench"])
def test_an_empty_rng_seed_is_refused_not_defaulted(command, tmp_path, world, capsys):
    _, sk = keypair(tmp_path, world)
    argv = {
        "gen": ["gen", "--world", str(world), "--pk-out", str(tmp_path / "pk2.json")],
        "sign": ["sign", "--sk", str(sk), "--msg", "10", "--unsafe-test-io"],
        "bench": ["bench", "--world", str(world), "--ops", "1"],
    }[command]
    capsys.readouterr()
    assert run(*argv, "--rng-seed", "") == 64
    captured = capsys.readouterr()
    assert captured.err.endswith("--rng-seed must not be empty\n") and captured.err.count("\n") == 1
    assert captured.out == "" and not (tmp_path / "pk2.json").exists()
    assert not json.loads(sk.read_text())["consumed"]


@pytest.mark.parametrize("case", ["hash-only", "hash-first-bit"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_distinguisher_refuses_fewer_than_one_trial(case, trials, capsys):
    assert run("distinguisher", "--case", case, "--trials", trials) == 64
    assert "--trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["--case", "hash-first-bit", "--n", "64", "--trials", "10"], "hash-first-bit needs n <= 30"),
        (["--case", "hash-first-bit", "--n", "31", "--trials", "10"], "hash-first-bit needs n <= 30"),
        (["--case", "hash-first-bit", "--n", "6", "--r", "7"], "need r + ell <= n"),
        (["--case", "hash-only", "--n", "6", "--r", "7"], "need r + ell <= n"),
        (["--case", "hash-first-bit", "--trials", "1"], "needs at least 2 trials"),
        (["--case", "hash-only", "--n", "24", "--r", "17"], "hash-only needs r <= 16"),
        (["--case", "hash-only", "--n", "64", "--r", "30"], "hash-only needs r <= 16"),
        # past 64 bits: refused, where numpy's uint64 cast would raise OverflowError
        (["--case", "hash-only", "--n", "80", "--r", "4", "--trials", "10"], "hash-only needs n <= 64"),
    ],
)
def test_distinguisher_refuses_what_it_cannot_run(argv, refusal, capsys):
    assert run("distinguisher", *argv) == 1
    err = capsys.readouterr().err
    assert refusal in err and err.count("\n") == 1


def test_distinguisher_subcommand(capsys):
    code = run("distinguisher", "--case", "hash-only", "--trials", "50", "--json")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(m["pass"] for m in doc["metrics"])


def test_bench_subcommand(world, tmp_path, capsys):
    assert run("bench", "--world", str(world), "--ops", "5", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ops"] == 5
    # l = 2 dual queries per sign, one decode per verify, zeros listed
    assert doc["query_delta"] == {"P": 0, "Pinv": 5, "D": 10, "D0": 0, "Dprime": 0}
    # the same profile on the dense backend, on a dense key of 2^12 points,
    # and on symbolic keys of 2^24 and 2^32 points in Feistel worlds
    shapes = [
        ("12", "4", "3", "table", "statevector"),
        ("20", "8", "6", "table", "statevector"),
        ("32", "8", "8", "feistel", "symbolic"),
        ("64", "32", "16", "feistel", "symbolic"),
    ]
    for n, r, l, perm_mode, backend in shapes:
        path = tmp_path / f"bench-{n}.json"
        assert run("world", "new", "--n", n, "--r", r, "--l", l, "--perm-mode", perm_mode,
                   "--seed", WORLD_SEED, "--out", str(path)) == 0
        capsys.readouterr()
        assert run("bench", "--world", str(path), "--backend", backend,
                   "--ops", "20", "--rng-seed", "01", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["backend"], doc["ops"]) == (backend, 20)
        assert doc["query_delta"] == {"P": 0, "Pinv": 20, "D": 20 * int(l), "D0": 0, "Dprime": 0}


@pytest.mark.parametrize(
    "variant, verify_queries",
    [("bloated", {"Pinv": 3, "D0": 0}), ("incompressible", {"Pinv": 0, "D0": 3})],
    ids=["bloated", "incompressible"],
)
def test_bench_on_a_bloated_world(tmp_path, capsys, variant, verify_queries):
    world = tmp_path / f"{variant}.json"
    assert run("world", "new", "--n", "12", "--r", "4", "--l", "3", "--s", "2",
               "--variant", variant, "--seed", WORLD_SEED, "--out", str(world)) == 0
    # both backends spend the same queries
    for backend in ("symbolic", "statevector"):
        capsys.readouterr()
        assert run("bench", "--world", str(world), "--backend", backend,
                   "--ops", "3", "--rng-seed", "01", "--json") == 0
        spent = json.loads(capsys.readouterr().out)["query_delta"]
        # l = 3 dual queries per sign; one decode, or one membership query and no decode, per verify
        assert spent["D"] == 9
        assert {k: spent[k] for k in verify_queries} == verify_queries


@pytest.mark.parametrize(
    "variant, perm_mode, l, backend, refusal",
    [
        ("original", "table", "0", "symbolic", "unstructured worlds cannot generate signing keys"),
        ("original", "table", "0", "statevector", "unstructured worlds cannot generate signing keys"),
    ],
)
def test_bench_refuses_what_gen_refuses(tmp_path, capsys, variant, perm_mode, l, backend, refusal):
    world = tmp_path / "w.json"
    assert run("world", "new", "--n", "8", "--r", "3", "--l", l, "--variant", variant,
               "--perm-mode", perm_mode, "--seed", WORLD_SEED, "--out", str(world)) == 0
    capsys.readouterr()
    assert run("gen", "--world", str(world), "--backend", backend,
               "--pk-out", str(tmp_path / "pk.json")) == 1
    assert refusal in capsys.readouterr().err
    assert run("bench", "--world", str(world), "--backend", backend, "--ops", "2") == 1
    assert refusal in capsys.readouterr().err


def test_bench_refuses_a_dense_key_wider_than_the_cap(tmp_path, capsys):
    world = tmp_path / "w.json"
    assert run("world", "new", "--n", "40", "--r", "15", "--l", "2", "--perm-mode", "feistel",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    capsys.readouterr()
    assert run("gen", "--world", str(world), "--backend", "statevector",
               "--pk-out", str(tmp_path / "pk.json")) == 1
    refusal = capsys.readouterr().err
    assert "allow n - r <= 24, got 25" in refusal
    assert run("bench", "--world", str(world), "--backend", "statevector", "--ops", "2") == 1
    assert capsys.readouterr().err == refusal
    # with 2^16-point cosets the same n runs dense
    assert run("world", "new", "--n", "40", "--r", "24", "--l", "2", "--perm-mode", "feistel",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    assert run("bench", "--world", str(world), "--backend", "statevector", "--ops", "2") == 0


@pytest.mark.parametrize("ops", ["0", "-3"])
def test_bench_refuses_fewer_than_one_op(world, ops):
    assert run("bench", "--world", str(world), "--ops", ops) == 64


def test_unwritable_outputs_exit_64(tmp_path, world, capsys):
    missing = tmp_path / "missing"
    capsys.readouterr()
    for argv in (
        ["world", "new", "--n", "8", "--r", "3", "--l", "2", "--out", str(missing / "w.json")],
        ["gen", "--world", str(world), "--pk-out", str(missing / "pk.json")],
        ["experiments", "--suite", "queries", "--out", str(missing / "r.json")],
    ):
        assert run(*argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("osslab: error: cannot write") and err.count("\n") == 1
    assert not missing.exists()


def test_sign_into_a_missing_directory_keeps_the_token(tmp_path, world, capsys):
    _, sk = keypair(tmp_path, world)
    out = tmp_path / "missing" / "sig.json"
    capsys.readouterr()
    assert run("sign", "--sk", str(sk), "--msg", "10", "--out", str(out), "--unsafe-test-io") == 64
    err = capsys.readouterr().err
    assert err.startswith("osslab: error: cannot write") and err.count("\n") == 1
    assert json.loads(sk.read_text())["consumed"] is False
    # the kept token still signs once
    assert run("sign", "--sk", str(sk), "--msg", "10", "--unsafe-test-io") == 0
    assert json.loads(sk.read_text())["consumed"] is True


def test_verify_refuses_a_public_key_whose_y_is_not_plain_hex(tmp_path, capsys):
    world = tmp_path / "w.json"  # r = 5: y has two hex digits, as "+1" has two characters
    assert run("world", "new", "--n", "10", "--r", "5", "--l", "2",
               "--seed", WORLD_SEED, "--out", str(world)) == 0
    pk, sk = keypair(tmp_path, world)
    sig = tmp_path / "sig.json"
    assert run("sign", "--sk", str(sk), "--msg", "10", "--out", str(sig), "--unsafe-test-io") == 0
    doc = json.loads(pk.read_text())
    doc["y"] = "+1"  # int("+1", 16) reads it as 1
    pk.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--pk", str(pk), "--msg", "10", "--sig", str(sig)) == 64
    assert "bad y field" in capsys.readouterr().err


def test_no_temp_files_left_behind(tmp_path, world):
    keypair(tmp_path, world)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".osslab-tmp-")]
    assert leftovers == []
