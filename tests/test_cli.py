"""Command-line workflows driven end-to-end from files."""

import itertools
import json
import os
import random
import re
import shlex
import stat
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

import dirsig.cli
from dirsig import FixtureHash, FixtureMissError, serialize
from dirsig.cli import main
from dirsig.directed import sign_directed, verify_directed
from dirsig.group import GroupElement, SchnorrGroup, keygen
from dirsig.keystore import Keystore

from conftest import MSG

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def toy_env(tmp_path, toy_group, toy_keys):
    """Keystore with the fixed toy keys plus group and message files."""
    store = Keystore(tmp_path)
    store.save_keypair("alice", toy_keys["signer"])
    store.save_keypair("bob", toy_keys["receiver"])
    store.save_keypair("carol", toy_keys["third"])
    store.save_keypair("dave", toy_keys["extra"])
    group_file = tmp_path / "group.json"
    serialize.save_json(group_file, serialize.group_to_dict(toy_group))
    message_file = tmp_path / "message.bin"
    message_file.write_bytes(MSG)
    return tmp_path, group_file, message_file


def test_full_directed_workflow_at_production_size(tmp_path):
    group_file = tmp_path / "group.json"
    message = tmp_path / "m.bin"
    message.write_bytes(b"wire the funds")
    sig = tmp_path / "sig.json"
    commitment = tmp_path / "commitment.json"
    proof = tmp_path / "proof.json"

    assert run("paramgen", "--p-bits", 512, "--q-bits", 160, "--out", group_file) == 0
    for name in ("alice", "bob", "carol"):
        assert run("keygen", name, "--group", group_file, "--keystore", tmp_path) == 0
    assert run(
        "sign", "--group", group_file, "--keystore", tmp_path,
        "--signer", "alice", "--receiver", "bob",
        "--message-file", message, "--out", sig,
    ) == 0
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
        "--commitment-out", commitment,
    ) == 0
    assert run(
        "prove-receiver", "--group", group_file, "--keystore", tmp_path,
        "--commitment", commitment, "--receiver", "bob",
        "--third-party", "carol", "--out", proof,
    ) == 0
    assert run(
        "cverify", "--group", group_file, "--keystore", tmp_path,
        "--sig", sig, "--proof", proof, "--third-party", "carol", "--signer", "alice",
    ) == 0

    # the signer can prove independently via the retained nonce state
    signer_proof = tmp_path / "signer_proof.json"
    assert run(
        "prove-signer", "--group", group_file, "--keystore", tmp_path,
        "--nonces", f"{sig}.nonces", "--third-party", "carol", "--out", signer_proof,
    ) == 0
    assert run(
        "cverify", "--group", group_file, "--keystore", tmp_path,
        "--sig", sig, "--proof", signer_proof, "--third-party", "carol",
        "--signer", "alice",
    ) == 0


def test_replay_example_prints_all_intermediates(capsys):
    assert run("replay-example") == 0
    out = capsys.readouterr().out
    for line in (
        "W_B = 16", "V_B = 1", "r_A = 10", "S_A = 5", "R = 18",
        "V_C = 16", "W_C = 4", "V_C = 9",
    ):
        assert line in out
    assert out.count("accept") == 3
    assert "reject" not in out


def test_tampered_signature_fails_dverify(toy_env, capsys):
    tmp_path, group_file, message_file = toy_env
    sig = tmp_path / "sig.json"
    assert run(
        "sign", "--group", group_file, "--keystore", tmp_path,
        "--signer", "alice", "--receiver", "bob",
        "--message-file", message_file, "--out", sig,
    ) == 0
    import stat

    nonce_mode = stat.S_IMODE((tmp_path / "sig.json.nonces").stat().st_mode)
    assert nonce_mode == 0o600  # signer nonce state is secret material
    data = json.loads(sig.read_text())
    data["s"] = format((int(data["s"], 16) + 1) % 11, "x")
    sig.write_text(json.dumps(data))
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 2
    assert "verification-failed" in capsys.readouterr().err


def test_non_canonical_hex_signature_is_an_input_error(toy_env, capsys):
    tmp_path, group_file, message_file = toy_env
    sig = tmp_path / "sig.json"
    assert run(
        "sign", "--group", group_file, "--keystore", tmp_path,
        "--signer", "alice", "--receiver", "bob",
        "--message-file", message_file, "--out", sig,
    ) == 0
    data = json.loads(sig.read_text())
    data["s"] = "0x" + format(int(data["s"], 16), "X")
    sig.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    assert "parse-error" in capsys.readouterr().err


def test_spaced_uppercase_message_is_an_input_error(toy_env, capsys):
    tmp_path, group_file, message_file = toy_env
    sig = tmp_path / "sig.json"
    assert run(
        "sign", "--group", group_file, "--keystore", tmp_path,
        "--signer", "alice", "--receiver", "bob",
        "--message-file", message_file, "--out", sig,
    ) == 0
    data = json.loads(sig.read_text())
    data["m"] = " ".join(format(byte, "02X") for byte in MSG)
    sig.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    assert "parse-error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"s": ' + "1" * 5000 + "}"],
    ids=["deep-nesting", "long-integer"],
)
def test_unparseable_json_is_a_parse_error(toy_env, capsys, text):
    tmp_path, group_file, _ = toy_env
    sig = tmp_path / "sig.json"
    sig.write_text(text)
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    assert "parse-error" in capsys.readouterr().err


def test_ciphertext_threshold_out_of_range_is_reported_as_such(toy_env, tmp_path, capsys):
    _, group_file, message_file = toy_env
    ct = tmp_path / "ct.json"
    assert run(
        "gencrypt", "--group", group_file, "--keystore", tmp_path, "--sender", "alice",
        "--k", 1, "--member", "bob=1", "--message-file", message_file, "--out", ct,
    ) == 0
    ct.write_text(json.dumps({**json.loads(ct.read_text()), "k": 0}))
    capsys.readouterr()
    assert run(
        "gdecrypt", "--group", group_file, "--keystore", tmp_path,
        "--ct", ct, "--sender", "alice", "--member", "bob=1", "--out", tmp_path / "m.out",
    ) == 3
    assert "threshold-range" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"shares": 5}, {"k": True}])
def test_malformed_threshold_documents_are_input_errors(toy_env, capsys, bad):
    tmp_path, group_file, message_file = toy_env
    tsig, ct = tmp_path / "tsig.json", tmp_path / "ct.json"
    members = ("--member", "bob=1", "--member", "carol=2")
    assert run(
        "tsign", "--group", group_file, "--keystore", tmp_path, "--signer", "alice",
        "--k", 1, *members, "--message-file", message_file, "--out", tsig,
    ) == 0
    assert run(
        "gencrypt", "--group", group_file, "--keystore", tmp_path, "--sender", "alice",
        "--k", 1, *members, "--message-file", message_file, "--out", ct,
    ) == 0
    for path in (tsig, ct):
        path.write_text(json.dumps({**json.loads(path.read_text()), **bad}))
    capsys.readouterr()
    assert run(
        "trecover", "--group", group_file, "--keystore", tmp_path,
        "--sig", tsig, "--member", "bob", "--u", "1", "--out", tmp_path / "share.json",
    ) == 3
    assert "parse-error" in capsys.readouterr().err
    assert run(
        "gdecrypt", "--group", group_file, "--keystore", tmp_path,
        "--ct", ct, "--sender", "alice", "--member", "bob=1", "--out", tmp_path / "m.out",
    ) == 3
    assert "parse-error" in capsys.readouterr().err


def test_threshold_workflow_two_quorums(toy_env, capsys):
    tmp_path, group_file, message_file = toy_env
    tsig = tmp_path / "tsig.json"
    assert run(
        "tsign", "--group", group_file, "--keystore", tmp_path,
        "--signer", "alice", "--k", 2,
        "--member", "bob=1", "--member", "carol=2", "--member", "dave=3",
        "--message-file", message_file, "--out", tsig,
    ) == 0

    capsys.readouterr()
    members = {1: "bob", 2: "carol", 3: "dave"}
    for quorum in ((1, 2), (2, 3)):
        quorum_arg = ",".join(format(u, "x") for u in quorum)
        partial_files = []
        for u in quorum:
            share = tmp_path / f"share_{u}.json"
            shadow = tmp_path / f"shadow_{u}.json"
            partial = tmp_path / f"partial_{u}.json"
            assert run(
                "trecover", "--group", group_file, "--keystore", tmp_path,
                "--sig", tsig, "--member", members[u], "--u", format(u, "x"),
                "--out", share,
            ) == 0
            assert run(
                "tshadow", "--group", group_file, "--share", share,
                "--quorum", quorum_arg, "--out", shadow,
            ) == 0
            assert run(
                "tpartial", "--group", group_file, "--shadow", shadow, "--out", partial
            ) == 0
            partial_files.append(partial)
        assert run(
            "tcombine", "--group", group_file, "--keystore", tmp_path,
            "--sig", tsig, "--signer", "alice", "--partials", *partial_files,
        ) == 0
        assert capsys.readouterr().out == "accept\n"


def test_group_encryption_workflow(toy_env, tmp_path):
    _, group_file, message_file = toy_env
    ct = tmp_path / "ct.json"
    plain = tmp_path / "plain.bin"
    assert run(
        "gencrypt", "--group", group_file, "--keystore", tmp_path,
        "--sender", "alice", "--k", 2,
        "--member", "bob=1", "--member", "carol=2", "--member", "dave=3",
        "--message-file", message_file, "--out", ct,
    ) == 0
    assert run(
        "gdecrypt", "--group", group_file, "--keystore", tmp_path,
        "--ct", ct, "--sender", "alice",
        "--member", "carol=2", "--member", "dave=3", "--out", plain,
    ) == 0
    assert plain.read_bytes() == MSG


def test_gdecrypt_undersized_quorum(toy_env, tmp_path, capsys):
    _, group_file, message_file = toy_env
    ct = tmp_path / "ct.json"
    assert run(
        "gencrypt", "--group", group_file, "--keystore", tmp_path,
        "--sender", "alice", "--k", 2,
        "--member", "bob=1", "--member", "carol=2",
        "--message-file", message_file, "--out", ct,
    ) == 0
    assert run(
        "gdecrypt", "--group", group_file, "--keystore", tmp_path,
        "--ct", ct, "--sender", "alice", "--member", "bob=1", "--out", tmp_path / "m.out",
    ) == 3
    assert "quorum-size" in capsys.readouterr().err


def test_input_error_paths(toy_env, tmp_path, capsys):
    _, group_file, _ = toy_env
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", tmp_path / "missing.json",
    ) == 3
    assert "file-not-found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", bad,
    ) == 3
    assert "parse-error" in capsys.readouterr().err

    bad_group = tmp_path / "bad_group.json"
    bad_group.write_text(json.dumps({"p": "16", "q": "b", "g": "3"}))
    assert run("keygen", "x", "--group", bad_group, "--keystore", tmp_path) == 3
    assert "invalid-group" in capsys.readouterr().err

    assert run("tsign", "--k", "1") == 3  # missing required flags
    assert "bad-arguments" in capsys.readouterr().err


def test_group_file_is_required(toy_env, capsys):
    tmp_path, _, _ = toy_env
    assert run("keygen", "erin", "--keystore", tmp_path) == 3
    assert "bad-arguments: the following arguments are required: --group" in (
        capsys.readouterr().err
    )
    assert run("keygen", "erin", "--group", "", "--keystore", tmp_path) == 3
    assert "file-not-found" in capsys.readouterr().err
    assert run("replay-example") == 0


# every command's options and positionals: the shared ones it reads, then its own
_OPTIONS = {
    "paramgen": "--out --p-bits --q-bits",
    "keygen": "--group --keystore name",
    "sign": "--group --keystore --out --signer --receiver --message-file --nonce-out",
    "dverify": "--group --keystore --receiver --signer --sig --commitment-out",
    "prove-signer": "--group --keystore --out --nonces --third-party",
    "prove-receiver": "--group --keystore --out --commitment --receiver --third-party",
    "cverify": "--group --keystore --sig --proof --third-party --signer",
    "tsign": "--group --keystore --out --signer --member --k --message-file",
    "trecover": "--group --keystore --out --sig --member --u",
    "tshadow": "--group --out --share --quorum",
    "tpartial": "--group --out --shadow",
    "tcombine": "--group --keystore --sig --signer --partials",
    "gencrypt": "--group --keystore --out --sender --member --k --message-file",
    "gdecrypt": "--group --keystore --out --ct --sender --member",
    "replay-example": "",
}


def test_each_command_takes_only_the_options_it_reads():
    parser = dirsig.cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    taken = {
        name: [a.option_strings[0] if a.option_strings else a.dest
               for a in command._actions if a.dest != "help"]
        for name, command in commands.choices.items()
    }
    assert taken == {name: options.split() for name, options in _OPTIONS.items()}
    for name, command in commands.choices.items():
        group = [a for a in command._actions if a.dest == "group"]
        assert all(a.required for a in group), name


def test_shared_options_a_command_does_not_take_keep_their_defaults():
    parser = dirsig.cli._build_parser()
    args = parser.parse_args(["tshadow", "--group", "g", "--share", "s", "--quorum", "1",
                              "--out", "o"])
    assert (args.group, args.keystore) == ("g", ".")
    args = parser.parse_args(["replay-example"])
    assert (args.group, args.keystore) == (None, ".")


# an option the command does not take (a shared one it does not read, or the removed
# --directory), with every file it names missing
_UNREAD_OPTIONS = {
    "paramgen --group": ("paramgen", "--group", "missing.json", "--out", "g.json"),
    "tshadow --keystore": ("tshadow", "--group", "missing.json", "--keystore", "missing",
                           "--share", "missing.json", "--quorum", "1", "--out", "o.json"),
    "keygen --hash": ("keygen", "erin", "--group", "missing.json",
                      "--hash", "fixture:missing.json"),
    "dverify --seed": ("dverify", "--group", "missing.json", "--seed", "5", "--receiver", "bob",
                       "--signer", "alice", "--sig", "missing.json"),
    "replay-example --group": ("replay-example", "--group", "missing.json"),
    "tsign --directory": ("tsign", "--group", "missing.json", "--directory", "missing.json",
                          "--signer", "alice", "--member", "bob=1", "--k", "1",
                          "--message-file", "missing.bin", "--out", "t.json"),
}


@pytest.mark.parametrize("case", sorted(_UNREAD_OPTIONS))
def test_options_a_command_does_not_read_are_bad_arguments(tmp_path, monkeypatch, capsys, case):
    """Rejected by the parser: a read of any named file would be file-not-found."""
    monkeypatch.chdir(tmp_path)
    assert run(*_UNREAD_OPTIONS[case]) == 3
    captured = capsys.readouterr()
    option = case.split()[1]
    assert captured.err.startswith(f"error: bad-arguments: unrecognized arguments: {option} ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, role", [("tsign", "--signer"), ("gencrypt", "--sender")])
def test_dealing_commands_require_members(toy_env, capsys, command, role):
    tmp_path, group_file, message_file = toy_env
    out = tmp_path / "out.json"
    assert run(
        command, "--group", group_file, "--keystore", tmp_path, role, "alice", "--k", 1,
        "--message-file", message_file, "--out", out,
    ) == 3
    assert "bad-arguments: the following arguments are required: --member" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--k", "+0_1"), ("--k", "\u0661"), ("--k", "01"),
    ("--p-bits", " 9_6"), ("--p-bits", "096"), ("--q-bits", "+32"),
    pytest.param("--k", "1" * 5000, id="--k-5000-digits"),  # past the interpreter's digit limit
])
def test_integer_options_take_only_canonical_decimal(toy_env, capsys, option, value):
    """type=int took Python's integer syntax: "+0_1" and an Arabic-Indic one each
    dealt a signature, and " 9_6" built a 96-bit group. The error names the option,
    neither the converter nor the value."""
    tmp_path, group_file, message_file = toy_env
    out = tmp_path / "out.json"
    if option == "--k":
        argv = ("tsign", "--group", group_file, "--keystore", tmp_path, "--signer", "alice",
                "--member", "bob=1", "--member", "carol=2", "--message-file", message_file)
        canonical = {"--k": "2"}
    else:
        argv = ("paramgen",)
        canonical = {"--p-bits": "96", "--q-bits": "32"}
    assert run(*argv, *itertools.chain(*{**canonical, option: value}.items()), "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad-arguments: argument {option}: ")
    assert "decimal_to_int" not in err and value.strip() not in err
    assert not out.exists()
    assert run(*argv, *itertools.chain(*canonical.items()), "--out", out) == 0


def test_every_integer_option_is_canonical_decimal():
    parser = dirsig.cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    typed = {
        (name, action.dest): action.type
        for name, command in commands.choices.items()
        for action in command._actions
        if action.type is not None
    }
    decimal = dirsig.cli._decimal
    assert typed == {
        ("paramgen", "p_bits"): decimal, ("paramgen", "q_bits"): decimal,
        ("tsign", "k"): decimal, ("gencrypt", "k"): decimal,
    }


def test_a_directory_in_place_of_a_file_is_file_not_found(toy_env, capsys):
    tmp_path, group_file, _ = toy_env
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", tmp_path,
    ) == 3
    assert capsys.readouterr().err.startswith("error: file-not-found: ")


def test_internal_error_names_only_the_exception_type(monkeypatch, capsys):
    secret = "0123456789abcdef" * 2 + "01234567"  # 40 hex digits

    def fail(args):
        raise RuntimeError(secret)

    monkeypatch.setattr(dirsig.cli, "cmd_replay_example", fail)
    assert run("replay-example") == 4
    captured = capsys.readouterr()
    assert captured.err == "error: internal-error: RuntimeError\n"
    assert secret not in captured.out


# each command that makes an artifact, with every required flag but --out; run in the
# keystore directory, so the default --keystore . finds the keys
_ARTIFACT_COMMANDS = {
    "paramgen": (),
    "prove-signer": ("--group", "group.json", "--nonces", "sig.json.nonces",
                     "--third-party", "carol"),
    "prove-receiver": ("--group", "group.json", "--commitment", "c.json", "--receiver", "bob",
                       "--third-party", "carol"),
    "trecover": ("--group", "group.json", "--sig", "tsig.json", "--member", "bob", "--u", "1"),
    "tshadow": ("--group", "group.json", "--share", "share.json", "--quorum", "1"),
    "tpartial": ("--group", "group.json", "--shadow", "shadow.json"),
    "gdecrypt": ("--group", "group.json", "--ct", "ct.json", "--sender", "alice",
                 "--member", "bob=1"),
}


@pytest.mark.parametrize("command", sorted(_ARTIFACT_COMMANDS))
def test_artifact_commands_require_out(toy_env, monkeypatch, capsys, command):
    """No command prints an artifact in place of writing it."""
    tmp_path, _, _ = toy_env
    monkeypatch.chdir(tmp_path)
    assert run(command, *_ARTIFACT_COMMANDS[command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad-arguments: the following arguments are required: --out" in captured.err


def test_no_command_takes_a_format_option():
    parser = dirsig.cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    assert len(commands.choices) == 15
    for name, command in commands.choices.items():
        assert "--format" not in command.format_help(), name


def test_private_key_outside_its_range_is_a_parse_error(toy_env, capsys):
    tmp_path, group_file, _ = toy_env
    bob = tmp_path / "bob.key"
    bob.write_text(json.dumps({**json.loads(bob.read_text()), "x": "0"}))
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"s": "5", "w": "10", "v": "1", "m": MSG.hex()}))
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    assert "error: parse-error: private key must lie in [1, q-1]" in capsys.readouterr().err


def test_private_key_not_reduced_mod_q_is_malformed(toy_env, toy_group, capsys):
    tmp_path, group_file, _ = toy_env
    bob = tmp_path / "bob.key"
    bob.write_text(json.dumps({**json.loads(bob.read_text()), "x": format(toy_group.q, "x")}))
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"s": "5", "w": "10", "v": "1", "m": MSG.hex()}))
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    assert "error: malformed-signature: field 'x' is not reduced mod q" in capsys.readouterr().err


def test_public_key_is_read_only_from_its_pub_file(toy_env, monkeypatch, capsys):
    """With alice.pub gone, dverify must not take alice's y from alice.key, her private key."""
    tmp_path, group_file, message_file = toy_env
    common = ("--group", group_file, "--keystore", tmp_path)
    sig = tmp_path / "sig.json"
    assert run(
        "sign", *common, "--signer", "alice", "--receiver", "bob",
        "--message-file", message_file, "--out", sig,
    ) == 0
    (tmp_path / "alice.pub").unlink()
    loaded = []
    load_keypair = Keystore.load_keypair

    def recording_load_keypair(self, group, name):
        loaded.append(name)
        return load_keypair(self, group, name)

    monkeypatch.setattr(Keystore, "load_keypair", recording_load_keypair)
    capsys.readouterr()
    assert run("dverify", *common, "--receiver", "bob", "--signer", "alice", "--sig", sig) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: file-not-found: ") and "alice.pub" in err
    assert loaded == ["bob"]


def test_every_run_draws_a_fresh_key_and_fresh_nonces(tmp_path, big_group):
    """No option repeats a run: a nonce used twice gives the signer's key to the receiver
    (tests/test_directed.py::test_a_reused_nonce_gives_the_receiver_the_signers_key)."""
    group_file = tmp_path / "group.json"
    serialize.save_json(group_file, serialize.group_to_dict(big_group))
    keys = []
    for store in (tmp_path / "ks1", tmp_path / "ks2"):  # keygen refuses to replace a key
        assert run("keygen", "alice", "--group", group_file, "--keystore", store) == 0
        keys.append((store / "alice.key").read_bytes())
    assert keys[0] != keys[1]
    common = ("--group", group_file, "--keystore", tmp_path / "ks1")
    assert run("keygen", "bob", *common) == 0
    message = tmp_path / "m.bin"
    message.write_bytes(MSG)
    sigs = []
    for out in (tmp_path / "s1.json", tmp_path / "s2.json"):
        assert run(
            "sign", *common, "--signer", "alice", "--receiver", "bob",
            "--message-file", message, "--out", out,
        ) == 0
        sigs.append(json.loads(out.read_text()))
    assert sigs[0]["w"] != sigs[1]["w"] and sigs[0]["v"] != sigs[1]["v"]


@pytest.mark.parametrize("existing", ["alice.key", "alice.pub"])
def test_keygen_refuses_to_replace_a_key(tmp_path, big_group, capsys, existing):
    """A replaced key loses every signature and ciphertext made for it: a second keygen of
    one name exits 3 and writes nothing, whichever of NAME.key and NAME.pub is left."""
    group_file = tmp_path / "group.json"
    serialize.save_json(group_file, serialize.group_to_dict(big_group))
    common = ("--group", group_file, "--keystore", tmp_path)
    assert run("keygen", "alice", *common) == 0
    for name in {"alice.key", "alice.pub"} - {existing}:
        (tmp_path / name).unlink()
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert run("keygen", "alice", *common) == 3
    assert capsys.readouterr().err.startswith("error: keystore-error: ")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def _readme_cli_blocks():
    """The argv lists of each README `sh` block that runs `dirsig`, one list per block."""
    blocks = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.replace("\\\n", " ").splitlines()
        commands = [words for words in map(partial(shlex.split, comments=True), lines) if words]
        if any(words[0] == "dirsig" for words in commands):
            assert all(words[0] == "dirsig" for words in commands), commands
            blocks.append([words[1:] for words in commands])
    return blocks


def test_readme_cli_blocks_run_and_print_no_secret(tmp_path, monkeypatch, capsys):
    """The README walkthrough, run as written at 512/160 in a fresh directory.

    No command's stdout or stderr holds, in lowercase hex or decimal, a
    private key, the nonce state, either commitment R, a share, shadow or
    partial, or the decrypted plaintext.
    """
    monkeypatch.chdir(tmp_path)
    message = b"wire the funds to account 4242 by friday"
    Path("m.txt").write_bytes(message)
    blocks = _readme_cli_blocks()
    assert len(blocks) == 3  # directed, threshold verification, group encryption
    printed = []
    for argv in itertools.chain.from_iterable(blocks):
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        printed += [captured.out, captured.err]
    text = "\n".join(printed)
    assert "accept" in text

    def load(path):
        return {key: int(value, 16) for key, value in json.loads(path.read_text()).items()
                if isinstance(value, str)}

    group = serialize.group_from_dict(serialize.load_json("group.json"))
    assert (group.p.bit_length(), group.q.bit_length()) == (512, 160)
    secrets = [load(path)["x"] for path in Path("ks").glob("*.key")]
    secrets += [load(Path("sig.json.nonces"))[k] for k in ("k1", "k2")]
    secrets += load(Path("commit.json")).values()
    partials = [load(path)["r"] for path in Path().glob("partial*.json")]
    secrets += partials + [load(path)["v"] for path in Path().glob("share*.json")]
    secrets += [load(path)["ms"] for path in Path().glob("shadow*.json")]
    secrets.append(partials[0] * partials[1] % group.p)  # the threshold R
    assert len(secrets) == 4 + 2 + 2 + 2 * 3 + 1
    assert Path("m.out").read_bytes() == message
    secrets.append(int.from_bytes(message, "big"))
    for value in secrets:
        assert len(format(value, "x")) >= 32  # too long to be matched by chance
        assert format(value, "x") not in text.lower() and str(value) not in text


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dirsig", "replay-example"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "S_A = 5" in proc.stdout


def _threshold_files(tmp_path, group_file, message_file):
    """A 2-of-3 threshold signature and ciphertext to bob=1, carol=2, dave=3."""
    tsig, ct = tmp_path / "tsig.json", tmp_path / "ct.json"
    members = ("--member", "bob=1", "--member", "carol=2", "--member", "dave=3")
    common = ("--group", group_file, "--keystore", tmp_path, "--k", 2, *members,
              "--message-file", message_file)
    assert run("tsign", "--signer", "alice", *common, "--out", tsig) == 0
    assert run("gencrypt", "--sender", "alice", *common, "--out", ct) == 0
    return tsig, ct


@pytest.mark.parametrize("u", ["c", "b", "01", " 1", "+1"])
def test_identity_arguments_must_be_canonical_below_q(toy_env, capsys, u):
    """The toy group has q = 11, so "c" must not stand for identity 1."""
    tmp_path, group_file, message_file = toy_env
    tsig, ct = _threshold_files(tmp_path, group_file, message_file)
    share = tmp_path / "share.json"
    assert run(
        "trecover", "--group", group_file, "--keystore", tmp_path,
        "--sig", tsig, "--member", "bob", "--u", "1", "--out", share,
    ) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert run(
        "trecover", "--group", group_file, "--keystore", tmp_path,
        "--sig", tsig, "--member", "bob", "--u", u, "--out", out,
    ) == 3
    assert "parse-error" in capsys.readouterr().err
    assert run(
        "tshadow", "--group", group_file, "--share", share, "--quorum", f"{u},2", "--out", out
    ) == 3
    assert "parse-error" in capsys.readouterr().err
    assert run(
        "gdecrypt", "--group", group_file, "--keystore", tmp_path, "--ct", ct,
        "--sender", "alice", "--member", f"bob={u}", "--member", "carol=2", "--out", out,
    ) == 3
    assert "parse-error" in capsys.readouterr().err


@pytest.mark.parametrize("quorum", ["1, 2", "1,,2", "1,2,", ""])
def test_quorum_list_takes_no_spaces_or_empty_items(toy_env, capsys, quorum):
    tmp_path, group_file, message_file = toy_env
    tsig, _ = _threshold_files(tmp_path, group_file, message_file)
    share = tmp_path / "share.json"
    assert run(
        "trecover", "--group", group_file, "--keystore", tmp_path,
        "--sig", tsig, "--member", "bob", "--u", "1", "--out", share,
    ) == 0
    capsys.readouterr()
    assert run(
        "tshadow", "--group", group_file, "--share", share, "--quorum", quorum,
        "--out", tmp_path / "shadow.json",
    ) == 3
    assert "parse-error" in capsys.readouterr().err


def test_parse_errors_do_not_echo_a_huge_value(toy_env, capsys):
    tmp_path, group_file, _ = toy_env
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"s": "5", "w": "10", "v": "1", "m": "Z" * (1 << 20)}))
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    err = capsys.readouterr().err
    assert "parse-error" in err and len(err) < 1024
    # nor the names of unexpected fields
    sig.write_text(json.dumps({"s": "5", "w": "10", "v": "1", "m": "", "Z" * 4096: 1}))
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    err = capsys.readouterr().err
    assert "parse-error" in err and "ZZ" not in err and len(err) < 1024


def test_parse_errors_do_not_echo_secrets(tmp_path, big_group, capsys):
    """A non-canonical private key or share value stays off stderr."""
    group_file = tmp_path / "group.json"
    serialize.save_json(group_file, serialize.group_to_dict(big_group))
    rng = random.Random(0x5EC2E7)
    store = Keystore(tmp_path)
    for name in ("alice", "bob"):
        store.save_keypair(name, keygen(big_group, rng))
    bob = store.keypair_path("bob")
    key = json.loads(bob.read_text())
    secret = key["x"]
    bob.write_text(json.dumps({**key, "x": "0" + secret}))
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"s": "5", "w": "1", "v": "1", "m": ""}))
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig,
    ) == 3
    err = capsys.readouterr().err
    assert "parse-error" in err
    assert secret not in err and str(int(secret, 16)) not in err

    share_value = format(big_group.q - 1, "x")
    share = tmp_path / "share.json"
    share.write_text(json.dumps({"u": "1", "v": share_value.upper()}))
    assert run(
        "tshadow", "--group", group_file, "--share", share, "--quorum", "1",
        "--out", tmp_path / "shadow.json",
    ) == 3
    err = capsys.readouterr().err
    assert "parse-error" in err
    assert share_value.upper() not in err and str(big_group.q - 1) not in err


def test_oversized_group_is_an_invalid_group(tmp_path, capsys):
    """A p of 5001 decimal digits is reported by size, not by its digits."""
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"p": format(10**5000, "x"), "q": "b", "g": "3"}))
    assert run(
        "dverify", "--group", huge, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", tmp_path / "never-read.json",
    ) == 3
    err = capsys.readouterr().err
    assert "invalid-group" in err and len(err) < 1024


def test_fixture_miss_does_not_print_the_commitment(tmp_path, big_group, capsys):
    """R is designation-sensitive: neither a fixture miss on it nor a rejecting dverify
    names its decimal or its hex."""
    group_file = tmp_path / "group.json"
    serialize.save_json(group_file, serialize.group_to_dict(big_group))
    rng = random.Random(0xF1C7)
    store = Keystore(tmp_path)
    alice, bob = keygen(big_group, rng), keygen(big_group, rng)
    store.save_keypair("alice", alice)
    store.save_keypair("bob", bob)
    sig, nonces = sign_directed(big_group, alice, bob.y, MSG, rng)
    r_value = (big_group.generator ** nonces.k1).value
    leaks = (str(r_value), format(r_value, "x"))

    with pytest.raises(FixtureMissError) as info:
        verify_directed(big_group, sig, bob, alice.y, FixtureHash({(5, MSG): 1}))
    assert not any(leak in str(info.value) for leak in leaks)

    # the CLI hashes with SHA-256 only; its rejection of the same R must not name it
    data = serialize.directed_signature_to_dict(sig)
    data["s"] = format((int(data["s"], 16) + 1) % big_group.q, "x")
    sig_file = tmp_path / "sig.json"
    serialize.save_json(sig_file, data)
    assert run(
        "dverify", "--group", group_file, "--keystore", tmp_path,
        "--receiver", "bob", "--signer", "alice", "--sig", sig_file,
    ) == 2
    out, err = capsys.readouterr()
    assert "verification-failed" in err
    assert not any(leak in out + err for leak in leaks)


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


@pytest.fixture()
def modes_at_write(monkeypatch):
    """Mode and size of each JSON file as `json.dump` starts on it, keyed by inode."""
    seen = {}
    dump = json.dump

    def spy(obj, fh, **kwargs):
        st = os.fstat(fh.fileno())
        seen[st.st_dev, st.st_ino] = (stat.S_IMODE(st.st_mode), st.st_size)
        return dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", spy)
    return seen


@pytest.mark.parametrize("existing", [False, True], ids=["new", "overwrite-0644"])
def test_secret_files_are_0600_from_their_first_byte(
    toy_env, umask_022, modes_at_write, existing
):
    tmp_path, group_file, message_file = toy_env
    f = {name: tmp_path / name for name in (
        "erin.key", "sig.json.nonces", "commit.json", "share.json", "shadow.json",
        "erin.pub", "sig.json", "proof.json", "partial.json", "group2.json", "tsig.json",
    )}
    secret = ("erin.key", "sig.json.nonces", "commit.json", "share.json", "shadow.json")
    if existing:
        for path in f.values():
            path.write_text("stale secret\n")
            os.chmod(path, 0o644)
    common = ("--group", group_file, "--keystore", tmp_path)
    if existing:  # keygen refuses to replace a key: erin's stale files stay as they were
        assert run("keygen", "erin", *common) == 3
        for name in ("erin.key", "erin.pub"):
            assert f[name].read_text() == "stale secret\n"
            assert stat.S_IMODE(f[name].stat().st_mode) == 0o644
            f[name].unlink()
    assert run("keygen", "erin", *common) == 0
    assert run("paramgen", "--p-bits", 64, "--q-bits", 32, "--out", f["group2.json"]) == 0
    assert run(
        "sign", *common, "--signer", "alice", "--receiver", "bob",
        "--message-file", message_file, "--out", f["sig.json"],
    ) == 0
    assert run(
        "dverify", *common, "--receiver", "bob", "--signer", "alice",
        "--sig", f["sig.json"], "--commitment-out", f["commit.json"],
    ) == 0
    assert run(
        "prove-receiver", *common, "--commitment", f["commit.json"],
        "--receiver", "bob", "--third-party", "carol", "--out", f["proof.json"],
    ) == 0
    assert run(
        "tsign", *common, "--signer", "alice", "--k", 1, "--member", "bob=1",
        "--message-file", message_file, "--out", f["tsig.json"],
    ) == 0
    assert run(
        "trecover", *common, "--sig", f["tsig.json"], "--member", "bob", "--u", "1",
        "--out", f["share.json"],
    ) == 0
    member = ("--group", group_file)  # the member steps read no key
    assert run(
        "tshadow", *member, "--share", f["share.json"], "--quorum", "1", "--out", f["shadow.json"]
    ) == 0
    assert run("tpartial", *member, "--shadow", f["shadow.json"], "--out", f["partial.json"]) == 0

    for name, path in f.items():
        want = 0o600 if name in secret else 0o644
        st = path.stat()
        assert modes_at_write[st.st_dev, st.st_ino] == (want, 0), name  # before any byte
        assert stat.S_IMODE(st.st_mode) == want, name
        assert "stale" not in path.read_text(), name


@pytest.mark.parametrize("existing", [False, True], ids=["new", "overwrite-0644"])
def test_decrypted_plaintext_is_0600_from_its_first_byte(
    toy_env, tmp_path, umask_022, monkeypatch, existing
):
    _, group_file, message_file = toy_env
    ct, plain = tmp_path / "ct.json", tmp_path / "plain.bin"
    if existing:
        plain.write_text("stale plaintext\n")
        os.chmod(plain, 0o644)
    at_open = []
    open_output = dirsig.cli._open_output

    @contextmanager
    def spy(path, *args, **kwargs):
        with open_output(path, *args, **kwargs) as fh:
            st = os.fstat(fh.fileno())
            at_open.append((stat.S_IMODE(st.st_mode), st.st_size))
            yield fh

    monkeypatch.setattr(dirsig.cli, "_open_output", spy)
    common = ("--group", group_file, "--keystore", tmp_path, "--sender", "alice")
    assert run(
        "gencrypt", *common, "--k", 1, "--member", "bob=1",
        "--message-file", message_file, "--out", ct,
    ) == 0
    assert run("gdecrypt", *common, "--ct", ct, "--member", "bob=1", "--out", plain) == 0
    assert at_open == [(0o600, 0)]  # before any byte of the plaintext
    assert stat.S_IMODE(plain.stat().st_mode) == 0o600
    assert plain.read_bytes() == MSG


@pytest.mark.parametrize("spelling", ["./", "symlink", "hard-link"])
def test_no_secret_output_may_name_the_file_that_is_sent_on(
    toy_env, monkeypatch, capsys, spelling
):
    """`sign --nonce-out` naming the `--out` file left {k1, k2, sig} in the signature's
    place, and whoever is sent it gets x = (s - k1)/h; `dverify --commitment-out` naming
    `--sig` left R there, `trecover --out` naming `--sig` the member's share (k1 when
    k = 1) and `gdecrypt --out` naming `--ct` the plaintext. Each is bad arguments before
    any write, however spelled."""
    tmp_path, group_file, message_file = toy_env
    monkeypatch.chdir(tmp_path)
    sig = tmp_path / "sig.json"
    common = ("--group", group_file, "--keystore", tmp_path)
    sign = ("sign", *common, "--signer", "alice", "--receiver", "bob",
            "--message-file", message_file, "--out", "sig.json")
    dverify = ("dverify", *common, "--receiver", "bob", "--signer", "alice", "--sig", "sig.json")

    def other_name(target="sig.json"):
        if spelling == "./":
            return f"./{target}"
        other = tmp_path / "other.json"
        other.unlink(missing_ok=True)
        if spelling == "symlink":
            other.symlink_to(target)
        else:
            os.link(tmp_path / target, other)
        return "other.json"

    def refused(argv, message):
        assert run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: bad-arguments: {message}\n"
        assert captured.out == ""

    if spelling != "hard-link":  # one needs an existing file
        refused((*sign, "--nonce-out", other_name()), "--nonce-out names the --out file")
        assert not sig.exists()
    assert run(*sign) == 0
    capsys.readouterr()
    signature = sig.read_bytes()
    refused((*sign, "--nonce-out", other_name()), "--nonce-out names the --out file")
    refused((*dverify, "--commitment-out", other_name()), "--commitment-out names the --sig file")
    assert sig.read_bytes() == signature
    assert set(json.loads(signature)) == {"s", "w", "v", "m"}  # no k1
    assert run(*dverify, "--commitment-out", "./commit.json") == 0

    dealing = ("--k", 1, "--member", "bob=1", "--message-file", message_file)
    assert run("tsign", *common, "--signer", "alice", *dealing, "--out", "tsig.json") == 0
    assert run("gencrypt", *common, "--sender", "alice", *dealing, "--out", "ct.json") == 0
    capsys.readouterr()
    sent = {name: (tmp_path / name).read_bytes() for name in ("tsig.json", "ct.json")}
    trecover = ("trecover", *common, "--sig", "tsig.json", "--member", "bob", "--u", "1")
    gdecrypt = ("gdecrypt", *common, "--ct", "ct.json", "--sender", "alice", "--member", "bob=1")
    refused((*trecover, "--out", other_name("tsig.json")), "--out names the --sig file")
    refused((*gdecrypt, "--out", other_name("ct.json")), "--out names the --ct file")
    assert {name: (tmp_path / name).read_bytes() for name in sent} == sent
    assert run(*trecover, "--out", "share.json") == 0
    assert run(*gdecrypt, "--out", "plain.bin") == 0


@pytest.mark.parametrize("command", ["sign", "tsign", "gencrypt"])
def test_the_identity_is_not_a_public_key(toy_env, capsys, command):
    """A `.pub` holding y = 1, a subgroup member, exits 3 before anything is written. At
    512/160, `sign --receiver mallory` under it wrote v = R, so anyone could check
    g^s = v·y_A^h, and `tsign --k 1` dealt mallory the share k1, hence x, in the clear."""
    tmp_path, group_file, message_file = toy_env
    serialize.save_json(tmp_path / "mallory.pub", {"y": "1"})
    out = tmp_path / "out.json"
    dealing = ("--member", "mallory=5", "--member", "bob=7", "--k", 1)
    party = {
        "sign": ("--signer", "alice", "--receiver", "mallory"),
        "tsign": ("--signer", "alice", *dealing),
        "gencrypt": ("--sender", "alice", *dealing),
    }[command]
    argv = (command, "--group", group_file, "--keystore", tmp_path, *party,
            "--message-file", message_file, "--out", out)
    assert run(*argv) == 3
    assert capsys.readouterr().err == "error: parse-error: public key is the identity\n"
    assert not out.exists()


def test_tcombine_multiplies_the_partials_once(toy_env, capsys, monkeypatch):
    tmp_path, group_file, message_file = toy_env
    common = ("--group", group_file, "--keystore", tmp_path)
    k = 3
    tsig = tmp_path / "tsig.json"
    assert run(
        "tsign", *common, "--signer", "alice", "--k", k,
        "--member", "bob=1", "--member", "carol=2", "--member", "dave=3",
        "--message-file", message_file, "--out", tsig,
    ) == 0
    partials = []
    for u, name in ((1, "bob"), (2, "carol"), (3, "dave")):
        share, shadow, partial = (tmp_path / f"{kind}_{u}.json" for kind in ("s", "m", "p"))
        assert run(
            "trecover", *common, "--sig", tsig, "--member", name, "--u", u, "--out", share
        ) == 0
        assert run(
            "tshadow", "--group", group_file, "--share", share, "--quorum", "1,2,3", "--out", shadow
        ) == 0
        assert run("tpartial", "--group", group_file, "--shadow", shadow, "--out", partial) == 0
        partials.append(partial)
    capsys.readouterr()

    calls = []
    original = GroupElement.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(GroupElement, "__mul__", counting_mul)
    assert run("tcombine", *common, "--sig", tsig, "--signer", "alice", "--partials", *partials) == 0
    # k - 1 products rebuild R once; the verification equation's R * y^h is one more
    assert len(calls) == (k - 1) + 1
    assert capsys.readouterr().out == "accept\n"


def test_gdecrypt_rejects_a_short_cipher_nonce_before_any_member_step(
    toy_env, tmp_path, capsys, monkeypatch
):
    _, group_file, message_file = toy_env
    common = ("--group", group_file, "--keystore", tmp_path, "--sender", "alice")
    ct = tmp_path / "ct.json"
    assert run(
        "gencrypt", *common, "--k", 1, "--member", "bob=1",
        "--message-file", message_file, "--out", ct,
    ) == 0
    ct.write_text(json.dumps({**json.loads(ct.read_text()), "nonce": "00"}))
    powers = []
    real_pow = GroupElement.__pow__
    monkeypatch.setattr(
        GroupElement, "__pow__", lambda self, e: powers.append(e) or real_pow(self, e)
    )
    capsys.readouterr()
    plain = tmp_path / "m.out"
    assert run("gdecrypt", *common, "--ct", ct, "--member", "bob=1", "--out", plain) == 3
    assert powers == []  # no key was loaded and no member step ran
    assert "error: parse-error: cipher nonce must be 12 bytes" in capsys.readouterr().err


def count_element_calls(monkeypatch):
    """A Counter of the `SchnorrGroup.element` calls from here on, by value: one
    membership power each."""
    calls = Counter()
    original = SchnorrGroup.element

    def counting_element(self, value):
        calls[value] += 1
        return original(self, value)

    monkeypatch.setattr(SchnorrGroup, "element", counting_element)
    return calls


@pytest.fixture()
def big_env(tmp_path, big_group, request):
    """A 512/160 keystore of five keys, so that no two checked values coincide, drawn
    afresh for each test, so that no process-wide memo of an earlier test holds them."""
    store, rng = Keystore(tmp_path), random.Random(request.node.name)
    keys = {name: keygen(big_group, rng) for name in ("alice", "bob", "carol", "dave", "erin")}
    for name, keypair in keys.items():
        store.save_keypair(name, keypair)
    group_file = tmp_path / "group.json"
    serialize.save_json(group_file, serialize.group_to_dict(big_group))
    message_file = tmp_path / "m.bin"
    message_file.write_bytes(MSG)
    return tmp_path, ("--group", group_file, "--keystore", tmp_path), message_file, keys


@pytest.mark.parametrize("command, role", [("tsign", "--signer"), ("gencrypt", "--sender")])
def test_a_dealing_checks_each_member_key_once(big_env, monkeypatch, command, role):
    """Parsing a .pub makes its key a `Member`, so a dealing's masks check no key again."""
    tmp_path, common, message_file, keys = big_env
    calls = count_element_calls(monkeypatch)
    members = [f"--member={name}={u}" for u, name in enumerate(("bob", "carol", "dave", "erin"), 1)]
    assert run(
        command, *common, role, "alice", "--k", 2, *members,
        "--message-file", message_file, "--out", tmp_path / "out.json",
    ) == 0
    assert calls == {keys[name].y.value: 1 for name in ("bob", "carol", "dave", "erin")}


@pytest.mark.parametrize("command", ["sign", "prove-signer", "prove-receiver"])
def test_a_directed_step_checks_each_public_key_once(big_env, monkeypatch, command):
    """Each .pub a step reads costs one membership power, at its parse; the step's mask
    under it costs none. The other checks are of the read document's own elements."""
    tmp_path, common, message_file, keys = big_env
    sig, commitment = tmp_path / "sig.json", tmp_path / "commitment.json"
    signing = ("sign", *common, "--signer", "alice", "--receiver", "bob",
               "--message-file", message_file, "--out", sig)
    if command != "sign":
        assert run(*signing) == 0
        assert run("dverify", *common, "--receiver", "bob", "--signer", "alice", "--sig", sig,
                   "--commitment-out", commitment) == 0
    proving = ("--third-party", "carol", "--out", tmp_path / "proof.json")
    if command == "sign":
        argv, pub, elements = signing, "bob", []
    elif command == "prove-signer":
        argv = ("prove-signer", *common, "--nonces", f"{sig}.nonces", *proving)
        pub, elements = "carol", [serialize.load_json(sig)[key] for key in ("w", "v")]
    else:
        argv = ("prove-receiver", *common, "--commitment", commitment, "--receiver", "bob",
                *proving)
        pub, elements = "carol", [serialize.load_json(commitment)["r_elem"]]
    calls = count_element_calls(monkeypatch)
    assert run(*argv) == 0
    assert calls == {keys[pub].y.value: 1, **{int(value, 16): 1 for value in elements}}
