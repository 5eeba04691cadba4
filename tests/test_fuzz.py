"""Property tests of the parsing trust boundary, over the toy group.

Every parser either rejects a document with a ValueError subclass or
accepts it, and then the artifact re-encodes to exactly that document.
The CLI, fed mutated files, exits 0, 2 or 3, never 4.
"""

import contextlib
import io
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirsig import FixtureHash, serialize
from dirsig.cli import main
from dirsig.directed import prove_by_receiver, prove_by_signer, sign_directed, verify_directed
from dirsig.group import is_probable_prime
from dirsig.keystore import Keystore
from dirsig.shamir import Share
from dirsig.threshold import ModifiedShadow, PartialResult, sign_for_group
from dirsig.threshold_crypto import encrypt_to_group

from conftest import CARMICHAEL_512, MSG

# Plain JSON values, plus strings that pass or nearly pass the canonical
# hex check, so mutations also reach the range and subgroup checks.
_SMALL_HEX = st.integers(0, 40).map(lambda n: format(n, "x"))
_NEAR_HEX = st.one_of(
    _SMALL_HEX,
    _SMALL_HEX.map(str.upper),
    _SMALL_HEX.map(lambda h: "0" + h),
    _SMALL_HEX.map(lambda h: "0x" + h),
    st.sampled_from(["", "6d", "6d65", "6D", "6d 65", " 6d", "6d\n", "abc"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
_KEYS = st.text(max_size=6) | st.sampled_from(["u", "v", "s", "k"])
JSON = st.recursive(
    _SCALARS | _NEAR_HEX,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every path to a value inside a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _mutate(doc, data):
    """A copy of `doc` with one value replaced or deleted, or one key added."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(JSON)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(JSON)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4))] = data.draw(JSON)
    else:
        parent.append(data.draw(JSON))
    return doc


def _documents(toy_group, toy_keys, toy_directory, fixture_hash):
    """(name, to_dict, from_dict(group, data), valid document) per parser."""
    signer, receiver, third = toy_keys["signer"], toy_keys["receiver"], toy_keys["third"]
    sig, nonces = sign_directed(toy_group, signer, receiver.y, MSG, h=fixture_hash, nonces=(9, 5))
    _, commitment = verify_directed(toy_group, sig, receiver, signer.y, fixture_hash)
    tsig = sign_for_group(
        toy_group, signer, toy_directory, 2, MSG, h=fixture_hash, nonces=(9, 5), polynomial=(9, 3)
    )
    artifacts = {
        "directed_signature": sig,
        "nonce_state": nonces,
        "commitment": commitment,
        "threshold_signature": tsig,
        "share": Share(u=toy_group.scalar(1), v=toy_group.scalar(4)),
        "shadow": ModifiedShadow(u=toy_group.scalar(1), value=toy_group.scalar(7)),
        "partial": PartialResult(u=toy_group.scalar(1), value=toy_group.element(9)),
        "ciphertext": encrypt_to_group(
            toy_group, signer, toy_directory, 2, MSG, random.Random(7)
        ),
    }
    cases = [
        (name, getattr(serialize, f"{name}_to_dict"), getattr(serialize, f"{name}_from_dict"), art)
        for name, art in artifacts.items()
    ]
    cases += [
        ("public_key", serialize.public_key_to_dict, serialize.public_key_from_dict, signer.y),
        ("keypair", serialize.keypair_to_dict, serialize.keypair_from_dict, signer),
        ("signer_proof", serialize.proof_to_dict, serialize.proof_from_dict,
         prove_by_signer(toy_group, nonces, third.y)),
        ("receiver_proof", serialize.proof_to_dict, serialize.proof_from_dict,
         prove_by_receiver(toy_group, commitment, receiver, third.y, nonce=8)),
        ("group", serialize.group_to_dict,
         lambda group, data: serialize.group_from_dict(data), toy_group),
    ]
    return [(name, to_dict, from_dict, to_dict(art)) for name, to_dict, from_dict, art in cases]


def _check_parser(toy_group, to_dict, from_dict, doc):
    try:
        parsed = from_dict(toy_group, doc)
    except ValueError:
        return
    assert to_dict(parsed) == doc


@pytest.fixture(scope="module")
def parser_cases(toy_group, toy_keys, toy_directory):
    return _documents(toy_group, toy_keys, toy_directory, FixtureHash({(18, MSG): 10}))


def test_every_parser_is_covered(toy_group, parser_cases):
    names = {name for name, *_ in parser_cases}
    public = {
        attr[: -len("_from_dict")]
        for attr in vars(serialize)
        if attr.endswith("_from_dict") and not attr.startswith("_")
    }
    # proof_from_dict is covered by the signer_proof and receiver_proof cases
    assert public - {"proof"} <= names
    for _, to_dict, from_dict, valid in parser_cases:
        assert to_dict(from_dict(toy_group, valid)) == valid


_FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(doc=JSON)
def test_parsers_reject_or_round_trip_arbitrary_json(toy_group, parser_cases, doc):
    for _, to_dict, from_dict, _ in parser_cases:
        _check_parser(toy_group, to_dict, from_dict, doc)


@_FUZZ
@given(data=st.data())
def test_parsers_reject_or_round_trip_mutated_documents(toy_group, parser_cases, data):
    for _, to_dict, from_dict, valid in parser_cases:
        _check_parser(toy_group, to_dict, from_dict, _mutate(valid, data))


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory, toy_group, toy_keys):
    """The fuzzed input file, and per command a valid input document and argv.

    The commands read a directed signature, a threshold signature and a
    ciphertext, made in a toy keystore.
    """
    root = tmp_path_factory.mktemp("cli_fuzz")
    store = Keystore(root)
    for name, key in (("alice", "signer"), ("bob", "receiver"), ("carol", "third")):
        store.save_keypair(name, toy_keys[key])
    group = root / "group.json"
    serialize.save_json(group, serialize.group_to_dict(toy_group))
    message = root / "m.bin"
    message.write_bytes(MSG)
    base = ("--group", group, "--keystore", root)
    members = ("--member", "bob=1", "--member", "carol=2")
    out = {name: root / f"{name}.json" for name in ("sig", "tsig", "ct")}
    for argv in (
        ("sign", "--signer", "alice", "--receiver", "bob", "--message-file", message,
         "--out", out["sig"]),
        ("tsign", "--signer", "alice", "--k", 2, *members, "--message-file", message,
         "--out", out["tsig"]),
        ("gencrypt", "--sender", "alice", "--k", 2, *members, "--message-file", message,
         "--out", out["ct"]),
    ):
        assert main([str(a) for a in (*argv, *base)]) == 0
    commands = {
        "sig": ("dverify", "--receiver", "bob", "--signer", "alice", "--sig"),
        "tsig": ("trecover", "--member", "bob", "--u", "1", "--out", root / "share.json", "--sig"),
        "ct": ("gdecrypt", "--sender", "alice", *members, "--out", root / "m.out", "--ct"),
    }
    fuzzed = root / "fuzzed.json"
    cases = [
        (json.loads(out[name].read_text()), [str(a) for a in (*cmd, fuzzed, *base)])
        for name, cmd in commands.items()
    ]
    for valid, argv in cases:  # unmutated, each command gets past its parser
        fuzzed.write_text(json.dumps(valid))
        assert main(argv) == 0
    return fuzzed, cases


@_FUZZ
@given(data=st.data())
def test_cli_exits_cleanly_on_mutated_inputs(cli_env, data):
    fuzzed, cases = cli_env
    for valid, argv in cases:
        fuzzed.write_text(json.dumps(_mutate(valid, data)))
        assert main(argv) in (0, 2, 3)


@pytest.fixture(scope="module")
def secret_file_env(tmp_path_factory, big_group):
    """Per secret input at 512/160: its file, valid document, secret fields and the
    command that reads it.

    dverify reads bob.key (x), prove-signer alice's nonce state (k1, k2), prove-receiver
    the commitment bob's dverify recovered (R and r, designation-sensitive), tshadow
    bob's share (v) of a 2-of-2 threshold signature and tpartial his shadow (ms).
    """
    root = tmp_path_factory.mktemp("secret_fuzz")
    group = root / "group.json"
    serialize.save_json(group, serialize.group_to_dict(big_group))
    message = root / "m.bin"
    message.write_bytes(MSG)
    member = ("--group", group)  # the member steps read no key
    keyed = (*member, "--keystore", root)
    key, nonces, commitment, tsig, share, shadow = (root / name for name in (
        "bob.key", "sig.json.nonces", "commitment.json", "tsig.json", "share.json",
        "shadow.json"))
    for argv in (
        ("keygen", "alice", *keyed),
        ("keygen", "bob", *keyed),
        ("keygen", "carol", *keyed),
        ("sign", "--signer", "alice", "--receiver", "bob", "--message-file", message,
         "--out", root / "sig.json", *keyed),
        ("dverify", "--receiver", "bob", "--signer", "alice", "--sig", root / "sig.json",
         "--commitment-out", commitment, *keyed),
        ("tsign", "--signer", "alice", "--k", 2, "--member", "bob=1", "--member", "carol=2",
         "--message-file", message, "--out", tsig, *keyed),
        ("trecover", "--sig", tsig, "--member", "bob", "--u", 1, "--out", share, *keyed),
        ("tshadow", "--share", share, "--quorum", "1,2", "--out", shadow, *member),
    ):
        assert main([str(a) for a in argv]) == 0
    out = root / "out.json"
    cases = {
        "key": (key, ("x",), ("dverify", "--receiver", "bob", "--signer", "alice",
                              "--sig", root / "sig.json", *keyed)),
        "nonces": (nonces, ("k1", "k2"), ("prove-signer", "--nonces", nonces,
                                          "--third-party", "carol", "--out", out, *keyed)),
        "commitment": (commitment, ("r_elem", "r_hash"), (
            "prove-receiver", "--commitment", commitment, "--receiver", "bob",
            "--third-party", "carol", "--out", out, *keyed)),
        "share": (share, ("v",), ("tshadow", "--share", share, "--quorum", "1,2",
                                  "--out", out, *member)),
        "shadow": (shadow, ("ms",), ("tpartial", "--shadow", shadow, "--out", out, *member)),
    }
    env = {}
    for name, (path, secrets, argv) in cases.items():
        argv = [str(a) for a in argv]
        valid = json.loads(path.read_text())
        values = [int(valid[field], 16) for field in secrets]
        assert _run_and_scan(argv, values) == 0  # unmutated, each command gets past its parser
        env[name] = path, valid, values, argv
    return env


def _run_and_scan(argv, values):
    """The command's exit code, once its output shows none of `values` in hex or decimal."""
    assert all(len(format(value, "x")) >= 32 for value in values)  # too long to be matched by chance
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    printed = out.getvalue() + err.getvalue()
    for value in values:
        assert format(value, "x") not in printed.lower() and str(value) not in printed
    return code


def _check_no_secret_printed(secret_file_env, name, data):
    """The command fed a mutated copy of the file exits 0, 2 or 3 and prints no secret of
    the unmutated one, in hex or decimal."""
    path, valid, values, argv = secret_file_env[name]
    path.write_text(json.dumps(_mutate(valid, data)))
    assert _run_and_scan(argv, values) in (0, 2, 3)


@_FUZZ
@given(data=st.data())
def test_cli_prints_no_secret_on_a_mutated_key_file(secret_file_env, data):
    """dverify fed a mutated bob.key shows bob's x on no stream."""
    _check_no_secret_printed(secret_file_env, "key", data)


@pytest.mark.parametrize("name", ["nonces", "commitment", "share", "shadow"])
@_FUZZ
@given(data=st.data())
def test_cli_prints_no_secret_on_a_mutated_secret_file(secret_file_env, name, data):
    """prove-signer, prove-receiver, tshadow and tpartial, each fed its mutated secret
    input; the commitment is designation-sensitive rather than secret, and no more
    printable."""
    _check_no_secret_printed(secret_file_env, name, data)


@pytest.fixture(scope="module")
def kernel_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernel_fuzz")
    return root / "group.json", ["keygen", "k", "--group", str(root / "group.json"),
                                 "--keystore", str(root)]


def _next_prime(n):
    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n


@_FUZZ
@given(data=st.data())
def test_cli_exits_cleanly_on_kernel_sized_groups(kernel_env, big_group, data):
    """Group files whose odd p has 512-600 bits, so validation runs on the OpenSSL
    kernel: p prime or composite, q valid or not, g inside or outside [2, p-1]."""
    path, argv = kernel_env
    bits = data.draw(st.integers(512, 600))
    odd = data.draw(st.integers(1 << (bits - 1), 3 << (bits - 2))) | 1
    p = data.draw(st.sampled_from([big_group.p, _next_prime(odd), odd, CARMICHAEL_512]))
    q = data.draw(st.sampled_from([2, big_group.q]) | st.integers(2, 1 << 160))
    g = data.draw(st.sampled_from([0, 1, big_group.g, p - 1, p, p + 1]) | st.integers(2, p - 1))
    path.write_text(json.dumps({name: format(v, "x") for name, v in zip("pqg", (p, q, g))}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    # no 20 digits in a row: neither p nor a piece of it, in decimal or in hex
    assert not re.search("[0-9a-f]{20}", err.getvalue())
