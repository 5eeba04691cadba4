"""Command-line front end: one command per protocol step.

The threshold steps are split per party on purpose — each member's view
(recover, shadow, partial) runs as its own command so multi-party flows
can be simulated honestly from files. Every artifact goes to the file
named by `--out` (or `--commitment-out`, `--nonce-out`, the keystore);
stdout carries only status lines, never a key, nonce, share, shadow,
partial, commitment or plaintext. No option makes a run repeat: keys and
nonces always come from the OS CSPRNG and every hash is SHA-256, since a
nonce used twice gives away the signer's key. Injected nonces, seeded
rngs and table hashes are library arguments, for tests.

Exit codes: 0 success, 2 verification failure, 3 input error, 4 internal
error. Failures print `error: <code>: <detail>` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import serialize
from .directed import (
    prove_by_receiver,
    prove_by_signer,
    sign_directed,
    verify_as_third_party,
    verify_directed,
)
from .group import (
    GenerationError,
    GroupParameterError,
    KeyPair,
    Scalar,
    SchnorrGroup,
    generate_group,
    keygen,
)
from .hashing import FixtureHash
from .keystore import Keystore, KeystoreError
from .serialize import MalformedSignatureError, SerializationError, _open_output
from .shamir import ShareIdError, ThresholdRangeError
from .threshold import (
    GroupDirectory,
    GroupMember,
    MemberNotFoundError,
    QuorumMembershipError,
    QuorumSizeError,
    combine_and_verify,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)
from .threshold_crypto import (
    DecryptionAuthenticationError,
    SenderAuthenticationError,
    decrypt_with_quorum,
    encrypt_to_group,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_DEMO_MESSAGE = b"message"


class _UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _read(args, from_dict, path):
    """Parse the artifact in file `path` with a `serialize.*_from_dict`."""
    return from_dict(args.group, serialize.load_json(path))


def _decimal(text: str) -> int:
    """An integer option (`--k`, `--p-bits`, `--q-bits`): canonical decimal."""
    try:
        return serialize.decimal_to_int(text)
    except SerializationError as exc:  # argparse would name this function and echo the value
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _verdict(accept: bool, detail: str) -> int:
    """End a verifying command: print accept, or fail verification with `detail`."""
    if not accept:
        print(f"error: verification-failed: {detail}", file=sys.stderr)
        return EXIT_VERIFY
    print("accept")
    return EXIT_OK


def _refuse_same_file(secret: str, secret_path, other: str, other_path) -> None:
    """Refuse to write a secret over the file of option `other`, which may be sent on."""
    paths = (secret_path, other_path)
    same = os.path.realpath(secret_path) == os.path.realpath(other_path)
    if same or (all(map(os.path.exists, paths)) and os.path.samefile(*paths)):  # hard link
        raise _UsageError(f"{secret} names the {other} file")


def _identity(group: SchnorrGroup, text: str) -> Scalar:
    """An identity argument (`--u`, `--quorum`, NAME=UHEX): canonical hex below q."""
    u = serialize.hex_to_int(text)
    if u >= group.q:
        raise SerializationError("identity is not reduced mod q")
    return group.scalar(u)


def _named_members(args, entries, load_key) -> list:
    """Parse NAME=UHEX arguments into (load_key(group, NAME), u) pairs."""
    pairs = []
    for entry in entries:
        name, _, u_hex = entry.partition("=")
        if not name or not u_hex:
            raise _UsageError(f"--member expects NAME=UHEX, got {entry!r}")
        pairs.append((load_key(args.group, name), _identity(args.group, u_hex)))
    return pairs


def _deal(args, party: str, deal, to_dict) -> int:
    """tsign and gencrypt: `deal` the message to the --member directory as `party`."""
    keypair = args.keystore.load_keypair(args.group, party)
    members = _named_members(args, args.member, args.keystore.load_public)
    directory = GroupDirectory(members=tuple(GroupMember(u=u, y=y) for y, u in members))
    artifact = deal(args.group, keypair, directory, args.k, Path(args.message_file).read_bytes())
    serialize.save_json(args.out, to_dict(artifact))
    print(f"wrote {args.out}")
    return EXIT_OK


# -- commands -----------------------------------------------------------------

def cmd_paramgen(args) -> int:
    group = generate_group(args.p_bits, args.q_bits)
    serialize.save_json(args.out, serialize.group_to_dict(group))
    return EXIT_OK


def cmd_keygen(args) -> int:
    store = args.keystore
    if any(map(os.path.lexists, (store.keypair_path(args.name), store.public_path(args.name)))):
        raise KeystoreError(f"key {args.name!r} exists; delete its .key and .pub to replace it")
    store.save_keypair(args.name, keygen(args.group))
    print(f"wrote {store.keypair_path(args.name)} and {store.public_path(args.name)}")
    return EXIT_OK


def cmd_sign(args) -> int:
    nonce_out = args.nonce_out or f"{args.out}.nonces"
    _refuse_same_file("--nonce-out", nonce_out, "--out", args.out)
    signer = args.keystore.load_keypair(args.group, args.signer)
    receiver_pub = args.keystore.load_public(args.group, args.receiver)
    message = Path(args.message_file).read_bytes()
    sig, nonces = sign_directed(args.group, signer, receiver_pub, message)
    serialize.save_json(args.out, serialize.directed_signature_to_dict(sig))
    serialize.save_json(nonce_out, serialize.nonce_state_to_dict(nonces), private=True)
    print(f"wrote {args.out} (nonce state: {nonce_out})")
    return EXIT_OK


def cmd_dverify(args) -> int:
    if args.commitment_out:
        _refuse_same_file("--commitment-out", args.commitment_out, "--sig", args.sig)
    sig = _read(args, serialize.directed_signature_from_dict, args.sig)
    receiver = args.keystore.load_keypair(args.group, args.receiver)
    signer_pub = args.keystore.load_public(args.group, args.signer)
    accept, commitment = verify_directed(args.group, sig, receiver, signer_pub)
    if args.commitment_out:
        serialize.save_json(
            args.commitment_out, serialize.commitment_to_dict(commitment), private=True
        )
    return _verdict(accept, "directed signature rejected")


def cmd_prove_signer(args) -> int:
    nonces = _read(args, serialize.nonce_state_from_dict, args.nonces)
    third_pub = args.keystore.load_public(args.group, args.third_party)
    proof = prove_by_signer(args.group, nonces, third_pub)
    serialize.save_json(args.out, serialize.proof_to_dict(proof))
    return EXIT_OK


def cmd_prove_receiver(args) -> int:
    commitment = _read(args, serialize.commitment_from_dict, args.commitment)
    receiver = args.keystore.load_keypair(args.group, args.receiver)
    third_pub = args.keystore.load_public(args.group, args.third_party)
    proof = prove_by_receiver(args.group, commitment, receiver, third_pub)
    serialize.save_json(args.out, serialize.proof_to_dict(proof))
    return EXIT_OK


def cmd_cverify(args) -> int:
    sig = _read(args, serialize.directed_signature_from_dict, args.sig)
    proof = _read(args, serialize.proof_from_dict, args.proof)
    third = args.keystore.load_keypair(args.group, args.third_party)
    signer_pub = args.keystore.load_public(args.group, args.signer)
    accept = verify_as_third_party(args.group, sig, proof, third, signer_pub)
    return _verdict(accept, "third-party verification rejected")


def cmd_tsign(args) -> int:
    return _deal(args, args.signer, sign_for_group, serialize.threshold_signature_to_dict)


def cmd_trecover(args) -> int:
    _refuse_same_file("--out", args.out, "--sig", args.sig)
    sig = _read(args, serialize.threshold_signature_from_dict, args.sig)
    member = args.keystore.load_keypair(args.group, args.member)
    share = recover_share(args.group, sig, member, _identity(args.group, args.u))
    serialize.save_json(args.out, serialize.share_to_dict(share), private=True)
    return EXIT_OK


def cmd_tshadow(args) -> int:
    share = _read(args, serialize.share_from_dict, args.share)
    shadow = modify_shadow(share, [_identity(args.group, u) for u in args.quorum.split(",")])
    serialize.save_json(args.out, serialize.shadow_to_dict(shadow), private=True)
    return EXIT_OK


def cmd_tpartial(args) -> int:
    shadow = _read(args, serialize.shadow_from_dict, args.shadow)
    partial = partial_result(args.group, shadow)
    serialize.save_json(args.out, serialize.partial_to_dict(partial))
    return EXIT_OK


def cmd_tcombine(args) -> int:
    sig = _read(args, serialize.threshold_signature_from_dict, args.sig)
    partials = [_read(args, serialize.partial_from_dict, path) for path in args.partials]
    signer_pub = args.keystore.load_public(args.group, args.signer)
    accept = combine_and_verify(args.group, sig, partials, signer_pub)
    return _verdict(accept, "threshold verification rejected")


def cmd_gencrypt(args) -> int:
    return _deal(args, args.sender, encrypt_to_group, serialize.ciphertext_to_dict)


def cmd_gdecrypt(args) -> int:
    _refuse_same_file("--out", args.out, "--ct", args.ct)
    ct = _read(args, serialize.ciphertext_from_dict, args.ct)
    sender_pub = args.keystore.load_public(args.group, args.sender)
    quorum = _named_members(args, args.member, args.keystore.load_keypair)
    message = decrypt_with_quorum(args.group, ct, quorum, sender_pub)
    with _open_output(args.out, "wb", private=True) as fh:  # the quorum's secret
        fh.write(message)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_replay_example(args) -> int:
    """Deterministic walkthrough of the built-in toy example.

    Tiny textbook parameters (p=23, q=11, g=3), fixed keys and nonces, and
    a table-driven hash make every intermediate value reproducible.
    """
    del args
    group = SchnorrGroup(23, 11, 3)
    signer = KeyPair.from_private(group, 4)
    receiver = KeyPair.from_private(group, 7)
    third = KeyPair.from_private(group, 6)
    h = FixtureHash({(18, _DEMO_MESSAGE): 10})

    print(f"group: p={group.p} q={group.q} g={group.g}")
    print(
        f"keys: signer y={signer.y.value}, receiver y={receiver.y.value}, "
        f"third party y={third.y.value}"
    )
    print(f"message: {_DEMO_MESSAGE.decode()} ({_DEMO_MESSAGE.hex()})")

    sig, nonces = sign_directed(group, signer, receiver.y, _DEMO_MESSAGE, h=h, nonces=(9, 5))
    print("signing with nonces k1=9 k2=5:")
    print(f"  W_B = {sig.w.value}")
    print(f"  V_B = {sig.v.value}")
    print(f"  S_A = {sig.s.value}")

    accept, commitment = verify_directed(group, sig, receiver, signer.y, h)
    print(
        f"receiver verification: R = {commitment.r_elem.value}, "
        f"r_A = {commitment.r_hash.value} -> {'accept' if accept else 'reject'}"
    )

    signer_proof = prove_by_signer(group, nonces, third.y)
    print(f"signer proof: V_C = {signer_proof.v_c.value}")
    accept_signer = verify_as_third_party(group, sig, signer_proof, third, signer.y, h)
    print(f"third-party verification (signer proof): {'accept' if accept_signer else 'reject'}")

    receiver_proof = prove_by_receiver(group, commitment, receiver, third.y, nonce=8)
    print(f"receiver proof: W_C = {receiver_proof.w_c.value}, V_C = {receiver_proof.v_c.value}")
    accept_receiver = verify_as_third_party(group, sig, receiver_proof, third, signer.y, h)
    print(
        f"third-party verification (receiver proof): "
        f"{'accept' if accept_receiver else 'reject'}"
    )

    if not (accept and accept_signer and accept_receiver):
        print("error: verification-failed: replay did not verify", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# -- parser -------------------------------------------------------------------

# every option's argparse spec, once; a command lists the ones it takes
_OPTIONS = {
    "--group": dict(required=True, metavar="FILE", help="group parameter file"),
    "--keystore": dict(metavar="DIR", help="key directory"),
    "--out": dict(required=True, metavar="FILE"),
    "--p-bits": dict(type=_decimal, default=512),
    "--q-bits": dict(type=_decimal, default=160),
    "name": {},
    **dict.fromkeys(("--signer", "--receiver", "--sender", "--third-party"),
                    dict(required=True, metavar="NAME")),
    **dict.fromkeys(("--message-file", "--sig", "--nonces", "--commitment", "--proof",
                     "--share", "--shadow", "--ct"), dict(required=True, metavar="FILE")),
    "--nonce-out": dict(metavar="FILE", help="default OUT.nonces"),
    "--commitment-out": dict(metavar="FILE"),
    "--member": dict(action="append", required=True, metavar="NAME=UHEX"),
    ("trecover", "--member"): dict(required=True, metavar="NAME"),  # one key, not NAME=UHEX
    "--k": dict(required=True, type=_decimal),
    "--u": dict(required=True, metavar="HEX"),
    "--quorum": dict(required=True, metavar="HEX,HEX,..."),
    "--partials": dict(required=True, nargs="+", metavar="FILE"),
}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="dirsig",
        description="Directed signatures with threshold verification and group encryption.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    store, out = "--group --keystore", "--group --keystore --out"
    dealing = "--member --k --message-file"
    commands = (  # built per call, so a handler is looked up when the parser is
        ("paramgen", cmd_paramgen, "generate group parameters", "--out --p-bits --q-bits"),
        ("keygen", cmd_keygen, "generate a named key pair", f"{store} name"),
        ("sign", cmd_sign, "directed-sign a message",
         f"{out} --signer --receiver --message-file --nonce-out"),
        ("dverify", cmd_dverify, "verify as the designated receiver",
         f"{store} --receiver --signer --sig --commitment-out"),
        ("prove-signer", cmd_prove_signer, "signer proof for a third party",
         f"{out} --nonces --third-party"),
        ("prove-receiver", cmd_prove_receiver, "receiver proof for a third party",
         f"{out} --commitment --receiver --third-party"),
        ("cverify", cmd_cverify, "verify as a third party",
         f"{store} --sig --proof --third-party --signer"),
        ("tsign", cmd_tsign, "sign for k-of-n group verification", f"{out} --signer {dealing}"),
        ("trecover", cmd_trecover, "recover one member's share", f"{out} --sig --member --u"),
        ("tshadow", cmd_tshadow, "scale a share for a quorum", "--group --out --share --quorum"),
        ("tpartial", cmd_tpartial, "lift a shadow to a partial result", "--group --out --shadow"),
        ("tcombine", cmd_tcombine, "combine partials and verify",
         f"{store} --sig --signer --partials"),
        ("gencrypt", cmd_gencrypt, "encrypt to a k-of-n group", f"{out} --sender {dealing}"),
        ("gdecrypt", cmd_gdecrypt, "decrypt with a quorum of members",
         f"{out} --ct --sender --member"),
        ("replay-example", cmd_replay_example, "print the deterministic toy walkthrough", ""),
    )
    for name, func, help_text, options in commands:
        p = sub.add_parser(name, help=help_text)
        # defaults first: --keystore takes its default from them, as does a command without it
        p.set_defaults(func=func, group=None, keystore=".")
        for option in options.split():
            p.add_argument(option, **_OPTIONS.get((name, option), _OPTIONS[option]))
    return parser


_ERROR_CODES = (
    (SenderAuthenticationError, EXIT_VERIFY, "sender-authentication-failed"),
    (DecryptionAuthenticationError, EXIT_VERIFY, "decryption-authentication-failed"),
    ((FileNotFoundError, IsADirectoryError), EXIT_INPUT, "file-not-found"),
    (MalformedSignatureError, EXIT_INPUT, "malformed-signature"),
    (SerializationError, EXIT_INPUT, "parse-error"),
    (KeystoreError, EXIT_INPUT, "keystore-error"),
    (GroupParameterError, EXIT_INPUT, "invalid-group"),
    (MemberNotFoundError, EXIT_INPUT, "member-not-found"),
    (QuorumSizeError, EXIT_INPUT, "quorum-size"),
    (QuorumMembershipError, EXIT_INPUT, "quorum-membership"),
    (ShareIdError, EXIT_INPUT, "share-id"),
    (ThresholdRangeError, EXIT_INPUT, "threshold-range"),
    (GenerationError, EXIT_INTERNAL, "generation-timeout"),
    (ValueError, EXIT_INPUT, "bad-arguments"),
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return EXIT_INPUT
        if args.group is not None:  # every command but paramgen and replay-example
            args.group = serialize.group_from_dict(serialize.load_json(args.group))
        args.keystore = Keystore(args.keystore)
        return args.func(args)
    except Exception as exc:  # mapped to the documented exit codes
        for klass, code, slug in _ERROR_CODES:
            if isinstance(exc, klass):
                print(f"error: {slug}: {exc}", file=sys.stderr)
                return code
        print(f"error: internal-error: {type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
