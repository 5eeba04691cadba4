"""The benchmark's workloads: set-up, one flow, and the outcome of every step.

Each workload draws its inputs from `random.Random("<name>/<seed>/inputs")`
and hands the program a second seeded generator for its own nonces, so one
seed gives one sequence of inputs. Steps are timed one at a time, in a closed
loop with one client: a step starts only when the previous one has returned.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import dirsig

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
SRC = BENCH.parent / "src"
LAUNCHER = BENCH / "cli_launcher.py"

POOLS = ("sign", "verify", "prove")

# Wrong outcomes that are defects of the program, known and not yet fixed.
# They still count as failed; the report names them.
KNOWN_DEFECTS = {
    ("dverify", "s-0x-hex"): "the parser accepts non-canonical hex ('0x' prefix, uppercase) for s",
}


def load_group(file_name: str) -> dirsig.SchnorrGroup:
    """Load a committed group through the public constructor, with every check."""
    doc = json.loads((DATA / file_name).read_text())
    return dirsig.SchnorrGroup(int(doc["p"], 16), int(doc["q"], 16), int(doc["g"], 16))


def verdict(accept: bool) -> str:
    return "accept" if accept else "reject"


class _Step:
    __slots__ = ("rec", "pool", "name", "idx", "t0")

    def __init__(self, rec: "Recorder", pool: str, name: str) -> None:
        self.rec, self.pool, self.name = rec, pool, name

    def __enter__(self) -> "_Step":
        rec = self.rec
        rec.attempted += 1
        rec.current = self.name
        self.idx = rec.tracer.begin(self.name, is_step=True) if rec.tracer else -1
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter_ns() - self.t0
        if self.idx >= 0:
            self.rec.tracer.end(self.idx)
        pools = self.rec.flow_pools
        pools[self.pool] = pools.get(self.pool, 0) + elapsed
        return False


class Recorder:
    """Times the steps of each flow and checks every outcome against the oracle.

    A flow's time is the sum of its steps; each step also adds to one pool
    (sign, verify or prove), and each pool gives one sample per flow. Input
    generation, tampering and outcome checks happen between steps, untimed.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.flow_ns: list[int] = []
        self.samples: dict[str, list[int]] = {pool: [] for pool in POOLS}
        self.flow_pools: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.commands = 0
        self.current = ""
        self.mismatches: Counter = Counter()  # (step, case, expected, actual) -> count

    def step(self, pool: str, name: str) -> _Step:
        return _Step(self, pool, name)

    def start_flow(self) -> None:
        self.flow_pools = {}

    def end_flow(self) -> None:
        self.flow_ns.append(sum(self.flow_pools.values()))
        for pool, elapsed in self.flow_pools.items():
            self.samples[pool].append(elapsed)

    def check(self, step: str, expected, actual, case: str = "honest", detail: str = "") -> None:
        if expected != actual:
            self.failed += 1
            self.mismatches[(step, case, str(expected), f"{actual}{detail}")] += 1

    def unexpected(self, exc: BaseException) -> None:
        """An exception no oracle expected: one failed step, and the flow is lost."""
        self.failed += 1
        self.mismatches[(self.current, "any", "no exception", type(exc).__name__)] += 1


class Workload:
    """One workload. Its input schedule (which flows are tampered, which proof
    is made) follows the flow index halved, so that the even flows and the odd
    flows, which the traced run splits between untraced and traced, see the
    same mix of inputs."""

    name = ""
    group_file = ""
    pools = ("sign", "verify")
    warmup_flows = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.inputs = random.Random(f"{self.name}/{seed}/inputs")
        self.prng = random.Random(f"{self.name}/{seed}/program")
        self.workdir = workdir

    def setup(self) -> None:
        self.group = load_group(self.group_file)
        self.prepare()
        for i in range(self.warmup_flows):
            self.flow(Recorder(), i)

    def prepare(self) -> None:
        raise NotImplementedError

    def flow(self, rec: Recorder, i: int) -> None:
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass

    def _make_directory(self, n: int) -> None:
        """n member key pairs with distinct random identities, and their directory."""
        group = self.group
        self.members = [dirsig.keygen(group, self.prng) for _ in range(n)]
        ids: set = set()
        while len(ids) < n:
            ids.add(self.inputs.randrange(1, group.q))
        self.ids = [group.scalar(u) for u in sorted(ids)]
        self.directory = dirsig.GroupDirectory(members=tuple(
            dirsig.GroupMember(u=u, y=kp.y) for u, kp in zip(self.ids, self.members)
        ))


class Directed(Workload):
    """sign -> receiver verify -> proof -> third-party verify, 2048/224.

    256 key pairs with the parties drawn at random per flow, so a per-key
    table would rarely hit. 1 in 8 signatures arrives with s+1 and must be
    rejected; that flow ends there.
    """

    name = "directed-2048"
    group_file = "group_2048_224.json"
    pools = POOLS
    n_keys = 256

    def prepare(self) -> None:
        self.keys = [dirsig.keygen(self.group, self.prng) for _ in range(self.n_keys)]

    def flow(self, rec: Recorder, i: int) -> None:
        group = self.group
        signer, receiver, third = self.inputs.sample(self.keys, 3)
        message = self.inputs.randbytes(64)
        tampered = (i // 2) % 8 == 7
        rec.start_flow()
        with rec.step("sign", "sign_directed"):
            sig, nonces = dirsig.sign_directed(group, signer, receiver.y, message, self.prng)
        if tampered:
            sig = dirsig.DirectedSignature(
                s=group.scalar(sig.s.value + 1), w=sig.w, v=sig.v, message=sig.message
            )
        with rec.step("verify", "verify_directed"):
            accept, commitment = dirsig.verify_directed(group, sig, receiver, signer.y)
        rec.check("verify_directed", verdict(not tampered), verdict(accept),
                  "s+1" if tampered else "honest")
        if tampered or not accept:
            rec.end_flow()
            return
        if (i // 2) % 2 == 0:
            with rec.step("prove", "prove_by_signer"):
                proof = dirsig.prove_by_signer(group, nonces, third.y)
        else:
            with rec.step("prove", "prove_by_receiver"):
                proof = dirsig.prove_by_receiver(group, commitment, receiver, third.y, self.prng)
        with rec.step("prove", "verify_as_third_party"):
            accept = dirsig.verify_as_third_party(group, sig, proof, third, signer.y)
        rec.check("verify_as_third_party", "accept", verdict(accept))
        rec.end_flow()


class Quorum(Workload):
    """sign_for_group -> 32 member steps -> combine_and_verify, 512/160.

    One directory of 64 members serves every message and a fresh random
    quorum of 32 acts on each, so member keys repeat. In 1 in 8 flows one
    partial is replaced by a random subgroup element and must be rejected.
    """

    name = "quorum-512"
    group_file = "group_512_160.json"
    n, k = 64, 32

    def prepare(self) -> None:
        self.signer = dirsig.keygen(self.group, self.prng)
        self._make_directory(self.n)

    def flow(self, rec: Recorder, i: int) -> None:
        group = self.group
        message = self.inputs.randbytes(64)
        chosen = self.inputs.sample(range(self.n), self.k)
        quorum_ids = [self.ids[j] for j in chosen]
        tampered = (i // 2) % 8 == 7
        if tampered:
            bad_at = self.inputs.randrange(self.k)
            forged = pow(group.g, self.inputs.randrange(1, group.q), group.p)
        rec.start_flow()
        with rec.step("sign", "sign_for_group"):
            sig = dirsig.sign_for_group(group, self.signer, self.directory, self.k, message,
                                        self.prng)
        partials = []
        for j in chosen:
            with rec.step("verify", "member"):
                share = dirsig.recover_share(group, sig, self.members[j], self.ids[j])
                shadow = dirsig.modify_shadow(share, quorum_ids)
                partials.append(dirsig.partial_result(group, shadow))
        if tampered:
            partials[bad_at] = dirsig.PartialResult(
                u=partials[bad_at].u, value=dirsig.GroupElement(forged, group)
            )
        with rec.step("verify", "combine_and_verify"):
            accept = dirsig.combine_and_verify(group, sig, partials, self.signer.y)
        rec.check("combine_and_verify", verdict(not tampered), verdict(accept),
                  "forged-partial" if tampered else "honest")
        rec.end_flow()


class Bulk(Workload):
    """encrypt_to_group -> decrypt_with_quorum of 4 MiB messages, n=3, k=2, 512/160.

    1 in 8 ciphertexts has one byte changed and must fail sender
    authentication. Each message is fresh: a random 32-byte head on a random
    rotation of a 4 MiB random buffer drawn once in set-up.
    """

    name = "bulk-4m"
    group_file = "group_512_160.json"
    n, k = 3, 2
    size = 4 << 20

    def prepare(self) -> None:
        self.sender = dirsig.keygen(self.group, self.prng)
        self._make_directory(self.n)
        self.buffer = self.inputs.randbytes(self.size)

    def flow(self, rec: Recorder, i: int) -> None:
        group = self.group
        turn = self.inputs.randrange(self.size - 32)
        view = memoryview(self.buffer)
        message = b"".join((self.inputs.randbytes(32), view[turn + 32:], view[:turn]))
        quorum = [(self.members[j], self.ids[j])
                  for j in self.inputs.sample(range(self.n), self.k)]
        tampered = (i // 2) % 8 == 7
        rec.start_flow()
        with rec.step("sign", "encrypt_to_group"):
            ct = dirsig.encrypt_to_group(group, self.sender, self.directory, self.k, message,
                                         self.prng)
        if tampered:
            body = bytearray(ct.ciphertext)
            body[self.inputs.randrange(len(body))] ^= self.inputs.randrange(1, 256)
            ct = dirsig.ThresholdCiphertext(
                s=ct.s, w=ct.w, nonce=ct.nonce, ciphertext=bytes(body),
                masked_shares=ct.masked_shares, threshold=ct.threshold,
            )
        with rec.step("verify", "decrypt_with_quorum"):
            try:
                plaintext = dirsig.decrypt_with_quorum(group, ct, quorum, self.sender.y)
            except dirsig.SenderAuthenticationError:
                plaintext = None
        if plaintext is None:
            outcome = "SenderAuthenticationError"
        else:
            outcome = "plaintext" if plaintext == message else "wrong-plaintext"
        rec.check("decrypt_with_quorum", "SenderAuthenticationError" if tampered else "plaintext",
                  outcome, "flipped-byte" if tampered else "honest")
        rec.end_flow()


class Cli(Workload):
    """sign -> dverify -> prove-receiver -> cverify, each `python -m dirsig`, 2048/224.

    One child at a time. 1 in 4 dverify inputs is tampered, cycling through
    three kinds, and that flow ends there. Every command loads and validates
    the group file itself, as a user's command does.
    """

    name = "cli-2048"
    group_file = "group_2048_224.json"
    pools = POOLS
    warmup_flows = 0
    n_keys = 8
    # (case, expected dverify exit code)
    tampers = (("s-0x-hex", 3), ("s+1", 2), ("v=p-1", 3))

    def prepare(self) -> None:
        self.dir = self.workdir / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        keystore = dirsig.Keystore(self.dir / "ks")
        self.names = [f"k{j}" for j in range(self.n_keys)]
        for name in self.names:
            keystore.save_keypair(name, dirsig.keygen(self.group, self.prng))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.common = ["--group", str(DATA / self.group_file), "--keystore", "ks"]
        (self.dir / "m.bin").write_bytes(self.inputs.randbytes(64))
        # warm-up: one command, so later children find compiled bytecode
        a, b = self.names[:2]
        self._command(Recorder(), "sign", "sign", [
            "--signer", a, "--receiver", b, "--message-file", "m.bin", "--out", "sig.json"], 0)

    def _command(self, rec: Recorder, pool: str, cmd: str, args: list, expected: int,
                 case: str = "honest") -> int:
        tracer = rec.tracer
        report = self.dir / "spans.json"
        if tracer is None:
            argv = [sys.executable, "-m", "dirsig", cmd, *self.common, *args]
        else:
            argv = [sys.executable, str(LAUNCHER), str(report), cmd, *self.common, *args]
        with rec.step(pool, "cli." + cmd) as step:
            proc = subprocess.run(argv, cwd=self.dir, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        rec.commands += 1
        if tracer is not None:
            doc = json.loads(report.read_text())
            tracer.adopt(doc["spans"], doc["events"], step.idx)
        # keep only the error code of stderr: its detail may quote input values
        slug = proc.stderr.decode(errors="replace").partition("error: ")[2].split(":")[0]
        rec.check(cmd, expected, proc.returncode, case, f" ({slug})" if slug else "")
        return proc.returncode

    def flow(self, rec: Recorder, i: int) -> None:
        signer, receiver, third = self.inputs.sample(self.names, 3)
        (self.dir / "m.bin").write_bytes(self.inputs.randbytes(64))
        case, expected = self.tampers[(i // 8) % 3] if (i // 2) % 4 == 0 else ("honest", 0)
        rec.start_flow()
        rc = self._command(rec, "sign", "sign", [
            "--signer", signer, "--receiver", receiver, "--message-file", "m.bin",
            "--out", "sig.json"], 0)
        if rc:
            rec.end_flow()
            return
        if case != "honest":
            self._tamper(case)
        rc = self._command(rec, "verify", "dverify", [
            "--receiver", receiver, "--signer", signer, "--sig", "sig.json",
            "--commitment-out", "commit.json"], expected, case)
        if case != "honest" or rc:
            rec.end_flow()
            return
        self._command(rec, "prove", "prove-receiver", [
            "--commitment", "commit.json", "--receiver", receiver, "--third-party", third,
            "--out", "proof.json"], 0)
        self._command(rec, "prove", "cverify", [
            "--sig", "sig.json", "--proof", "proof.json", "--third-party", third,
            "--signer", signer], 0)
        rec.end_flow()

    def _tamper(self, case: str) -> None:
        path = self.dir / "sig.json"
        doc = json.loads(path.read_text())
        s = int(doc["s"], 16)
        if case == "s-0x-hex":
            doc["s"] = "0x" + format(s, "X")
        elif case == "s+1":
            doc["s"] = format((s + 1) % self.group.q, "x")
        else:
            doc["v"] = format(self.group.p - 1, "x")
        path.write_text(json.dumps(doc))

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Directed, Quorum, Bulk, Cli)}
