"""Spans for the traced run, fed by wrappers installed at run time.

Nothing under `src/` knows about tracing. `install` replaces public names
where the program looks them up (class attributes such as
`GroupElement.__pow__`, module-level names such as `dirsig.threshold.split`)
with wrappers that open a span around the original; `uninstall` puts the
originals back, so untraced flows run the unmodified program.

A span is a list `[name, start_ns, end_ns, parent, flow, nbytes, is_step]`.
Step spans are opened by the benchmark around each call it makes into the
public API; layer spans are opened by the wrappers. Spans only ever hold
names, times, counts and byte lengths: never an argument or a result.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

NAME, START, END, PARENT, FLOW, NBYTES, IS_STEP = range(7)

# Layer spans subtracted from a step's duration to give its self time.
LOWER_LAYERS = ("group.", "hashing.", "shamir.", "threshold_crypto.aead")

# Step span name -> the per-layer self-time metric it feeds.
SELF_METRICS = {
    "sign_directed": "directed.sign.self_ms",
    "verify_directed": "directed.verify.self_ms",
    "prove_by_signer": "directed.prove.self_ms",
    "prove_by_receiver": "directed.prove.self_ms",
    "verify_as_third_party": "directed.prove.self_ms",
    "sign_for_group": "threshold.deal.self_ms",
    "member": "threshold.member.self_ms",
    "combine_and_verify": "threshold.combine.self_ms",
    "encrypt_to_group": "threshold_crypto.self_ms",
    "decrypt_with_quorum": "threshold_crypto.self_ms",
}

# Steps whose modexp count per call is reported as group.pow_per.<step>.
POW_STEPS = (
    "sign_directed",
    "verify_directed",
    "prove_by_signer",
    "prove_by_receiver",
    "sign_for_group",
    "member",
    "combine_and_verify",
    "encrypt_to_group",
    "decrypt_with_quorum",
)

# Every per-layer metric, in report order, with its unit. Counts, times and
# bytes are per flow of the timed phase unless the name says otherwise.
LAYER_METRICS = (
    ("group.validate.count", "count/flow"),
    ("group.validate.ms", "ms/flow"),
    ("group.validate.per_cmd", "count/cmd"),
    ("group.validate.setup_ms", "ms"),
    ("group.pow_g.count", "count/flow"),
    ("group.pow_g.ms", "ms/flow"),
    ("group.pow_var.count", "count/flow"),
    ("group.pow_var.ms", "ms/flow"),
    ("group.element.count", "count/flow"),
    ("group.element.ms", "ms/flow"),
    ("group.inverse.count", "count/flow"),
    *((f"group.pow_per.{step}", "count/call") for step in POW_STEPS),
    ("hashing.to_scalar.count", "count/flow"),
    ("hashing.to_scalar.ms", "ms/flow"),
    ("hashing.to_scalar.bytes", "bytes/flow"),
    ("hashing.to_key.ms", "ms/flow"),
    ("shamir.split.ms", "ms/flow"),
    ("shamir.lagrange.count", "count/flow"),
    ("shamir.lagrange.ms", "ms/flow"),
    ("directed.sign.self_ms", "ms/flow"),
    ("directed.verify.self_ms", "ms/flow"),
    ("directed.prove.self_ms", "ms/flow"),
    ("threshold.deal.self_ms", "ms/flow"),
    ("threshold.member.self_ms", "ms/flow"),
    ("threshold.combine.self_ms", "ms/flow"),
    ("threshold_crypto.aead.ms", "ms/flow"),
    ("threshold_crypto.aead.bytes", "bytes/flow"),
    ("threshold_crypto.self_ms", "ms/flow"),
    ("serialize.parse.count", "count/flow"),
    ("serialize.parse.ms", "ms/flow"),
    ("serialize.emit.ms", "ms/flow"),
    ("serialize.json.bytes", "bytes/flow"),
    ("keystore.load.count", "count/flow"),
    ("keystore.load.ms", "ms/flow"),
    ("cli.process.ms", "ms/flow"),
    ("cli.import.ms", "ms/flow"),
    ("cli.main.ms", "ms/flow"),
    ("trace.overhead_ms", "ms"),
)

SETUP_FLOW = -1


class Tracer:
    """In-memory span log of one process; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.flow = SETUP_FLOW
        self.events: Counter = Counter()  # (flow, name) -> count, for count-only events

    def begin(self, name: str, nbytes: int = 0, is_step: bool = False) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.flow, nbytes, is_step])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name: str) -> None:
        self.events[(self.flow, name)] += 1

    def adopt(self, spans: list, events: dict, parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        flow = self.spans[parent][FLOW]
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + base
            span[FLOW] = flow
            self.spans.append(span)
        for name, n in events.items():
            self.events[(flow, name)] += n

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start_ns", "end_ns", "parent", "flow", "bytes", "step"), span
                ))) + "\n")


# -- wrappers -------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, fn, name, nbytes=None):
    def traced(*args, **kwargs):
        idx = tracer.begin(name(args) if callable(name) else name,
                           nbytes(args) if nbytes else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return traced


def _count_wrapper(tracer: Tracer, fn, name):
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return counted


def _pow_name(args) -> str:
    base = args[0]
    return "group.pow_g" if base.value == base.group.g else "group.pow_var"


def _hashed_bytes(args) -> int:
    element, message = args[1], args[2]
    return (element.group.p.bit_length() + 7) // 8 + len(message)


def _file_bytes(args) -> int:
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _aead_class(tracer: Tracer, aead):
    class TracedAead:
        """Stand-in for the AEAD class that spans encrypt and decrypt."""

        def __init__(self, key):
            self._inner = aead(key)

        def encrypt(self, nonce, data, associated_data):
            idx = tracer.begin("threshold_crypto.aead", len(data))
            try:
                return self._inner.encrypt(nonce, data, associated_data)
            finally:
                tracer.end(idx)

        def decrypt(self, nonce, data, associated_data):
            idx = tracer.begin("threshold_crypto.aead", len(data))
            try:
                return self._inner.decrypt(nonce, data, associated_data)
            finally:
                tracer.end(idx)

    return TracedAead


class Instrumentation:
    """The set of wrappers for one tracer; install and uninstall are cheap."""

    def __init__(self, tracer: Tracer) -> None:
        import dirsig
        import dirsig.keystore
        import dirsig.serialize
        import dirsig.threshold
        import dirsig.threshold_crypto

        t = tracer
        plan = [
            (dirsig.GroupElement, "__pow__", lambda f: _span_wrapper(t, f, _pow_name)),
            (dirsig.SchnorrGroup, "__init__", lambda f: _span_wrapper(t, f, "group.validate")),
            (dirsig.SchnorrGroup, "element", lambda f: _span_wrapper(t, f, "group.element")),
            (dirsig.Scalar, "inverse", lambda f: _count_wrapper(t, f, "group.inverse")),
            (dirsig.Sha256Hash, "hash_to_scalar",
             lambda f: _span_wrapper(t, f, "hashing.to_scalar", _hashed_bytes)),
            (dirsig.Sha256Hash, "hash_to_key", lambda f: _span_wrapper(t, f, "hashing.to_key")),
            (dirsig.threshold, "split", lambda f: _span_wrapper(t, f, "shamir.split")),
            (dirsig.threshold, "lagrange_coefficient_at_zero",
             lambda f: _span_wrapper(t, f, "shamir.lagrange")),
            (dirsig.threshold_crypto, "ChaCha20Poly1305", lambda c: _aead_class(t, c)),
            (dirsig.keystore.Keystore, "load_keypair",
             lambda f: _span_wrapper(t, f, "keystore.load")),
            (dirsig.keystore.Keystore, "load_public",
             lambda f: _span_wrapper(t, f, "keystore.load")),
        ]
        for attr in sorted(vars(dirsig.serialize)):
            if attr == "load_json":
                plan.append((dirsig.serialize, attr,
                             lambda f: _span_wrapper(t, f, "serialize.parse", _file_bytes)))
            elif attr == "save_json":
                plan.append((dirsig.serialize, attr, lambda f: _save_wrapper(t, f)))
            elif attr.endswith("_from_dict") and not attr.startswith("_"):
                plan.append((dirsig.serialize, attr,
                             lambda f: _span_wrapper(t, f, "serialize.parse")))
            elif attr.endswith("_to_dict") and not attr.startswith("_"):
                plan.append((dirsig.serialize, attr,
                             lambda f: _span_wrapper(t, f, "serialize.emit")))
        self.missing = []
        self.patches = []  # (target, attr, original, wrapped, owned)
        for target, attr, make in plan:
            original = getattr(target, attr, None)
            if original is None:
                self.missing.append(f"{getattr(target, '__name__', target)}.{attr}")
                continue
            owned = attr in vars(target)
            self.patches.append((target, attr, original, make(original), owned))

    def install(self) -> None:
        for target, attr, _, wrapped, _ in self.patches:
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original, _, owned in self.patches:
            if owned:
                setattr(target, attr, original)
            else:
                delattr(target, attr)


def _save_wrapper(tracer: Tracer, fn):
    """Span a file write; its byte length is known only once it is written."""

    def traced(path, *args, **kwargs):
        idx = tracer.begin("serialize.emit")
        try:
            return fn(path, *args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.spans[idx][NBYTES] = _file_bytes((path,))
    return traced


# -- analysis -------------------------------------------------------------------

def _is_lower(name: str) -> bool:
    return name.startswith(LOWER_LAYERS)


def layer_metrics(tracer: Tracer, flows: set, commands: int, overhead_ms: float) -> dict:
    """Per-layer metrics over the timed flows in `flows` (flow ids).

    A layer's count, time and bytes come from its outermost spans only, so a
    wrapped function that calls another wrapped function of the same layer
    is not counted twice.
    """
    spans = tracer.spans
    n_flows = max(len(flows), 1)
    totals: Counter = Counter()
    pow_per_step: Counter = Counter()
    step_calls: Counter = Counter()
    self_ns: Counter = Counter()

    for span in spans:
        name, start, end, parent, flow = span[:5]
        duration = end - start
        if flow == SETUP_FLOW and name == "group.validate":
            totals["group.validate.setup_ns"] += duration
        if flow not in flows:
            continue
        if span[IS_STEP]:
            step_calls[name] += 1
            if name in SELF_METRICS:
                self_ns[SELF_METRICS[name]] += duration
            continue
        # walk up: nearest step, nearest lower-layer span, same-name ancestor
        outermost = True
        under_lower = under_parse = False
        step = None
        p = parent
        while p >= 0:
            anc = spans[p]
            if anc[IS_STEP]:
                step = anc[NAME]
                break
            if anc[NAME] == name:
                outermost = False
            if _is_lower(anc[NAME]):
                under_lower = True
            if anc[NAME] == "serialize.parse":
                under_parse = True
            p = anc[PARENT]
        if name == "group.validate" and under_parse:
            # loading a group file validates it: report that as validation only
            totals["serialize.parse.ns"] -= duration
        if outermost:
            totals[name + ".count"] += 1
            totals[name + ".ns"] += duration
            totals[name + ".bytes"] += span[NBYTES]
        if name in ("group.pow_g", "group.pow_var") and step is not None:
            pow_per_step[step] += 1
        if step in SELF_METRICS and _is_lower(name) and not under_lower:
            self_ns[SELF_METRICS[step]] -= duration
        if name == "cli.main" and step is not None:
            totals["cli.main.in_steps_ns"] += duration

    inverses = sum(n for (flow, name), n in tracer.events.items()
                   if flow in flows and name == "group.inverse")
    cmd_ns = sum(span[END] - span[START] for span in spans
                 if span[FLOW] in flows and span[IS_STEP] and span[NAME].startswith("cli."))

    def per_flow_ms(key: str) -> float:
        return totals[key + ".ns"] / 1e6 / n_flows

    out = {
        "group.validate.count": totals["group.validate.count"] / n_flows,
        "group.validate.ms": per_flow_ms("group.validate"),
        "group.validate.per_cmd": totals["group.validate.count"] / commands if commands else 0.0,
        "group.validate.setup_ms": totals["group.validate.setup_ns"] / 1e6,
        "group.pow_g.count": totals["group.pow_g.count"] / n_flows,
        "group.pow_g.ms": per_flow_ms("group.pow_g"),
        "group.pow_var.count": totals["group.pow_var.count"] / n_flows,
        "group.pow_var.ms": per_flow_ms("group.pow_var"),
        "group.element.count": totals["group.element.count"] / n_flows,
        "group.element.ms": per_flow_ms("group.element"),
        "group.inverse.count": inverses / n_flows,
    }
    for step in POW_STEPS:
        calls = step_calls[step]
        out[f"group.pow_per.{step}"] = pow_per_step[step] / calls if calls else 0.0
    out.update({
        "hashing.to_scalar.count": totals["hashing.to_scalar.count"] / n_flows,
        "hashing.to_scalar.ms": per_flow_ms("hashing.to_scalar"),
        "hashing.to_scalar.bytes": totals["hashing.to_scalar.bytes"] / n_flows,
        "hashing.to_key.ms": per_flow_ms("hashing.to_key"),
        "shamir.split.ms": per_flow_ms("shamir.split"),
        "shamir.lagrange.count": totals["shamir.lagrange.count"] / n_flows,
        "shamir.lagrange.ms": per_flow_ms("shamir.lagrange"),
    })
    for metric in dict.fromkeys(SELF_METRICS.values()):
        out[metric] = self_ns[metric] / 1e6 / n_flows
    out.update({
        "threshold_crypto.aead.ms": per_flow_ms("threshold_crypto.aead"),
        "threshold_crypto.aead.bytes": totals["threshold_crypto.aead.bytes"] / n_flows,
        "serialize.parse.count": totals["serialize.parse.count"] / n_flows,
        "serialize.parse.ms": per_flow_ms("serialize.parse"),
        "serialize.emit.ms": per_flow_ms("serialize.emit"),
        "serialize.json.bytes": (totals["serialize.parse.bytes"]
                                 + totals["serialize.emit.bytes"]) / n_flows,
        "keystore.load.count": totals["keystore.load.count"] / n_flows,
        "keystore.load.ms": per_flow_ms("keystore.load"),
        "cli.process.ms": (cmd_ns - totals["cli.main.in_steps_ns"]) / 1e6 / n_flows,
        "cli.import.ms": per_flow_ms("cli.import"),
        "cli.main.ms": per_flow_ms("cli.main"),
        "trace.overhead_ms": overhead_ms,
    })
    return {name: out[name] for name, _ in LAYER_METRICS}
