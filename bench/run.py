"""The dirsig benchmark: four workloads against the public API and the CLI.

    python3 bench/run.py --workload directed-2048 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run sets the workload up, runs whole flows in a closed loop with one
client for `--seconds`, checks the outcome of every step, and prints one
line per metric: name, value, unit and sample count. With `--trace 0` the
metrics are end to end and the program runs unmodified. With `--trace 1`
every other flow runs with the tracer's wrappers installed and the metrics
are per layer; the span log goes to `.bench_build/bench/`. The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--workload all` runs every workload untraced, then traced, each
in its own process.

See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"

SETUP_RUNS = 3  # the first in this process, the others each in a fresh one
P95_MIN_SAMPLES = 200  # so that at least ten samples lie beyond the p95

# End-to-end metrics of the result line, as BENCHMARK.json lists them.
# failed_ratio is carried by `failed` / `attempted`; prove_ms exists on two
# workloads only, and flow_ms includes it there.
RESULT_METRICS = (
    "setup_s",
    "flows_per_s",
    "flow_ms_p50",
    "flow_ms_p95",
    "sign_ms_p50",
    "sign_ms_p95",
    "verify_ms_p50",
    "verify_ms_p95",
    "peak_rss_mb",
)


def import_program():
    """Import dirsig from this checkout's `src/`, or exit if it is not there."""
    if not (SRC / "dirsig" / "__init__.py").is_file():
        sys.exit(f"error: no dirsig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dirsig

    if Path(dirsig.__file__).resolve().parent != SRC / "dirsig":
        sys.exit(f"error: dirsig was imported from {dirsig.__file__}, not from {SRC}")
    return dirsig


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int, seconds: float, trace: int) -> str:
    import cryptography

    doc = json.loads((BENCH / "data" / workload.group_file).read_text())
    bits = f"{int(doc['p'], 16).bit_length()}/{int(doc['q'], 16).bit_length()}"
    return (
        f"# {workload.name}: seed={seed} seconds={seconds:g} trace={trace}"
        f" python={platform.python_version()} cryptography={cryptography.__version__}"
        f" nproc={len(os.sched_getaffinity(0))} commit={git_commit()} group={bits}"
    )


def timings(metrics: dict, name: str, samples_ns: list) -> None:
    ms = [ns / 1e6 for ns in samples_ns]
    metrics[f"{name}_p50"] = (statistics.median(ms) if ms else None, "ms", len(ms))
    if len(ms) >= P95_MIN_SAMPLES:
        metrics[f"{name}_p95"] = (statistics.quantiles(ms, n=20)[18], "ms", len(ms))
    else:
        metrics[f"{name}_p95"] = (None, "ms", len(ms))


def print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit, n) in metrics.items():
        if value is None:
            needs = P95_MIN_SAMPLES if name.endswith("_p95") else 1
            print(f"{workload:<14} {name:<34} {'n/a':>14} {unit:<10} n={n} (needs {needs})")
        else:
            print(f"{workload:<14} {name:<34} {value:>14.4f} {unit:<10} n={n}")


def setup_probe(name: str, seed: int) -> float:
    """Time one cold set-up in a fresh process, so no in-process cache is warm."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_one(name: str, seed: int, seconds: float, trace: int, setup_only: bool) -> int:
    from tracer import LAYER_METRICS, SETUP_FLOW, Instrumentation, Tracer, layer_metrics
    from workloads import KNOWN_DEFECTS, WORKLOADS, Recorder

    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, WORK)
    tracer = Tracer() if trace else None
    instrumentation = Instrumentation(tracer) if trace else None

    if instrumentation:
        instrumentation.install()
    start = time.perf_counter()
    try:
        workload.setup()
    finally:
        setup_s = time.perf_counter() - start
        if instrumentation:
            instrumentation.uninstall()
    if setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(environment(workload, seed, seconds, trace), flush=True)
    plain, traced = Recorder(), Recorder(tracer)
    i = 0
    start = time.perf_counter()
    while True:
        tracing = bool(trace) and i % 2 == 1
        rec = traced if tracing else plain
        if tracing:
            tracer.flow = i
            instrumentation.install()
        try:
            workload.flow(rec, i)
        except Exception as exc:  # a wrong outcome is counted, never fatal
            rec.unexpected(exc)
        finally:
            if tracing:
                instrumentation.uninstall()
                tracer.flow = SETUP_FLOW
        i += 1
        if time.perf_counter() - start >= seconds and (not trace or i >= 2):
            break
    wall = time.perf_counter() - start
    peak_rss_mb = workload.peak_rss_kib() / 1024
    workload.close()

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if trace:
        overhead_ms = (statistics.median(traced.flow_ns) - statistics.median(plain.flow_ns)) / 1e6
        flows = set(range(1, i, 2))
        layers = layer_metrics(tracer, flows, traced.commands, overhead_ms)
        metrics = {metric: (layers[metric], unit, len(flows)) for metric, unit in LAYER_METRICS}
        path = WORK / f"trace-{name}-seed{seed}.jsonl"
        tracer.dump(path)
        print(f"# {name}: {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
        if instrumentation.missing:
            print(f"# {name}: not traced, name not found: {', '.join(instrumentation.missing)}")
    else:
        setups = [setup_s] + [setup_probe(name, seed) for _ in range(SETUP_RUNS - 1)]
        flows = len(plain.flow_ns)
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "flows_per_s": (flows / wall, "1/s", flows),
        }
        timings(metrics, "flow_ms", plain.flow_ns)
        for pool in workload.pools:
            timings(metrics, f"{pool}_ms", plain.samples[pool])
        metrics["failed_ratio"] = (failed / attempted, "ratio", attempted)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    print_metrics(name, metrics)

    mismatches = plain.mismatches + traced.mismatches
    for (step, case, expected, actual), n in sorted(mismatches.items()):
        known = KNOWN_DEFECTS.get((step, case))
        print(f"{name:<14} wrong outcome: {step} [{case}] expected {expected}, got {actual}"
              f" x{n}" + (f"; known defect: {known}" if known else ""))

    wanted = RESULT_METRICS if not trace else [metric for metric, _ in LAYER_METRICS]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric][0], "unit": metrics[metric][1]}
            for metric in wanted
            if metric in metrics and metrics[metric][0] is not None
        },
    }))
    return 0


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each run in its own process."""
    results = {}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name, trace] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for (name, _), r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
