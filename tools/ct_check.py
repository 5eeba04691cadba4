"""Timing check of the group kernel's secret exponents, in the manner of dudect (Reparaz,
Balasch and Verbauwhede, "Dude, is my code constant time?", DATE 2017).

Each row times one power per call for two classes of exponent, drawn in random order, crops
the slow tail above a percentile of all the calls, and prints Welch's t between the classes.
A |t| above 4.5 reads as a leak.

- padded: a member raised by `GroupElement.__pow__` to a uniform exponent against one a
  64-bit word short of q, each padded to one count of words; expect |t| < 4.5.
- unpadded: the same two classes on a bare DH load (`_modexp`), whose cost steps with the
  exponent's count of words: the leak the padding closes.
- control: the DSA framing that public exponents take, a q-sized exponent with 2 bits set
  against a uniform one. Its time follows the exponent's bits, so expect |t| > 4.5: a check
  that cannot see this leak shows nothing by passing the others.

The timings share the machine with everything else on it, so read a row against its
control, not alone. Uses the standard library only. From the repository root:

    PYTHONPATH=src python tools/ct_check.py [--group FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import time

from dirsig.group import _modexp
from dirsig.serialize import group_from_dict

THRESHOLD = 4.5  # dudect's bound on |t|
CALLS = 8000  # timed calls a row
WARMUP = 1000  # untimed calls a row makes first: a cold process runs its first powers slower
CROP = 0.9  # the pooled percentile above which a call is cropped as the slow tail


def welch_t(a: list, b: list) -> float:
    """Welch's t statistic of the means of two samples."""
    spread = math.sqrt(statistics.variance(a) / len(a) + statistics.variance(b) / len(b))
    return (statistics.fmean(a) - statistics.fmean(b)) / spread


def measure(power, classes, rng: random.Random) -> tuple:
    """Nanoseconds of power(e), one list per class, for CALLS exponents whose class is
    drawn at random per call; each exponent is drawn before its clock starts."""
    times = ([], [])
    for n in range(WARMUP + CALLS):
        which = rng.getrandbits(1)
        e = classes[which]()
        start = time.perf_counter_ns()
        power(e)
        elapsed = time.perf_counter_ns() - start
        if n >= WARMUP:
            times[which].append(elapsed)
    return times


def cropped_t(times: tuple, percentile: float) -> float:
    """Welch's t of the two classes over the calls at or below the pooled percentile."""
    pooled = sorted(times[0] + times[1])
    cut = pooled[int(percentile * (len(pooled) - 1))]
    return welch_t(*([t for t in side if t <= cut] for side in times))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--group", default="bench/data/group_512_160.json")
    args = parser.parse_args(argv)
    with open(args.group) as fh:
        group = group_from_dict(json.load(fh))
    p, q, g = group.p, group.q, group.g
    rng = random.Random(0xD0DEC7)
    short_bits = 64 * ((q.bit_length() - 1) // 64)  # one word fewer than q has

    def uniform():
        return rng.randrange(1, q)

    def short():
        return rng.randrange(1, 1 << short_bits)

    def two_bits():
        return 1 << q.bit_length() - 1 | 1 << rng.randrange(q.bit_length() - 1)

    member = group.generator ** group.scalar(uniform())
    rows = (
        ("padded", lambda e: member ** e, (uniform, short), "< "),
        ("unpadded", lambda e: _modexp(g, e, p), (uniform, short), ""),
        ("control", lambda e: _modexp(g, e, p, public=True), (uniform, two_bits), "> "),
    )
    print(f"{p.bit_length()}/{q.bit_length()}, {CALLS} calls a row, "
          f"cropped at the pooled {CROP:.0%} point; short exponents have {short_bits} bits")
    for name, power, classes, expect in rows:
        times = measure(power, classes, rng)
        t = cropped_t(times, CROP)
        medians = "  ".join(f"{statistics.median(side) / 1e3:6.1f} us" for side in times)
        verdict = f"  expect |t| {expect}{THRESHOLD}" if expect else ""
        print(f"{name:9s} t = {t:8.2f}  medians {medians}{verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
