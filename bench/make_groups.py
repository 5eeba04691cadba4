"""Regenerate the committed benchmark groups from their recorded seeds.

    PYTHONPATH=src python3 bench/make_groups.py

Each group is drawn by `dirsig.generate_group` from `random.Random(seed)`,
so the same seed yields the same (p, q, g). The files use the README's
group format, `{"p", "q", "g"}` in lowercase hex, and are committed: the
2048/224 search takes several seconds, which the benchmark must not pay on
every run. The benchmark still validates each group in full when it loads it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import dirsig

DATA = Path(__file__).resolve().parent / "data"

# (file name, p bits, q bits, generator seed)
GROUPS = (
    ("group_512_160.json", 512, 160, 0x5120160),
    ("group_2048_224.json", 2048, 224, 0x20480224),
)


def main() -> None:
    for name, p_bits, q_bits, seed in GROUPS:
        group = dirsig.generate_group(p_bits, q_bits, random.Random(seed))
        doc = {"p": format(group.p, "x"), "q": format(group.q, "x"), "g": format(group.g, "x")}
        (DATA / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {name}: {p_bits}/{q_bits} from seed {seed:#x}")


if __name__ == "__main__":
    main()
