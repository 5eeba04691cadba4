"""Run one dirsig CLI command with the benchmark's wrappers installed.

    python3 bench/cli_launcher.py REPORT.json COMMAND [ARGS...]

Times `import dirsig.cli` and `dirsig.cli.main(argv)`, writes the spans to
REPORT.json for the parent benchmark to adopt, and exits with main's code.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from tracer import Instrumentation, Tracer


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import dirsig.cli
    tracer.end(idx)
    Instrumentation(tracer).install()
    idx = tracer.begin("cli.main")
    try:
        code = dirsig.cli.main(argv)
    finally:
        tracer.end(idx)
        events: Counter = Counter()
        for (_, name), n in tracer.events.items():
            events[name] += n
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "events": events}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
