#!/usr/bin/env python3
"""Compares `advm-cli ... --json` reports with a golden report.

usage: check_report.py GOLDEN REPORT...

Each REPORT loses the measured timings of every "perf" object (keys
ending in `_ms`, and `steps_per_sec`), as tests/golden_reports.rs
removes them, and must then equal GOLDEN byte for byte. With
UPDATE_GOLDEN set, the first REPORT, stripped, is written to GOLDEN
instead.
"""

import os
import re
import sys

PERF = re.compile(r'"perf":\{([^{}]*)\}')


def strip_timings(text):
    def keep(match):
        entries = [
            entry
            for entry in match.group(1).split(",")
            if not (entry.split(":")[0].endswith('_ms"') or entry.startswith('"steps_per_sec"'))
        ]
        return '"perf":{' + ",".join(entries) + "}"

    return PERF.sub(keep, text)


def main(golden, reports):
    stripped = [strip_timings(open(path).read()) for path in reports]
    if os.environ.get("UPDATE_GOLDEN"):
        with open(golden, "w") as out:
            out.write(stripped[0])
        return 0
    expected = open(golden).read()
    failed = [path for path, text in zip(reports, stripped) if text != expected]
    for path in failed:
        print(f"{path} differs from {golden} (timings aside)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2:]))
