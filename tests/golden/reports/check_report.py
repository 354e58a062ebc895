#!/usr/bin/env python3
"""Compares `advm-cli ... --json` reports with a golden report.

usage: check_report.py GOLDEN REPORT...

Each REPORT loses the measured timings of every "perf" object (keys
ending in `_ms`, and `steps_per_sec`), as tests/golden_reports.rs
removes them, and must then equal GOLDEN byte for byte. A REPORT that
does not is named with the first JSON value that moved, as in
`perf.forked_runs: golden 414, actual 0`. With UPDATE_GOLDEN set, the
first REPORT, stripped, is written to GOLDEN instead.
"""

import json
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


def dump(value):
    return json.dumps(value, separators=(",", ":"))


def value_difference(golden, actual, path=""):
    """The first value where `actual` departs from `golden`, as
    `path: golden X, actual Y`, or None when the two are equal."""

    def at(key):
        return f"{path}.{key}" if path else key

    def here(what):
        return f"{path}: {what}" if path else what

    if isinstance(golden, dict) and isinstance(actual, dict):
        for key, value in golden.items():
            if key not in actual:
                return f"{at(key)}: golden {dump(value)}, actual absent"
            found = value_difference(value, actual[key], at(key))
            if found:
                return found
        for key, value in actual.items():
            if key not in golden:
                return f"{at(key)}: golden absent, actual {dump(value)}"
        if list(golden) != list(actual):
            return here(f"key order: golden {list(golden)}, actual {list(actual)}")
        return None
    if isinstance(golden, list) and isinstance(actual, list):
        for i, (item, other) in enumerate(zip(golden, actual)):
            found = value_difference(item, other, f"{path}[{i}]")
            if found:
                return found
        if len(golden) != len(actual):
            return here(f"golden {len(golden)} items, actual {len(actual)}")
        return None
    if type(golden) is type(actual) and golden == actual:
        return None
    return here(f"golden {dump(golden)}, actual {dump(actual)}")


def first_difference(expected, actual):
    """Where `actual` first departs from `expected`, compared line by
    line and named by its JSON path."""
    golden, lines = expected.splitlines(), actual.splitlines()
    count = max(len(golden), len(lines))
    for i in range(count):
        if i < len(golden) and i < len(lines) and golden[i] == lines[i]:
            continue
        place = f"line {i + 1}: " if count > 1 else ""
        if i >= len(golden) or i >= len(lines):
            return f"{place}golden has {len(golden)} lines, actual {len(lines)}"
        try:
            found = value_difference(json.loads(golden[i]), json.loads(lines[i]))
        except ValueError as e:
            return f"{place}not JSON: {e}"
        return place + (found or "equal values, written differently")
    return "line breaks differ"


def main(golden, reports):
    stripped = [strip_timings(open(path).read()) for path in reports]
    if os.environ.get("UPDATE_GOLDEN"):
        with open(golden, "w") as out:
            out.write(stripped[0])
        return 0
    expected = open(golden).read()
    failed = False
    for path, text in zip(reports, stripped):
        if text != expected:
            failed = True
            print(f"{path}: {first_difference(expected, text)}", file=sys.stderr)
            print(f"{path} differs from {golden} (timings aside)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2:]))
