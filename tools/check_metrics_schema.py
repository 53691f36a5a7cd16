#!/usr/bin/env python3
"""Validate a metrics export against the documented registry.

src/obs/README.md is the single source of truth for the metric
namespace: a markdown table of |`name`|kind|meaning| rows, where
`<shard>` and `<svc>` stand for non-negative integer indices. This
checker parses that table and verifies that every metric in an
exported file (Prometheus text, metrics CSV, or metrics JSON — the
three MetricsRegistry::writeFile formats) matches a documented name,
and, for Prometheus text, that its declared kind matches too.

A JSON export also carries each counter's and gauge's sample series,
so for it the checker verifies the README's run-level value rule as
well: a counter's value is its last sample, a gauge's value is its
last full-interval sample. Full-interval samples sit at whole
multiples of the first sample time (the interval length); a drain-tail
sample, which ends wherever the last backlog retires, does not.

CI runs it on the scenario-smoke artifacts, so a metric added in code
but not documented (or vice versa: a doc row that drifted from the
code) fails the build.

Usage: check_metrics_schema.py <obs-readme.md> <metrics-file>...
Exit status: 0 clean, 1 violations, 2 usage/parse error.
"""

import json
import pathlib
import re
import sys

TABLE_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*(counter|gauge|histogram)\s*\|")
PROM_TYPE = re.compile(r"^# TYPE (\S+) (counter|gauge|histogram)$")


def load_registry(readme):
    """@return list of (regex, kind) from the README's registry table."""
    entries = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        m = TABLE_ROW.match(line)
        if not m:
            continue
        name, kind = m.group(1), m.group(2)
        pat = re.escape(name)
        pat = pat.replace(re.escape("<shard>"), r"\d+")
        pat = pat.replace(re.escape("<svc>"), r"\d+")
        entries.append((re.compile("^" + pat + "$"), kind))
    return entries


def match(registry, name):
    """@return the documented kind for `name`, or None."""
    for pat, kind in registry:
        if pat.match(name):
            return kind
    return None


def names_from_prometheus(path):
    """@return [(name, declared_kind)] from # TYPE lines."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        m = PROM_TYPE.match(line)
        if m:
            out.append((m.group(1), m.group(2)))
    return out


def names_from_csv(path):
    """@return [(name, None)] from the long-form t_s,name,value CSV."""
    names = []
    seen = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines()
    ):
        if lineno == 0 and line.startswith("t_s,"):
            continue
        parts = line.split(",")
        if len(parts) == 3 and parts[1] not in seen:
            seen.add(parts[1])
            names.append((parts[1], None))
    return names


def names_from_json(path):
    """@return [(name, kind)] from the registry JSON dump."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [
        (m["name"], m.get("kind"))
        for m in doc.get("metrics", [])
        if "name" in m
    ]


def is_full_interval(times, i):
    """@return true when sample i closes a whole provisioning interval."""
    interval = times[0]
    want = interval * (i + 1)
    return abs(times[i] - want) <= 1e-6 * max(1.0, want)


def check_json_values(path):
    """@return violations of the run-level value rule in a JSON export."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    times = doc.get("sample_times_s", [])
    if not times:
        return 0
    full = [i for i in range(len(times)) if is_full_interval(times, i)]
    bad = 0
    for m in doc.get("metrics", []):
        kind = m.get("kind")
        series = m.get("series")
        if kind not in ("counter", "gauge") or not series:
            continue
        if len(series) != len(times):
            print(f"{path}: '{m['name']}' has {len(series)} samples "
                  f"for {len(times)} sample times")
            bad += 1
            continue
        if kind == "counter":
            want, which = series[-1], "last sample"
        elif full:
            want, which = series[full[-1]], "last full-interval sample"
        else:
            continue
        if m["value"] != want:
            print(f"{path}: {kind} '{m['name']}' value {m['value']} is "
                  f"not its {which} {want}")
            bad += 1
    return bad


def check_file(registry, path):
    if path.suffix == ".csv":
        entries = names_from_csv(path)
    elif path.suffix == ".json":
        entries = names_from_json(path)
    else:
        entries = names_from_prometheus(path)
    if not entries:
        print(f"{path}: no metrics found (wrong format?)",
              file=sys.stderr)
        return 1

    bad = 0
    for name, declared_kind in entries:
        kind = match(registry, name)
        if kind is None:
            print(f"{path}: undocumented metric '{name}' "
                  "(add it to src/obs/README.md)")
            bad += 1
        elif declared_kind is not None and declared_kind != kind:
            print(f"{path}: '{name}' exported as {declared_kind} but "
                  f"documented as {kind}")
            bad += 1
    if path.suffix == ".json":
        bad += check_json_values(path)
    if bad == 0:
        print(f"{path}: {len(entries)} metric(s) match the registry")
    return bad


def main(argv):
    if len(argv) < 3:
        print(f"usage: {argv[0]} <obs-readme.md> <metrics-file>...",
              file=sys.stderr)
        return 2
    readme = pathlib.Path(argv[1])
    if not readme.is_file():
        print(f"{readme}: not a file", file=sys.stderr)
        return 2
    registry = load_registry(readme)
    if not registry:
        print(f"{readme}: no registry table rows found", file=sys.stderr)
        return 2

    total = 0
    for arg in argv[2:]:
        path = pathlib.Path(arg)
        if not path.is_file():
            print(f"{path}: not a file", file=sys.stderr)
            return 2
        total += check_file(registry, path)
    if total:
        print(f"check-metrics-schema: {total} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
