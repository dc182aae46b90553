#!/usr/bin/env python3
"""Checks that every metric a run emits is documented in the catalog.

Usage:
  check_metrics_catalog.py --metrics FILE [--docs docs/OBSERVABILITY.md]

Parses the "Metric catalog" tables of docs/OBSERVABILITY.md into name
patterns and verifies that every metric name in the --metrics JSON file (a
goodenough-metrics-v2 dump from a smoke run) matches one of them.  A metric
added to the code without a catalog row fails CI here, closing the loop the
schema checker cannot: check_telemetry.py validates structure, this script
validates that names and meanings stay documented.

Catalog conventions understood:
  * names are backticked in the first table column;
  * one cell may hold alternatives: `a.x` / `a.y` (a leading "." continues
    the previous name's prefix, as in `core.<id>.energy_j` / `.busy_s`);
  * `<id>` / `<K>` match an integer; a trailing `.*` matches any suffix.

Exits non-zero listing every undocumented metric, and every documented
name (or pattern) of a family that v2 emits on every run (ALWAYS_EMITTED)
that the smoke run lacks.  Other documented names the run never emitted
(flag-gated families such as reclaim.* or watchdog.*) are printed without
failing, so stale rows stay visible in the CI log.
"""
import argparse
import json
import re
import sys

# Families every goodenough-metrics-v2 run emits, whatever its flags.
ALWAYS_EMITTED = ("jobs.", "stream.", "dispatch.", "lifecycle.", "cluster.",
                  "workload.", "s<K>.", "t<N>.")


def row_name_cell(line):
    """First column of a Markdown table row, or None."""
    if not line.startswith("|"):
        return None
    cells = [c.strip() for c in line.strip().strip("|").split("|")]
    if not cells or set(cells[0]) <= {"-", ":", " "}:
        return None
    return cells[0]


def cell_names(cell):
    """Expands one name cell into full metric-name tokens."""
    tokens = [t for t in re.findall(r"`([^`]+)`", cell)]
    names = []
    for token in tokens:
        if token.startswith(".") and names:
            base = names[-1]
            names.append(base[: base.rfind(".")] + token)
        else:
            names.append(token)
    return names


def pattern_for(name):
    """Compiles a catalog name (with <id>/<K>/.* holes) to a regex."""
    regex = ""
    for part in re.split(r"(<[^>]+>|\.\*$)", name):
        if re.fullmatch(r"<[^>]+>", part):
            regex += r"\d+"
        elif part == ".*":
            regex += r"\..+"
        else:
            regex += re.escape(part)
    return re.compile(regex + r"\Z")


def parse_catalog(docs_path):
    """All (name, regex) patterns from the "Metric catalog" section."""
    patterns = []
    in_catalog = False
    with open(docs_path) as f:
        for line in f:
            if line.startswith("## "):
                in_catalog = line.strip() == "## Metric catalog"
                continue
            if not in_catalog:
                continue
            cell = row_name_cell(line)
            if cell is None or cell == "Name":
                continue
            for name in cell_names(cell):
                if re.fullmatch(r"[\w.<>*]+", name):
                    patterns.append((name, pattern_for(name)))
    return patterns


def fail(what, names):
    print(f"check_metrics_catalog: {what}:", file=sys.stderr)
    for name in names:
        print(f"  {name}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--docs", default="docs/OBSERVABILITY.md")
    args = parser.parse_args()

    patterns = parse_catalog(args.docs)
    if not patterns:
        print(f"check_metrics_catalog: no catalog rows found in {args.docs}",
              file=sys.stderr)
        sys.exit(1)

    with open(args.metrics) as f:
        data = json.load(f)
    emitted = [m["name"] for m in data.get("metrics", [])]
    if not emitted:
        print(f"check_metrics_catalog: {args.metrics} holds no metrics",
              file=sys.stderr)
        sys.exit(1)

    undocumented = []
    matched = set()
    for name in emitted:
        hit = next((doc for doc, rx in patterns if rx.match(name)), None)
        if hit is None:
            undocumented.append(name)
        else:
            matched.add(hit)
    if undocumented:
        fail(f"metrics missing from the {args.docs} catalog", undocumented)

    missing = sorted(doc for doc, _ in patterns
                     if doc not in matched and doc.startswith(ALWAYS_EMITTED))
    if missing:
        fail(f"documented metrics every run emits are missing from "
             f"{args.metrics}", missing)
    unexercised = sorted(
        doc for doc, _ in patterns
        if doc not in matched and re.fullmatch(r"[\w.]+", doc))
    if unexercised:
        print("note: documented metrics not emitted by this smoke run "
              "(fine if they need other flags): " + ", ".join(unexercised))
    print(f"{args.metrics}: OK ({len(emitted)} metrics, "
          f"all documented in {args.docs})")


if __name__ == "__main__":
    main()
