#!/usr/bin/env python3
"""Validates telemetry output files against the documented schema.

Usage:
  check_telemetry.py [--trace FILE] [--chrome FILE] [--metrics FILE]
                     [--report DIR] [--identical FILE FILE...]

--trace    JSONL trace (docs/OBSERVABILITY.md, "Trace schema"): every line
           must be a JSON object whose fields match its "ev" kind exactly.
--chrome   Chrome trace_event JSON: must parse as one array of objects each
           carrying the required "ph"/"pid" keys.
--metrics  Metrics JSON ("goodenough-metrics-v2"): every metric entry must
           carry the fields of its type.  Every run namespaces per-server
           metrics under "sK." and per-tenant metrics under "tN." (s0 and
           t0 included): the indices must be contiguous from 0, agree with
           the "cluster.servers" / "workload.tenants" gauge, and every
           group must export the same suffixes (core ids stripped).
--report   ge-report-v2 directory (--report flag / ge_report output):
           report.md (schema line ge-report-v2) plus the six CSVs, each with
           its exact documented header, a constant field count, and
           parseable numeric cells, and trace.bin's framing: magic and
           version, per-task counts that account for every byte, and event
           type bytes in range.
--identical
           Two or more output files that must be byte-for-byte identical.
           CI uses this for the determinism contracts: the same run under
           --jobs 1 vs --jobs N and under --shards 1 vs --shards N must
           emit identical metrics/trace/report bytes (DESIGN.md section 7).

Exits non-zero with a line-numbered message on the first violation; CI runs
this after the telemetry smoke run so schema drift fails the build.
"""
import argparse
import json
import os
import re
import struct
import sys

# Required fields per JSONL event kind (beyond "ev" itself).  "number" means
# int or float; bool is excluded on purpose (json.dumps(True) is not a
# measurement).
EVENT_FIELDS = {
    "meta": {"task": int, "scheduler": str, "arrival_rate": (int, float),
             "cores": int, "power_budget_w": (int, float), "power_model": dict,
             "ladder": list},
    "arrival": {"task": int, "t": (int, float), "job": int,
                "demand": (int, float), "deadline": (int, float),
                "tenant": int},
    "round": {"task": int, "t": (int, float), "round": (int, float),
              "mode": str, "waiting": (int, float), "rate": (int, float)},
    "mode": {"task": int, "t": (int, float), "mode": str,
             "quality": (int, float)},
    "cut": {"task": int, "t": (int, float), "core": int,
            "jobs": (int, float), "level": (int, float),
            "target_units": (int, float)},
    "cap": {"task": int, "t": (int, float), "core": int,
            "watts": (int, float)},
    "exec": {"task": int, "t": (int, float), "t_end": (int, float),
             "core": int, "job": int, "speed": (int, float)},
    "completion": {"task": int, "t": (int, float), "core": int, "job": int,
                   "executed": (int, float), "demand": (int, float),
                   "quality": (int, float)},
    "deadline_miss": {"task": int, "t": (int, float), "core": int, "job": int,
                      "executed": (int, float), "demand": (int, float),
                      "quality": (int, float)},
    "core_offline": {"task": int, "t": (int, float), "core": int},
    "dispatch": {"task": int, "t": (int, float), "job": int, "server": int,
                 "in_flight": (int, float)},
    "assign": {"task": int, "t": (int, float), "job": int, "core": int},
    "violation": {"task": int, "t": (int, float), "check": str,
                  "observed": (int, float), "expected": (int, float)},
    "server_state": {"task": int, "t": (int, float), "server": int,
                     "state": str},
}

# ge-report-v2 CSV schemas: header -> columns that hold strings (every other
# column must parse as a number).
REPORT_CSVS = {
    "summary.csv": (
        "task,scheduler,arrival_rate,servers,cores,released,completed,partial,"
        "dropped,missed,rounds,mode_switches,cuts,violations,"
        "integrated_energy_j,reported_energy_j,energy_rel_err,"
        "mean_response_ms,p99_response_ms,reclaim_energy_j,reclaim_disc_j,"
        "reclaim_offline_j,reclaim_frac",
        {"scheduler"},
    ),
    "jobs.csv": (
        "task,job,server,core,tenant,arrival_s,assigned_s,first_exec_s,"
        "settled_s,deadline_s,demand_units,executed_units,energy_j,wait_ms,"
        "service_ms,response_ms,slack_ms,outcome,missed",
        {"outcome"},
    ),
    "tenants.csv": (
        "task,tenant,q_ge,released,completed,partial,dropped,missed,"
        "executed_units,demand_units,energy_j",
        set(),
    ),
    "residency.csv": (
        "task,server,core,ghz_lo,ghz_hi,busy_s,energy_j",
        set(),
    ),
    "timeline.csv": (
        "task,server,t_s,waiting,in_flight,busy_cores,power_w",
        set(),
    ),
    "reclaim.csv": (
        "task,server,t_s,realized_j,reclaim_j,reclaim_disc_j",
        set(),
    ),
}

# Indexed namespaces: prefix letter -> the gauge holding the group count.
PREFIX_GROUPS = {"s": "cluster.servers", "t": "workload.tenants"}

METRIC_FIELDS = {
    "counter": {"value"},
    "gauge": {"value", "merge"},
    "histogram": {"count", "sum", "min", "max", "buckets"},
}


def fail(msg):
    print(f"check_telemetry: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, fields, where):
    for name, types in fields.items():
        if name not in obj:
            fail(f"{where}: missing field {name!r}")
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, types):
            fail(f"{where}: field {name!r} has type {type(value).__name__}")
    extra = set(obj) - set(fields) - {"ev"}
    if extra:
        fail(f"{where}: unexpected fields {sorted(extra)}")


def check_trace(path):
    tasks_seen = set()
    events = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"{where}: not valid JSON ({err})")
            if not isinstance(obj, dict):
                fail(f"{where}: line is not a JSON object")
            kind = obj.get("ev")
            if kind not in EVENT_FIELDS:
                fail(f"{where}: unknown event kind {kind!r}")
            check_fields(obj, EVENT_FIELDS[kind], where)
            if kind == "meta":
                tasks_seen.add(obj["task"])
            elif obj["task"] not in tasks_seen:
                fail(f"{where}: event for task {obj['task']} before its meta line")
            events += 1
    if not tasks_seen:
        fail(f"{path}: no meta lines (empty trace?)")
    print(f"{path}: OK ({events} lines, {len(tasks_seen)} tasks)")


def check_chrome(path):
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as err:
            fail(f"{path}: not valid JSON ({err})")
    if not isinstance(data, list) or not data:
        fail(f"{path}: expected a non-empty JSON array of trace events")
    for i, ev in enumerate(data):
        where = f"{path}: event {i}"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        for key in ("ph", "pid", "name"):
            if key not in ev:
                fail(f"{where}: missing {key!r}")
        if ev["ph"] in ("X", "i", "C") and "ts" not in ev:
            fail(f"{where}: {ev['ph']!r} event without 'ts'")
        if ev["ph"] == "X" and "dur" not in ev:
            fail(f"{where}: duration event without 'dur'")
    print(f"{path}: OK ({len(data)} events)")


def check_metrics(path):
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as err:
            fail(f"{path}: not valid JSON ({err})")
    if data.get("schema") != "goodenough-metrics-v2":
        fail(f"{path}: schema is {data.get('schema')!r}, "
             "expected 'goodenough-metrics-v2'")
    metrics = data.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        fail(f"{path}: 'metrics' must be a non-empty array")
    by_name = {}
    for m in metrics:
        where = f"{path}: metric {m.get('name')!r}"
        for key in ("name", "type", "unit"):
            if key not in m:
                fail(f"{where}: missing {key!r}")
        if m["name"] in by_name:
            fail(f"{where}: duplicate name")
        by_name[m["name"]] = m
        kind = m["type"]
        if kind not in METRIC_FIELDS:
            fail(f"{where}: unknown type {kind!r}")
        missing = METRIC_FIELDS[kind] - set(m)
        if missing:
            fail(f"{where}: missing fields {sorted(missing)}")
        if kind == "histogram":
            buckets = m["buckets"]
            if not buckets or buckets[-1]["le"] != "inf":
                fail(f"{where}: last bucket must be the 'inf' overflow bucket")
            if sum(b["count"] for b in buckets) != m["count"]:
                fail(f"{where}: bucket counts do not sum to 'count'")
    for letter, gauge in PREFIX_GROUPS.items():
        check_prefix_group(path, by_name, letter, gauge)
    print(f"{path}: OK ({len(metrics)} metrics)")


def check_prefix_group(path, by_name, letter, gauge):
    """Validates one indexed "<letter><i>." namespace against its gauge."""
    groups = {}
    for name in by_name:
        match = re.match(rf"^{letter}(\d+)\.(.+)$", name)
        if match:
            suffix = re.sub(r"^core\.\d+\.", "core.<id>.", match.group(2))
            groups.setdefault(int(match.group(1)), set()).add(suffix)
    if gauge not in by_name:
        fail(f"{path}: missing the {gauge!r} gauge")
    count = by_name[gauge].get("value")
    if sorted(groups) != list(range(int(count))) or count < 1:
        fail(f"{path}: {gauge} says {count} but the '{letter}<i>.' prefixes "
             f"are {sorted(groups)} (must be contiguous from {letter}0)")
    for i in sorted(groups):
        if groups[i] != groups[0]:
            diff = sorted(groups[i] ^ groups[0])
            fail(f"{path}: {letter}{i} exports a different metric set than "
                 f"{letter}0 (difference: {diff})")


def check_identical(paths):
    blobs = []
    for path in paths:
        try:
            with open(path, "rb") as f:
                blobs.append(f.read())
        except OSError as err:
            fail(f"{path}: cannot read ({err})")
    for path, blob in zip(paths[1:], blobs[1:]):
        if blob != blobs[0]:
            fail(f"{path}: differs from {paths[0]} "
                 f"({len(blob)} vs {len(blobs[0])} bytes); "
                 "determinism contract broken")
    print(f"identical: OK ({len(paths)} files, {len(blobs[0])} bytes each)")


def check_report(report_dir):
    md = os.path.join(report_dir, "report.md")
    try:
        with open(md) as f:
            text = f.read()
    except OSError as err:
        fail(f"{md}: cannot read ({err})")
    if not text.startswith("# "):
        fail(f"{md}: does not start with a Markdown title")
    if "\nschema: ge-report-v2 " not in text:
        fail(f"{md}: no 'schema: ge-report-v2' line")
    for name, (header, string_cols) in REPORT_CSVS.items():
        path = os.path.join(report_dir, name)
        columns = header.split(",")
        numeric = [i for i, c in enumerate(columns) if c not in string_cols]
        try:
            f = open(path)
        except OSError as err:
            fail(f"{path}: cannot read ({err})")
        with f:
            got = f.readline().rstrip("\n")
            if got != header:
                fail(f"{path}: header mismatch\n  expected: {header}\n"
                     f"  got:      {got}")
            rows = 0
            for lineno, line in enumerate(f, 2):
                fields = line.rstrip("\n").split(",")
                where = f"{path}:{lineno}"
                if len(fields) != len(columns):
                    fail(f"{where}: {len(fields)} fields, "
                         f"expected {len(columns)}")
                for i in numeric:
                    try:
                        float(fields[i])
                    except ValueError:
                        fail(f"{where}: column {columns[i]!r} is not numeric "
                             f"({fields[i]!r})")
                rows += 1
        print(f"{path}: OK ({rows} rows)")
    check_trace_bin(os.path.join(report_dir, "trace.bin"))
    print(f"{report_dir}: OK (ge-report-v2)")


# trace.bin framing (src/obs/analysis/trace_bin.h): header, then per task
# its description, an event count and that many fixed-size records.
TRACE_BIN_MAGIC = b"GETRACE\0"
TRACE_BIN_VERSION = 1
TRACE_BIN_RECORD_BYTES = 57
TRACE_BIN_EVENT_TYPES = 13  # TraceEventType::kArrival .. kServerState


def check_trace_bin(path):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        fail(f"{path}: cannot read ({err})")
    pos = 0

    def take(fmt, what):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            fail(f"{path}: truncated at byte {pos} (reading {what})")
        values = struct.unpack_from(fmt, data, pos)
        pos += size
        return values

    if data[:8] != TRACE_BIN_MAGIC:
        fail(f"{path}: bad magic {data[:8]!r}")
    pos = 8
    version, tasks = take("<IQ", "the header")
    if version != TRACE_BIN_VERSION:
        fail(f"{path}: version {version}, expected {TRACE_BIN_VERSION}")
    events = 0
    for task in range(tasks):
        index, name_len = take("<QI", f"task {task}")
        if index != task:
            fail(f"{path}: task {task} stored as task {index}")
        pos += name_len
        take("<dQd", f"task {task}'s rate/cores/budget")
        a, beta, units_per_ghz = take("<ddd", f"task {task}'s power model")
        if not (a > 0 and beta > 1 and units_per_ghz > 0):
            fail(f"{path}: task {task} has an invalid power model")
        (levels,) = take("<Q", f"task {task}'s ladder length")
        take(f"<{levels}d", f"task {task}'s ladder")
        (count,) = take("<Q", f"task {task}'s event count")
        end = pos + count * TRACE_BIN_RECORD_BYTES
        if end > len(data):
            fail(f"{path}: task {task} declares {count} events but the file "
                 f"ends {end - len(data)} bytes short")
        types = data[pos:end:TRACE_BIN_RECORD_BYTES]
        if types and max(types) >= TRACE_BIN_EVENT_TYPES:
            fail(f"{path}: task {task} has event type {max(types)} "
                 f"(>= {TRACE_BIN_EVENT_TYPES})")
        pos = end
        events += count
    if pos != len(data):
        fail(f"{path}: {len(data)} bytes, but the header and counts account "
             f"for {pos}")
    print(f"{path}: OK ({tasks} tasks, {events} events)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace")
    parser.add_argument("--chrome")
    parser.add_argument("--metrics")
    parser.add_argument("--report")
    parser.add_argument("--identical", nargs="+", metavar="FILE")
    args = parser.parse_args()
    if args.identical is not None and len(args.identical) < 2:
        parser.error("--identical needs at least two files")
    if not (args.trace or args.chrome or args.metrics or args.report
            or args.identical):
        parser.error(
            "nothing to check: pass --trace, --chrome, --metrics, --report "
            "or --identical")
    if args.trace:
        check_trace(args.trace)
    if args.chrome:
        check_chrome(args.chrome)
    if args.metrics:
        check_metrics(args.metrics)
    if args.report:
        check_report(args.report)
    if args.identical:
        check_identical(args.identical)


if __name__ == "__main__":
    main()
