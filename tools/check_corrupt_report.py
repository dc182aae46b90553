#!/usr/bin/env python3
"""Corrupts one index field of a report directory's trace.bin at a time and
requires ge_dashboard --report and ge_report --report to refuse each copy
cleanly: exit status 2 and a one-line message, not an abort.

Usage:
  check_corrupt_report.py --report DIR --dashboard BIN --ge-report BIN
                          --work DIR

--report     a valid ge-report-v2 directory (left untouched)
--dashboard  the ge_dashboard binary
--ge-report  the ge_report binary
--work       scratch directory for the corrupted copies

The framing stays well-formed (record count and sizes unchanged), so only
the loaders' index check (check_event_indices) can catch the corruption.
"""
import argparse
import os
import shutil
import struct
import subprocess
import sys

# trace.bin layout: src/obs/analysis/trace_bin.h.
RECORD_BYTES = 57
CORE_OFFSET = 1 + 8 + 8            # after u8 type, f64 t, f64 t2
TENANT_OFFSET = CORE_OFFSET + 4 + 8 + 4 + 8 + 8  # f64 c
ARRIVAL, EXEC = 0, 5

# (label, event type, field offset, struct format, value)
CASES = [
    ("exec core past the task's cores", EXEC, CORE_OFFSET, "<i", 1 << 20),
    ("negative exec core", EXEC, CORE_OFFSET, "<i", -1),
    ("negative arrival tenant", ARRIVAL, TENANT_OFFSET, "<d", -1.0),
]


def record_offsets(data):
    """Byte offset of every event record, walking the framing."""
    pos = 8
    _, tasks = struct.unpack_from("<IQ", data, pos)
    pos += 12
    offsets = []
    for _ in range(tasks):
        _, name_len = struct.unpack_from("<QI", data, pos)
        pos += 12 + name_len + 8 * 3 + 8 * 3
        (levels,) = struct.unpack_from("<Q", data, pos)
        pos += 8 + 8 * levels
        (count,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        offsets.extend(pos + i * RECORD_BYTES for i in range(count))
        pos += count * RECORD_BYTES
    return offsets


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True)
    parser.add_argument("--dashboard", required=True)
    parser.add_argument("--ge-report", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    with open(os.path.join(args.report, "trace.bin"), "rb") as f:
        good = f.read()
    offsets = record_offsets(good)
    failures = 0
    for label, ev_type, field, fmt, value in CASES:
        target = next((o for o in offsets if good[o] == ev_type), None)
        if target is None:
            print(f"{label}: no event of type {ev_type} in the trace")
            failures += 1
            continue
        data = bytearray(good)
        struct.pack_into(fmt, data, target + field, value)
        work = os.path.join(args.work, "corrupt_report")
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(args.report, work)
        with open(os.path.join(work, "trace.bin"), "wb") as f:
            f.write(data)
        for cmd in ([args.dashboard, "--report", work, "--out",
                     os.path.join(args.work, "corrupt.html")],
                    [args.ge_report, "--report", work, "--out",
                     os.path.join(args.work, "corrupt_out")]):
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stderr.strip().splitlines()
            if run.returncode != 2 or len(lines) != 1 or "names" not in lines[0]:
                print(f"{label}: {os.path.basename(cmd[0])} exited "
                      f"{run.returncode}, stderr {run.stderr!r}")
                failures += 1
    if failures:
        sys.exit(f"{failures} corrupt trace.bin case(s) not refused cleanly")
    print(f"OK: {len(CASES)} corrupt trace.bin cases refused with exit 2")


if __name__ == "__main__":
    main()
