#!/usr/bin/env python3
"""Run a command and fail if its peak RSS exceeds a ceiling.

The bounded-memory contract of the streaming replay path (--stream) is a
resource claim, not just a results claim, so CI enforces it directly: a
10^6-job streaming run must fit under a ceiling that the materialised path
would blow through (docs/DESIGN.md, "Streaming core").  The same goes for
the report pipeline: a --report run must hold each task's trace once, so
CI runs its large report case under a ceiling that a second copy of the
trace would exceed.

Peak RSS is read from resource.getrusage(RUSAGE_CHILDREN).ru_maxrss after
the child exits -- the kernel-maintained high-water mark, which needs no
polling and cannot miss a transient peak.

Usage:
  check_rss.py --limit-mb 512 -- ./tools/ge_sweep --stream true ...

Exit status: the child's, or 1 when the child succeeded but exceeded the
ceiling.
"""

import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--limit-mb", type=float, required=True,
                        help="peak-RSS ceiling for the child, in MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="command to run (prefix with --)")
    args = parser.parse_args()

    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        parser.error("no command given")

    returncode = subprocess.call(command)
    # Linux reports ru_maxrss in KiB.  RUSAGE_CHILDREN covers every waited-for
    # descendant, so the measurement includes the whole child process tree.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_mib = peak_kib / 1024.0
    print(f"check_rss: peak RSS {peak_mib:.1f} MiB "
          f"(ceiling {args.limit_mb:.1f} MiB)")

    if returncode != 0:
        print(f"check_rss: command failed with exit code {returncode}")
        return returncode
    if peak_mib > args.limit_mb:
        print(f"FAIL: peak RSS {peak_mib:.1f} MiB exceeds the "
              f"{args.limit_mb:.1f} MiB ceiling")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
