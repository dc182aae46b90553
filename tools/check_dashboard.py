#!/usr/bin/env python3
"""Validates a ge-dashboard-v1 HTML file (ge_dashboard / ge_report --dashboard).

Usage:
  check_dashboard.py --html FILE [--tasks N] [--identical FILE FILE...]

--html      the dashboard to validate:
            * declares schema ge-dashboard-v1 (generator meta tag);
            * is well-formed HTML (tags balance, parses without errors);
            * is fully self-contained: no scripts and no external fetches
              (no http:// / https:// / protocol-relative URLs anywhere);
            * carries every expected panel id, once per task, in order.
--tasks N   expected number of tasks (default: infer >= 1 from the file).
--identical two or more dashboards that must be byte-for-byte identical
            (the --jobs/--shards determinism contract, DESIGN.md section 7).

Exits non-zero with a message on the first violation; CI runs this on the
dashboard smoke artifact so drift in the panel contract fails the build.
"""
import argparse
import re
import sys
from html.parser import HTMLParser

# One panel set per task, in this order (dashboard.cpp's write order).
PANELS = ["summary", "gantt", "residency", "timelines", "lifecycle",
          "heatmap", "tenants", "reclaim"]

# HTML void elements never receive a closing tag.
VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input", "link",
        "meta", "param", "source", "track", "wbr"}


def fail(msg):
    print(f"check_dashboard: {msg}", file=sys.stderr)
    sys.exit(1)


class Balance(HTMLParser):
    """Checks tag balance and collects ids and tag names."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.ids = []
        self.tags = set()
        self.errors = []

    def handle_starttag(self, tag, attrs):
        self.tags.add(tag)
        for name, value in attrs:
            if name == "id" and value:
                self.ids.append(value)
        if tag not in VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.tags.add(tag)
        for name, value in attrs:
            if name == "id" and value:
                self.ids.append(value)

    def handle_endtag(self, tag):
        if tag in VOID:
            return
        if not self.stack:
            self.errors.append(f"closing </{tag}> with no open tag")
            return
        if self.stack[-1] != tag:
            self.errors.append(
                f"closing </{tag}> but <{self.stack[-1]}> is open")
            return
        self.stack.pop()


def check_html(path, expect_tasks):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        fail(f"{path}: cannot read ({err})")

    if not text.startswith("<!DOCTYPE html>"):
        fail(f"{path}: does not start with <!DOCTYPE html>")
    if "ge-dashboard-v1" not in text:
        fail(f"{path}: missing the ge-dashboard-v1 schema marker")

    # Self-containment: no scripts, no external fetches of any kind.
    for needle in ("http://", "https://", "//cdn.", "<script", "<iframe",
                   "@import", "url("):
        if needle in text:
            fail(f"{path}: contains {needle!r}; dashboards must be "
                 "self-contained (no scripts, no external fetches)")

    parser = Balance()
    parser.feed(text)
    parser.close()
    if parser.errors:
        fail(f"{path}: malformed HTML: {parser.errors[0]}")
    if parser.stack:
        fail(f"{path}: unclosed tags at EOF: {parser.stack}")
    if "svg" not in parser.tags:
        fail(f"{path}: no inline SVG charts found")

    panel_ids = [i for i in parser.ids if i.startswith("panel-")]
    tasks = sorted({int(m.group(1))
                    for i in panel_ids
                    for m in [re.match(r"^panel-[a-z]+-(\d+)$", i)] if m})
    if not tasks:
        fail(f"{path}: no panel ids found")
    if tasks != list(range(len(tasks))):
        fail(f"{path}: task indices are not contiguous from 0: {tasks}")
    if expect_tasks is not None and len(tasks) != expect_tasks:
        fail(f"{path}: expected {expect_tasks} task(s), found {len(tasks)}")
    expected = [f"panel-{p}-{t}" for t in tasks for p in PANELS]
    if panel_ids != expected:
        missing = sorted(set(expected) - set(panel_ids))
        extra = sorted(set(panel_ids) - set(expected))
        fail(f"{path}: panel ids diverge from the contract "
             f"(missing: {missing}, extra: {extra}, "
             f"order ok: {sorted(panel_ids) == sorted(expected)})")
    print(f"{path}: OK ({len(tasks)} task(s), {len(panel_ids)} panels, "
          f"{len(text)} bytes)")


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--html")
    parser.add_argument("--tasks", type=int)
    parser.add_argument("--identical", nargs="+", metavar="FILE")
    args = parser.parse_args()
    if args.identical is not None and len(args.identical) < 2:
        parser.error("--identical needs at least two files")
    if not (args.html or args.identical):
        parser.error("nothing to check: pass --html or --identical")
    if args.html:
        check_html(args.html, args.tasks)
    if args.identical:
        check_identical(args.identical)


if __name__ == "__main__":
    main()
