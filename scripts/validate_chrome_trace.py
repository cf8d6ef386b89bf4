#!/usr/bin/env python3
"""Validate exported trace JSON against the Chrome trace_event schema.

Checks the subset of the trace_event format this project emits
(docs/METRICS.md, docs/TRACING.md):

  - top level: {"traceEvents": [...], "displayTimeUnit": "ms"}
  - every event has string `name`/`cat`/`ph` and integer `pid`/`tid`
  - `ph` is one of "M" (metadata), "X" (complete), "i" (instant)
  - span events have `cat` = one of the exported SpanKind names (read
    from src/trace/span.cc) and `name` = cat + " " + site
  - "X" events carry integer `ts` >= 0 and `dur` >= 0
  - "i" events carry `ts` and thread scope `"s": "t"`
  - span events carry args.span / args.parent / args.detail integers,
    with parent == -1 only for root spans (cat == "request")
  - per request (tid): span ids are unique, every non-root parent id
    references an earlier span of the same request — the tree is
    recoverable from the file
  - at least one "X" event (an export with zero retained traces is
    almost certainly a wiring bug in a --trace smoke test). With
    --allow-empty, an export whose only event is the process_name
    metadata record is accepted too: that is what a run with nothing to
    retain writes (e.g. a drop-free stack under --trace=vlrt)

With --csv, the files are span CSVs (trace_spans.csv, incident_spans.csv)
instead, read with Python's csv module (RFC 4180 quoting):

  - the first row is exactly the documented header
  - every row has 10 fields; ids, times and detail are integers, the
    kind is an exported SpanKind name, and closed is 0 or 1
  - parent_id is -1 iff kind is "request"

A header-only CSV (a run that retained no trace) is valid with or
without --allow-empty.

Usage: scripts/validate_chrome_trace.py [--csv] [--allow-empty] FILE [FILE ...]
Exit status: 0 when every file validates, 1 otherwise.
"""

import csv
import json
import os
import re
import sys

PHASES = {"M", "X", "i"}
CSV_HEADER = ["request_id", "span_id", "parent_id", "kind", "site", "begin_us",
              "end_us", "duration_us", "detail", "closed"]
SPAN_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "src", "trace", "span.cc")


def span_kinds() -> set:
    """The names to_string(SpanKind) can return, read from its source."""
    with open(SPAN_SOURCE, encoding="utf-8") as f:
        kinds = set(re.findall(r'case SpanKind::k\w+: return "(\w+)";', f.read()))
    if not kinds:
        sys.exit(f"error: no SpanKind names found in {SPAN_SOURCE}")
    return kinds


KINDS = span_kinds()


def fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def is_empty_export(events: list) -> bool:
    """True for the export of zero traces: one process_name metadata record."""
    return (len(events) == 1 and isinstance(events[0], dict)
            and events[0].get("ph") == "M" and events[0].get("name") == "process_name")


def validate(path: str, errors: list, allow_empty: bool = False) -> None:
    before = len(errors)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, path, f"unreadable or invalid JSON: {e}")
        return

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(errors, path, "top level must be an object with 'traceEvents'")
        return
    if doc.get("displayTimeUnit") != "ms":
        fail(errors, path, "displayTimeUnit must be 'ms'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(errors, path, "'traceEvents' must be a list")
        return

    spans_by_request = {}  # tid -> set of span ids seen so far
    complete_events = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(errors, path, f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in PHASES:
            fail(errors, path, f"{where}: ph {ph!r} not in {sorted(PHASES)}")
            continue
        for key, typ in (("name", str), ("pid", int)):
            if not isinstance(ev.get(key), typ):
                fail(errors, path, f"{where}: missing/ill-typed {key!r}")
        if ph == "M":
            continue
        for key in ("cat", "tid", "ts"):
            if key not in ev:
                fail(errors, path, f"{where}: missing {key!r}")
        if not isinstance(ev.get("ts"), int) or ev.get("ts", -1) < 0:
            fail(errors, path, f"{where}: ts must be a non-negative integer (µs)")
        if ph == "X":
            complete_events += 1
            if not isinstance(ev.get("dur"), int) or ev.get("dur", -1) < 0:
                fail(errors, path, f"{where}: X event needs integer dur >= 0")
        if ph == "i" and ev.get("s") != "t":
            fail(errors, path, f"{where}: instant events must be thread-scoped (s='t')")

        args = ev.get("args")
        if not isinstance(args, dict):
            fail(errors, path, f"{where}: span events must carry args")
            continue
        span, parent = args.get("span"), args.get("parent")
        if not isinstance(span, int) or not isinstance(parent, int):
            fail(errors, path, f"{where}: args.span/args.parent must be integers")
            continue
        if not isinstance(args.get("detail"), int):
            fail(errors, path, f"{where}: args.detail must be an integer")
        cat, name = ev.get("cat"), ev.get("name")
        if cat not in KINDS:
            fail(errors, path, f"{where}: cat {cat!r} is not a SpanKind name")
        elif not isinstance(name, str) or not name.startswith(cat + " "):
            fail(errors, path, f"{where}: name {name!r} does not start with {cat + ' '!r}")
        if (parent == -1) != (cat == "request"):
            fail(errors, path, f"{where}: parent -1 iff root 'request' span (cat={cat!r})")
        seen = spans_by_request.setdefault(ev.get("tid"), set())
        if span in seen:
            fail(errors, path, f"{where}: duplicate span id {span} in request {ev.get('tid')}")
        if parent != -1 and parent not in seen:
            fail(errors, path,
                 f"{where}: parent {parent} not seen before span {span} "
                 f"(parents must precede children)")
        seen.add(span)

    if complete_events == 0 and not (allow_empty and is_empty_export(events)):
        fail(errors, path, "no complete ('X') events — empty trace export")
    if len(errors) == before:
        print(f"OK: {path}: {len(events)} events, "
              f"{len(spans_by_request)} traced requests, {complete_events} spans")


def validate_csv(path: str, errors: list) -> None:
    before = len(errors)
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        fail(errors, path, f"unreadable CSV: {e}")
        return
    if not rows or rows[0] != CSV_HEADER:
        fail(errors, path, f"header must be {','.join(CSV_HEADER)}")
        return
    for n, row in enumerate(rows[1:], start=2):
        where = f"row {n}"
        if len(row) != len(CSV_HEADER):
            fail(errors, path, f"{where}: {len(row)} fields, expected {len(CSV_HEADER)}")
            continue
        rec = dict(zip(CSV_HEADER, row))
        if not all(re.fullmatch(r"-?\d+", rec[k]) for k in CSV_HEADER if k not in ("kind", "site")):
            fail(errors, path, f"{where}: ids, times and detail must be integers")
            continue
        if rec["kind"] not in KINDS:
            fail(errors, path, f"{where}: kind {rec['kind']!r} is not a SpanKind name")
        if rec["closed"] not in ("0", "1"):
            fail(errors, path, f"{where}: closed must be 0 or 1")
        if (rec["parent_id"] == "-1") != (rec["kind"] == "request"):
            fail(errors, path, f"{where}: parent_id -1 iff root 'request' span")
    if len(errors) == before:
        print(f"OK: {path}: {len(rows) - 1} spans")


def main() -> int:
    args = sys.argv[1:]
    csv_files = allow_empty = False
    while args and args[0] in ("--csv", "--allow-empty"):
        csv_files |= args[0] == "--csv"
        allow_empty |= args[0] == "--allow-empty"
        args = args[1:]
    if not args:
        print(__doc__)
        return 2
    errors = []
    for path in args:
        if csv_files:
            validate_csv(path, errors)  # a header-only CSV is always valid
        else:
            validate(path, errors, allow_empty)
    for e in errors:
        print(f"INVALID: {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
