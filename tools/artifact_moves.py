"""Largest relative moves between two artifact trees.

    python3 tools/artifact_moves.py A B

A and B are directories as tools/artifacts.sh writes them.  Every file that
is not byte-identical in both is reported, by its path relative to the trees:

- a CSV file (a header row, then rows compared by position): per column, the
  largest relative move |b - a| / max(|a|, |b|) over the rows whose cells are
  numbers on both sides;
- a JSON file: per numeric leaf, its key path with list indices written
  `[]`, so that the entries of one list share a line, the largest relative
  move over the leaves on that path;
- any other file: "differs".

Changes a relative move cannot express are flagged on lines of their own:
`rows` (a different row count, or list length), `kinds` (a different value
in a CSV column named `kind`, so that rows compared by position hold
different kinds of point), `text` (any other cell or leaf that is not a
number on both sides and changed, or a key present on one side only), and
`only in A` / `only in B` for a file in one tree alone.  The last line counts
the identical and the differing files.  Exits 0 when every file is
byte-identical, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def move(a, b):
    """|b - a| / max(|a|, |b|): 0 for equal values, nan included, and inf
    where exactly one side is nan."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def number(text):
    try:
        return float(text)
    except ValueError:
        return None


def csv_moves(a, b):
    """(moves per column, flags) of two CSV files."""
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    head = ra[0] if ra else []
    flags = []
    if (rb[0] if rb else []) != head:
        return {}, ["text: header differs"]
    if len(ra) != len(rb):
        flags.append(f"rows: {len(ra) - 1} -> {len(rb) - 1}")
    moves, changed = {}, {}
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for col, x, y in zip(head, row_a, row_b):
            nx, ny = number(x), number(y)
            if nx is not None and ny is not None:
                moves[col] = max(moves.get(col, 0.0), move(nx, ny))
            elif x != y:
                changed[col] = changed.get(col, 0) + 1
    for col, count in changed.items():
        flags.append(f"{'kinds' if col == 'kind' else 'text'}: {count} cells of {col}")
    return moves, flags


def leaves(node, path=""):
    """(key path, value) of every leaf of a JSON document, in document order;
    the path of a list entry ends in [index]."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from leaves(value, f"{path}[{k}]")
    else:
        yield path, node


def generic(path):
    """path with every list index written []."""
    out, depth = [], 0
    for c in path:
        if c == "[":
            depth += 1
            out.append("[]")
        elif c == "]":
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_moves(a, b):
    """(moves per generic leaf path, flags) of two JSON files."""
    la, lb = (dict(leaves(json.loads(p.read_text()))) for p in (a, b))
    moves, flags, text = {}, [], {}
    if len(la) != len(lb):
        flags.append(f"rows: {len(la)} -> {len(lb)} leaves")
    for path in list(la) + [p for p in lb if p not in la]:
        key = generic(path)
        x, y = la.get(path, KeyError), lb.get(path, KeyError)
        if is_number(x) and is_number(y):
            moves[key] = max(moves.get(key, 0.0), move(float(x), float(y)))
        elif x != y:
            text[key] = text.get(key, 0) + 1
    flags += [f"text: {count} leaves of {key}" for key, count in text.items()]
    return moves, flags


def main(argv):
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (Path(d) for d in argv)
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    same = differ = 0
    for rel in files:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {'A' if pa.is_file() else 'B'}")
            differ += 1
            continue
        if pa.read_bytes() == pb.read_bytes():
            same += 1
            continue
        differ += 1
        print(rel)
        if rel.suffix == ".csv":
            moves, flags = csv_moves(pa, pb)
        elif rel.suffix == ".json":
            moves, flags = json_moves(pa, pb)
        else:
            moves, flags = {}, ["differs"]
        width = max((len(k) for k in moves), default=0)
        for key, value in moves.items():
            print(f"  {key:<{width}}  {value:.2g}")
        for flag in flags:
            print(f"  {flag}")
    print(f"{same} files identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
