"""Per-column drift between two CSV files with the same header.

    python tools/drift.py A.csv B.csv

Prints one line per column: the largest |a - b| over the rows for a
numeric column (0 when every value is equal, NaN equal to NaN), or the
number of rows that differ for a text column. Exits 1 when the headers or
the row counts differ, 2 on a wrong argument count and 0 otherwise; drift
itself never fails the command.
"""

from __future__ import annotations

import csv
import math
import sys


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file, as strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _number(text: str) -> float | None:
    try:
        return float(text) if text else None
    except ValueError:
        return None


def column_drift(a: list[list[str]], b: list[list[str]], column: int) -> tuple[str, float]:
    """``("max_abs", d)`` for a column of numbers and blanks in both files, else ``("rows_differ", count)``.

    A blank in one file against a number in the other, or NaN against a
    number, is an infinite drift.
    """
    pairs = [(ra[column], rb[column]) for ra, rb in zip(a, b)]
    numeric = all(not cell or _number(cell) is not None for pair in pairs for cell in pair)
    if not numeric:
        return "rows_differ", sum(x != y for x, y in pairs)
    largest = 0.0
    for x, y in pairs:
        u, v = _number(x), _number(y)
        if u is None or v is None:
            diff = 0.0 if u is v else math.inf
        elif math.isnan(u) or math.isnan(v):
            diff = 0.0 if math.isnan(u) and math.isnan(v) else math.inf
        else:
            diff = abs(u - v)
        largest = max(largest, diff)
    return "max_abs", largest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/drift.py A.csv B.csv", file=sys.stderr)
        return 2
    (head_a, rows_a), (head_b, rows_b) = read_csv(argv[0]), read_csv(argv[1])
    if head_a != head_b or len(rows_a) != len(rows_b):
        print(f"not comparable: headers {head_a} / {head_b}, rows {len(rows_a)} / {len(rows_b)}")
        return 1
    for column, name in enumerate(head_a):
        kind, value = column_drift(rows_a, rows_b, column)
        print(f"{name}: {kind} {value:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
