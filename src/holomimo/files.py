"""Reading input files: the config, CDL tables, pattern and S-parameter
files.

This is the one place that opens and parses an input file.  Every way a
file can fail (unreadable, not UTF-8, a CSV fault such as a field past the
csv module's size limit, malformed JSON or numbers, JSON nested past the
recursion limit) raises the caller's error class with the path, and a
table row's fault also names its line.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import EmptyFile

__all__ = ["read_json", "read_table"]


def _read_text(path, error) -> str:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, NUL in path
        raise error(f"cannot read {path}: {exc}") from exc


def read_json(path, error):
    """The JSON document in the UTF-8 file ``path``."""
    text = _read_text(path, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


def read_table(path, columns, parse, error) -> list:
    """``parse`` of each row of the UTF-8 CSV table ``path``, in file order.

    The header must be ``columns`` (names stripped of surrounding space),
    blank rows are skipped, and every other row must have one field per
    column.  A ``ValueError`` from ``parse`` becomes ``error`` with the
    row's line; a file without a header or without rows raises ``EmptyFile``.
    """
    reader = csv.reader(io.StringIO(_read_text(path, error), newline=""))
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path}: file is empty")
        if [h.strip() for h in header] != columns:
            raise error(f"{path}: expected header {','.join(columns)}")
        for rec in reader:
            if len(rec) == len(columns):
                rows.append(parse(rec))
            elif rec:
                raise error(f"{path}:{reader.line_num}: wrong column count")
    except (csv.Error, ValueError) as exc:
        raise error(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return rows
