"""Artifact files: every JSON document and CSV table the package writes or
reads, and every spec file it reads, goes through this one module."""

from __future__ import annotations

import csv
import json


def write_json(path, doc, indent: int | None = 1, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


def json_list(value, kinds: tuple) -> bool:
    """Whether ``value`` is a JSON list of exactly the types ``kinds``: no coercion."""
    return isinstance(value, list) and all(type(v) in kinds for v in value)


def read_text(path, error: type[Exception], what: str) -> str:
    """The UTF-8 text in ``path``; ``error`` naming the ``what`` file when it
    cannot be read (missing, a directory, not UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise error(f"{what} file {path} cannot be read: {reason}") from None


def read_json(path, error: type[Exception], what: str):
    """The document in ``path``; ``error`` naming the ``what`` file when it
    cannot be read or is not valid JSON."""
    try:
        return json.loads(read_text(path, error, what))
    except json.JSONDecodeError as exc:
        raise error(f"{what} file {path} is not valid JSON: {exc}") from None


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
