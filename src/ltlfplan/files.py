"""Artifact files: every JSON document and CSV table the package writes or
reads goes through here, so their format lives in one module."""

from __future__ import annotations

import csv
import json


def write_json(path, doc, indent: int | None = 1, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


def read_json(path, error: type[Exception], what: str):
    """The document in ``path``; ``error`` naming the ``what`` file when it is
    not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{what} file {path} is not valid JSON: {exc}") from None


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
