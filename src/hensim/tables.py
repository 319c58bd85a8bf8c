"""Flat-file emission and parsing for trajectories and grids.

Floats are printed with 17 significant digits so that parse(emit(x)) round-trips
bit-faithfully. None is encoded as an empty CSV field.
"""

from __future__ import annotations

import csv
import json


def format_float(v) -> str:
    return f"{float(v):.17g}"


def write_csv(path, header: list[str], rows) -> None:
    """Write a table; cells may be floats or None (emitted as empty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else format_float(v) for v in row])


def read_csv(path) -> tuple[list[str], dict[str, list[float | None]]]:
    """Parse a table written by write_csv; empty fields come back as None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: dict[str, list[float | None]] = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                columns[name].append(None if cell == "" else float(cell))
    return header, columns


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

