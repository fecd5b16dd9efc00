"""Deterministic run artifacts: config hashing, atomic CSV/JSON writers.

Output files never embed timestamps or wall-clock data, so rerunning a
command with the same configuration and seed reproduces every artifact
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "2"


def config_hash(text: str) -> str:
    """Short stable identifier of a serialized configuration."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def format_value(value) -> str:
    """One CSV cell: 17 significant digits for floats, plain text else."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def atomic_write(path: str | Path, text: str) -> None:
    """Write through a sibling temp file and rename, so a crash mid-write
    never leaves a truncated artifact behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _header_lines(cfg_hash: str) -> list[str]:
    return [f"# config = {cfg_hash}",
            f"# artifact_version = {ARTIFACT_VERSION}"]


def write_csv(path: str | Path, columns: Sequence[str],
              rows: Sequence[Sequence], cfg_hash: str) -> None:
    """Comment-prefixed metadata header, fixed column order, one row per
    record, each a sequence aligned with `columns`."""
    lines = _header_lines(cfg_hash)
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row of width {len(row)} against "
                             f"{len(columns)} columns")
        lines.append(",".join(format_value(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, payload: Mapping, cfg_hash: str) -> None:
    """Nested records (traces, per-step reports) under the same metadata."""
    document = {"config": cfg_hash, "artifact_version": ARTIFACT_VERSION}
    document.update(payload)
    text = json.dumps(document, indent=2, sort_keys=True)
    atomic_write(path, text + "\n")


def read_table(path: str | Path) -> list[dict]:
    """Read back a metadata-headed CSV as a list of per-row dicts with
    float-converted cells (non-numeric cells stay strings)."""
    rows: list[dict] = []
    columns: list[str] | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            continue
        cells = line.split(",")
        record: dict = {}
        for name, cell in zip(columns, cells):
            try:
                record[name] = float(cell)
            except ValueError:
                record[name] = cell
        rows.append(record)
    return rows
