"""Run-log and artifact I/O: JSONL logs with a schema version, atomic writes.

All file outputs go through temp-file + rename so an interrupted run never
leaves a half-written artifact.  Log records are JSON objects with a
``schema_version`` and ``type`` field; see README for the record types.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile

SCHEMA_VERSION = 1


def record_of(obj, *drop: str) -> dict:
    """A dataclass instance's fields by name, but those in ``drop``, with each
    enum as its value.  Shallow: a nested dataclass is the caller's to convert."""
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in vars(obj).items() if k not in drop}


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def atomic_write(path: str, text: str) -> None:
    """Write via temp + rename in the destination directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: str, records: list[dict]) -> None:
    lines = []
    for rec in records:
        rec = dict(rec)
        rec.setdefault("schema_version", SCHEMA_VERSION)
        lines.append(dumps(rec))
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    atomic_write(path, buf.getvalue())


def read_jsonl(path: str) -> tuple[list[dict], int]:
    """Parse a JSONL file; corrupt lines (not UTF-8, not JSON, or nested too
    deep to decode), and lines that are not JSON objects, are skipped and
    counted."""
    records: list[dict] = []
    skipped = 0
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            # UnicodeDecodeError, JSONDecodeError, an over-long integer, too deep a nesting
            except (ValueError, RecursionError):
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped
