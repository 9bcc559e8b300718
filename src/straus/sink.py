"""One writer for every CSV, ledger and image output."""

from __future__ import annotations

from pathlib import Path
from typing import IO


def write_to(dest: str | Path | IO, data: str | bytes) -> None:
    """Write data to an open stream, or create the file at path dest."""
    if hasattr(dest, "write"):
        dest.write(data)
    elif isinstance(data, bytes):
        Path(dest).write_bytes(data)
    else:
        Path(dest).write_text(data)
