"""Streaming CSV output, hashed as it is written.

Each row is formatted by one bytes `%` of a row format such as
`b"%d,%.17g\\n"`, so every real is written as `format(x, ".17g")` would
write it.  Rows are joined into blocks of at most BLOCK_ROWS, which bounds
the memory a long file costs, and every block goes both to the file and
into its sha256, so a digest never needs the file read back.
"""
from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable

# Rows per written block: 1024 rows of the classical CSV are about 70 kB.
BLOCK_ROWS = 1024


def write_csv(path, header: bytes, row_format: bytes, rows: Iterable[tuple]) -> str:
    """Write `header`, then `row_format % row` for each row; return the sha256 hex digest."""
    digest = hashlib.sha256()
    rows = iter(rows)
    with open(path, "wb") as fh:
        block = header
        while block:
            fh.write(block)
            digest.update(block)
            block = b"".join(map(row_format.__mod__, itertools.islice(rows, BLOCK_ROWS)))
    return digest.hexdigest()
