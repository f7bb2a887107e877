"""The one reader and writer for the pipeline's tab-separated files.

Every TSV the pipeline reads or writes follows the same conventions: an
optional header row naming the columns, '#' comment lines for
provenance, no quoting, one record per line, every line ending in '\\n'.
Artifacts are written to a sibling '<name>.tmp' that is then renamed
over the target, so a run killed mid-write leaves the previous file
intact instead of a truncated one that the next stage would read.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, Sequence


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Replace path with text in one rename; no fsync (kill safety, not
    power-loss durability)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_tsv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    comments: Iterable[str] = (),
) -> Path:
    """Write comment lines, then the header row (if any), then the rows.

    With no lines at all the file is empty (0 bytes).
    """
    lines = list(comments)
    if header:
        lines.append("\t".join(header))
    lines.extend("\t".join(row) for row in rows)
    return write_text_atomic(path, "".join(line + "\n" for line in lines))


def read_tsv(
    path: str | Path,
    headers: Sequence[list[str]] | None = None,
    n_cols: int | None = None,
    error: type[Exception] = ValueError,
    parse: Callable[[list[str]], object] = lambda fields: fields,
) -> tuple[list[str] | None, list]:
    """Read a TSV file into (header, rows), skipping blank and '#' lines.

    With headers (a list of header rows), the first row must equal one
    of them; it is returned as header and fixes the column count.
    Otherwise header is None and n_cols, if given, fixes it.  Each row is
    parse(fields).  A mismatch, or a ValueError from parse, raises error
    with path:lineno; a file that is not UTF-8 raises error with path.
    """
    path = Path(path)
    header: list[str] | None = None
    rows: list[list[str]] = []
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if headers is not None and header is None:
                    if fields not in headers:
                        raise error(
                            f"{path}:{lineno}: expected a header in {headers}, got {fields}"
                        )
                    header = fields
                    n_cols = len(fields)
                elif n_cols is not None and len(fields) != n_cols:
                    raise error(f"{path}:{lineno}: expected {n_cols} columns, got {len(fields)}")
                else:
                    try:
                        rows.append(parse(fields))
                    except ValueError as exc:
                        raise error(f"{path}:{lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
    if headers is not None and header is None:
        raise error(f"{path}: no header row; expected one of {headers}")
    return header, rows
