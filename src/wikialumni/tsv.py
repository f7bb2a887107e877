"""The one reader and writer for the pipeline's tab-separated files.

Every TSV the pipeline reads or writes follows the same conventions: an
optional header row naming the columns, '#' comment lines for
provenance, no quoting, one record per line, every line ending in '\\n'.
Artifacts are written, whole or as a stream (``atomic_writer``), to a
sibling '<name>.tmp' that is then renamed over the target, so a run
killed mid-write leaves the previous file intact instead of a truncated
one that the next stage would read.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """An open text file that becomes path: what is written goes to a
    sibling '<name>.tmp', which is renamed over path on a clean exit and
    removed on an error.  No fsync (kill safety, not power-loss
    durability)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Replace path with text in one rename."""
    with atomic_writer(path) as fh:
        fh.write(text)
    return Path(path)


def tsv_line(fields: Iterable[str]) -> str:
    """One row as a line, with its line end."""
    return "\t".join(fields) + "\n"


def write_tsv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    comments: Iterable[str] = (),
) -> Path:
    """Write comment lines, then the header row (if any), then the rows.

    With no lines at all the file is empty (0 bytes).
    """
    with atomic_writer(path) as fh:
        fh.writelines(line + "\n" for line in comments)
        if header:
            fh.write(tsv_line(header))
        fh.writelines(map(tsv_line, rows))
    return Path(path)


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
