"""Streaming reader for MediaWiki pages-articles XML dumps.

Pages are yielded one at a time; memory stays bounded by the largest
single page regardless of dump size.  Ingest streams each language in
its own worker process, at most one per CPU in the affinity mask, so
the bound holds per worker.  Plain XML, gzip and bz2 inputs are
auto-detected from magic bytes.
"""

from __future__ import annotations

import bz2
import gzip
import io
import xml.etree.ElementTree as etree
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import DumpFormatError, DumpParseError, DumpTruncatedError

_GZIP_MAGIC = b"\x1f\x8b"
_BZ2_MAGIC = b"BZh"
# zstd / lzma / 7z signatures we recognize but do not decompress
_KNOWN_OTHER = {b"\x28\xb5\x2f\xfd": "zstd", b"\xfd7zX": "xz", b"7z\xbc\xaf": "7z"}

MAX_REDIRECT_HOPS = 16  # longer chains count as unresolvable


@dataclass(frozen=True)
class WikiPage:
    """One page element from a dump, in normalized form."""

    title: str
    lang: str
    namespace: int
    redirect_target: str | None
    wikitext: str
    page_id: int

    @property
    def is_redirect(self) -> bool:
        return self.redirect_target is not None


@dataclass(frozen=True)
class DumpSource:
    """A dump file plus the provenance carried into every downstream record."""

    path: str
    lang: str


def _open_dump(path: str) -> IO[bytes]:
    with open(path, "rb") as probe:
        head = probe.read(6)
    if head.startswith(_GZIP_MAGIC):
        return gzip.open(path, "rb")
    if head.startswith(_BZ2_MAGIC):
        return bz2.open(path, "rb")
    for magic, name in _KNOWN_OTHER.items():
        if head.startswith(magic):
            raise DumpFormatError(
                f"{path}: {name}-compressed dumps are not supported; "
                "recompress as gzip or bz2, or decompress to plain XML"
            )
    if head.lstrip()[:1] not in (b"<", b""):
        raise DumpFormatError(
            f"{path}: not XML and no recognized compression magic "
            "(supported: plain XML, gzip, bz2)"
        )
    return open(path, "rb")


def _localname(tag: str) -> str:
    # dump tags carry the export-schema namespace URI
    return tag.rsplit("}", 1)[-1]


def stream_pages(source: DumpSource) -> Iterator[WikiPage]:
    """Yield every page of the dump exactly once, in dump order.

    Raises DumpParseError on malformed XML (with byte offset and the last
    page title parsed) and DumpTruncatedError when the stream ends inside
    the document; pages parsed before the failure are yielded first.
    """
    stream = _open_dump(source.path)
    try:
        yield from _iter_pages(stream, source)
    finally:
        stream.close()


def _iter_pages(stream: IO[bytes], source: DumpSource) -> Iterator[WikiPage]:
    last_title: str | None = None
    title = ""
    page_id = -1
    ns = 0
    redirect: str | None = None
    text = ""
    in_revision = False

    root = None  # the <mediawiki> element; every finished page is cleared out of it
    parser = etree.iterparse(stream, events=("start", "end"))
    while True:
        try:
            event, elem = next(parser)
        except StopIteration:
            return
        except etree.ParseError as exc:
            offset = _byte_offset(stream, exc)
            if "no element found" in str(exc) or "unclosed token" in str(exc):
                raise DumpTruncatedError(
                    f"{source.path}: dump truncated at byte {offset}"
                    f" (last complete page: {last_title!r})"
                ) from exc
            raise DumpParseError(
                f"{source.path}: malformed XML at byte {offset}: {exc}"
                f" (last complete page: {last_title!r})"
            ) from exc

        tag = _localname(elem.tag)
        if event == "start":
            if root is None:
                root = elem
            if tag == "page":
                title, page_id, ns, redirect, text = "", -1, 0, None, ""
                in_revision = False
            elif tag == "revision":
                in_revision = True
            continue

        if tag == "title":
            title = elem.text or ""
        elif tag == "ns":
            ns = int(elem.text or 0)
        elif tag == "id" and not in_revision and page_id < 0:
            page_id = int(elem.text)
        elif tag == "redirect":
            redirect = elem.attrib.get("title", "")
        elif tag == "text":
            text = elem.text or ""
        elif tag == "revision":
            in_revision = False
        elif tag == "page":
            last_title = title
            yield WikiPage(
                title=title,
                lang=source.lang,
                namespace=ns,
                redirect_target=redirect,
                wikitext=text,
                page_id=page_id,
            )
            root.clear()


def _byte_offset(stream: IO[bytes], exc: etree.ParseError) -> int | str:
    try:
        return stream.tell()
    except (OSError, io.UnsupportedOperation):
        return f"line {exc.position[0]}"


def collect_redirects(
    redirects: Iterable[tuple[str, str]],
) -> tuple[dict[str, str], set[str]]:
    """Resolve redirect titles to their final non-redirect target.

    redirects holds one (title, redirect target) pair per redirect page.
    Returns (mapping, unresolvable).  The mapping is the transitive
    closure; titles on a redirect cycle or on chains longer than
    MAX_REDIRECT_HOPS are reported in the unresolvable set and kept out of the
    mapping.
    """
    direct = dict(redirects)

    resolved: dict[str, str] = {}
    unresolvable: set[str] = set()
    for start in direct:
        seen = [start]
        current = start
        for _ in range(MAX_REDIRECT_HOPS):
            current = direct[current]
            if current not in direct:
                resolved[start] = current
                break
            if current in seen:
                unresolvable.update(seen)
                break
            seen.append(current)
        else:
            unresolvable.add(start)
    return resolved, unresolvable
