"""Streaming reader for MediaWiki pages-articles XML dumps.

Pages are yielded one at a time; memory stays bounded by the largest
single page regardless of dump size.  A plain-XML dump can also be read
in shards, byte ranges that each start at a ``<page>`` tag
(``shard_spans``), so ingest streams every shard in its own worker
process, at most one per CPU in the affinity mask, and the bound holds
per shard worker.  Plain XML, gzip and bz2 inputs are auto-detected
from magic bytes; a compressed dump is always read whole.

One decoder reads a finished ``<page>`` element, both for dumps and for
the per-person files that ingest writes (``parse_page``), so they share
one set of field rules and one set of errors; a dump's error adds its
path and last complete page, and a person file's caller names the file.
"""

from __future__ import annotations

import bz2
import gzip
import os
import xml.etree.ElementTree as etree
import zlib
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import DumpFormatError, DumpParseError, DumpTruncatedError

_GZIP_MAGIC = b"\x1f\x8b"
_BZ2_MAGIC = b"BZh"
# zstd / lzma / 7z signatures we recognize but do not decompress
_KNOWN_OTHER = {b"\x28\xb5\x2f\xfd": "zstd", b"\xfd7zX": "xz", b"7z\xbc\xaf": "7z"}

MAX_REDIRECT_HOPS = 16  # longer chains count as unresolvable

Span = tuple[int, int | None]  # (start, end) byte offsets; end None is end of file
WHOLE: Span = (0, None)
_PAGE_TAG = b"<page>"
_SCAN_SIZE = 64 * 1024  # bytes read at a time while looking for a cut


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


def stream_pages(source: DumpSource, span: Span = WHOLE) -> Iterator[WikiPage]:
    """Yield every page of the dump exactly once, in dump order.

    Raises DumpParseError on malformed XML (with byte offset and the last
    page title parsed) or corrupt gzip or bz2 data, and
    DumpTruncatedError when the XML or the compressed stream ends early;
    pages parsed before the failure are yielded first.

    With a span (start, end) from ``shard_spans`` other than WHOLE, only
    the pages in bytes [start, end) of a plain-XML dump are yielded (end
    None: to the end of the file).  The bytes before the dump's first
    ``<page>`` are parsed first, and a span that ends before the file
    does must end between pages; otherwise the shard fails with one of
    the two errors, and only a whole-dump read says what is wrong.
    """
    stream = _open_dump(source.path) if span == WHOLE else _ShardReader(source.path, span)
    try:
        yield from _iter_pages(stream, source)
    finally:
        stream.close()


def _iter_pages(stream: IO[bytes], source: DumpSource) -> Iterator[WikiPage]:
    last_title: str | None = None
    root = None  # the <mediawiki> element; every finished page is cleared out of it
    parser = etree.iterparse(stream, events=("start", "end"))
    while True:
        try:
            event, elem = next(parser)
        except StopIteration:
            return
        except etree.ParseError as exc:
            if "no element found" in str(exc) or "unclosed token" in str(exc):
                raise DumpTruncatedError(
                    f"{source.path}: dump truncated at byte {stream.tell()}"
                    f" (last complete page: {last_title!r})"
                ) from exc
            raise DumpParseError(
                f"{source.path}: malformed XML at byte {stream.tell()}: {exc}"
                f" (last complete page: {last_title!r})"
            ) from exc
        # a gzip or bz2 stream that is cut short or damaged
        except EOFError as exc:
            raise DumpTruncatedError(
                f"{source.path}: compressed dump truncated: {exc}"
                f" (last complete page: {last_title!r})"
            ) from exc
        except (OSError, zlib.error) as exc:
            raise DumpParseError(
                f"{source.path}: corrupt compressed dump: {exc}"
                f" (last complete page: {last_title!r})"
            ) from exc

        if root is None:
            root = elem
        elif event == "end" and _localname(elem.tag) == "page":
            try:
                page = _read_page(elem, source.lang)
            except DumpParseError as exc:
                raise DumpParseError(
                    f"{source.path}: {exc} (last complete page: {last_title!r})"
                ) from None
            last_title = page.title
            yield page
            root.clear()


def parse_page(text: str, lang: str) -> WikiPage:
    """Decode one ``<page>`` document, such as a person file, as a dump
    page of lang.  Its errors name no file: the caller knows which one
    it read."""
    try:
        elem = etree.fromstring(text)
    except etree.ParseError as exc:
        raise DumpParseError(f"malformed XML: {exc}") from exc
    return _read_page(elem, lang)


def _read_page(elem: etree.Element, lang: str) -> WikiPage:
    """The page's own <title>, <ns>, first <id> and <redirect title>, and
    the <text> of its last <revision>, each matched by local name; a
    missing <ns> is 0, a missing <id> is -1.  A title holding a tab or a
    line break, which MediaWiki forbids and a TSV row cannot carry, is a
    DumpParseError.  A DumpParseError names the field but not the file."""
    children: dict[str, etree.Element] = {}
    for child in elem:
        tag = _localname(child.tag)
        if tag == "revision" or tag not in children:
            children[tag] = child
    fields = {tag: child.text or "" for tag, child in children.items()}
    for child in children.get("revision", ()):
        if _localname(child.tag) == "text":
            fields["text"] = child.text or ""
    title = _title(fields.get("title", ""), "title")
    redirect = children.get("redirect")
    return WikiPage(
        title=title,
        lang=lang,
        namespace=_integer(fields.get("ns") or "0", "ns"),
        redirect_target=(
            None if redirect is None
            else _title(redirect.get("title", ""), "redirect title", page=title)
        ),
        wikitext=fields.get("text", ""),
        page_id=_integer(fields.get("id", "-1"), "id"),
    )


def _title(text: str, field: str, page: str | None = None) -> str:
    """text, or if it holds a tab or a line break a DumpParseError that
    names the field, the value and the page's title if given."""
    if "\t" in text or "\n" in text or "\r" in text:
        where = "" if page is None else f" on page {page!r}"
        raise DumpParseError(f"page <{field}> holds a tab or line break: {text!r}{where}")
    return text


def _integer(text: str, field: str) -> int:
    """int(text), or a DumpParseError that names the field and the value."""
    try:
        return int(text)
    except ValueError:
        raise DumpParseError(f"page <{field}> is not an integer: {text!r}") from None


def shard_spans(path: str, n: int) -> list[Span]:
    """Split a plain-XML dump into at most n spans for ``stream_pages``.

    Cut k of n is the first ``<page>`` at or after byte size*k//n that
    lies past the dump's first ``<page>``; equal cuts count once.  The
    spans run from 0 to the first cut, between cuts, and from the last
    cut to the end (None).  A gzip or bz2 dump, or one whose pages are
    not spelled ``<page>``, is one span: [WHOLE].  A cut that lands
    inside a comment, CDATA section or processing instruction leaves its
    left shard unclosed, so that shard fails to parse.
    """
    with open(path, "rb") as fh:
        plain = fh.read(1) == b"<"
        first = _find_page_tag(fh, 0) if plain and n > 1 else None
        cuts: list[int] = []
        if first is not None:
            size = os.fstat(fh.fileno()).st_size
            for k in range(1, n):
                cut = _find_page_tag(fh, max(size * k // n, first + 1))
                if cut is None:
                    break
                if not cuts or cut > cuts[-1]:
                    cuts.append(cut)
    bounds = [0, *cuts, None]
    return list(zip(bounds, bounds[1:]))


def _find_page_tag(fh: IO[bytes], offset: int) -> int | None:
    """Offset of the first ``<page>`` at or after offset, or None; a tag
    that straddles two reads is found."""
    fh.seek(offset)
    carry = b""
    while chunk := fh.read(_SCAN_SIZE):
        data = carry + chunk
        at = data.find(_PAGE_TAG)
        if at >= 0:
            return offset - len(carry) + at
        carry = data[1 - len(_PAGE_TAG):]
        offset += len(chunk)
    return None


class _ShardReader:
    """One span of a plain-XML dump, read as a document of its own: the
    dump's prefix (the bytes before its first ``<page>``, which hold the
    root start tag and siteinfo) unless the span starts at 0, then the
    span's bytes, then the root's end tag unless the span runs to the
    end of the file.  ``tell`` is the offset in the dump file."""

    def __init__(self, path: str, span: Span):
        start, end = span
        with open(path, "rb") as fh:
            first = _find_page_tag(fh, 0)
            if first is None:
                raise DumpParseError(f"{path}: no <page> to start shard {span} at")
            fh.seek(0)
            prefix = fh.read(first)
        self._head = prefix if start > 0 else b""
        self._tail = b"" if end is None else _end_tag(prefix, path)
        self._left = None if end is None else end - start
        self._file = open(path, "rb")
        self._file.seek(start)

    def read(self, size: int) -> bytes:
        if self._head:
            data, self._head = self._head[:size], self._head[size:]
            return data
        if self._left is None:
            return self._file.read(size)
        if self._left:
            data = self._file.read(min(size, self._left))
            self._left -= len(data)
            if data:
                return data
        data, self._tail = self._tail[:size], self._tail[size:]
        return data

    def tell(self) -> int:
        return self._file.tell()

    def close(self) -> None:
        self._file.close()


def _end_tag(prefix: bytes, path: str) -> bytes:
    """The end tag that closes the root element opened in prefix."""
    parser = etree.XMLPullParser(events=("start",))
    parser.feed(prefix)
    try:
        for _event, root in parser.read_events():
            return f"</{_localname(root.tag)}>".encode()
    except etree.ParseError as exc:
        raise DumpParseError(f"{path}: malformed XML before the first <page>: {exc}") from exc
    raise DumpParseError(f"{path}: no root element before the first <page>")


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
