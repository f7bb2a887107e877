"""Streaming reader for MediaWiki pages-articles XML dumps.

Pages are yielded one at a time; memory stays bounded by the largest
single page regardless of dump size.  A plain-XML dump can also be read
in shards, byte ranges that each start at a ``<page>`` tag
(``shard_spans``), so ingest streams every shard in its own worker
process, at most one per CPU in the affinity mask, and the bound holds
per shard worker.  Plain XML, gzip and bz2 inputs are auto-detected
from magic bytes; plain XML may open with a UTF-8 or UTF-16 byte-order
mark.  A compressed dump is always read whole.

Pages are read straight from their bytes.  Each ``<page>…</page>`` that
a strict grammar of the export schema accepts is decoded by one regex
match, and only the five predefined entities and character references
are unescaped.  From the first page of another shape, or the first gap
between pages that is not whitespace, the rest of the stream goes to
one expat pull parser per stream, which has been fed the dump's prefix
(the bytes before its first ``<page>``); so does all of a stream whose
prefix has a DOCTYPE or another encoding.  So every dump gives the
pages and the error class that expat gives for the whole document.

One set of field rules (``_page``) builds every page, whether the
grammar decoded it, the parser did, or it is a per-person file that
ingest writes (``parse_page``), so they share one set of errors; a
dump's error adds its path and last complete page, and a person file's
caller names the file.
"""

from __future__ import annotations

import bz2
import codecs
import functools
import gzip
import os
import re
import xml.etree.ElementTree as etree
import zlib
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import DumpFormatError, DumpParseError, DumpTruncatedError

_GZIP_MAGIC = b"\x1f\x8b"
_BZ2_MAGIC = b"BZh"
# zstd / lzma / 7z signatures we recognize but do not decompress
_KNOWN_OTHER = {b"\x28\xb5\x2f\xfd": "zstd", b"\xfd7zX": "xz", b"7z\xbc\xaf": "7z"}
# byte-order marks that may open a plain-XML dump, which expat reads
_BOMS = {codecs.BOM_UTF8: "utf-8", codecs.BOM_UTF16_LE: "utf-16-le",
         codecs.BOM_UTF16_BE: "utf-16-be"}

MAX_REDIRECT_HOPS = 16  # longer chains count as unresolvable

Span = tuple[int, int | None]  # (start, end) byte offsets; end None is end of file
WHOLE: Span = (0, None)
_PAGE_TAG = b"<page>"
_PAGE_END = b"</page>"
_XML_SPACE = b" \t\r\n"
# bytes read at a time, to find a cut or to stream pages; iterparse's
# size, small enough that a gzip read which hits a damaged end loses
# only the pages of that read
_SCAN_SIZE = 16 * 1024
_PREFIX_MAX = 1 << 20  # a dump whose first <page> lies further in is parsed by expat alone


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
    for bom, encoding in _BOMS.items():
        if head.startswith(bom):
            head = head[len(bom):].decode(encoding, "ignore").encode()
            break
    if head.lstrip()[:1] not in (b"<", b""):
        raise DumpFormatError(
            f"{path}: not XML and no recognized compression magic "
            "(supported: plain XML, gzip, bz2)"
        )
    return open(path, "rb")


def _localname(tag: str) -> str:
    # dump tags carry the export-schema namespace URI
    return tag.rsplit("}", 1)[-1]


# -- the export grammar of one page.  Its character data is any run
# without "<"; _plain_bytes checks XML's other rules on the whole page,
# so a page is matched, or rejected, in linear time.
_S = r"[ \t\r\n]*"
_NAME = r"[A-Za-z_][A-Za-z0-9_.-]*"
_TEXT = r"[^<]*"
# XML reads a tab or a line break in an attribute value as a space; with
# no ">" in a value, each tag holds one ">" (see _plain_bytes)
_VALUE = r"\"[^\"<>\t\n]*\"|'[^'<>\t\n]*'"


def _attributes(*names: str) -> str:
    """The attributes of a start tag that exports write, each optional,
    in the order they write them; a tag with any other list is left to
    expat."""
    return "".join(rf"(?:[ \t\r\n]+{name}{_S}={_S}(?:{_VALUE}))?" for name in names)


def _children(n: int) -> str:
    """Children of <revision> but <text>, each of character data or of
    elements of character data (<contributor>); n keeps group names apart."""
    return (
        rf"(?:{_S}<(?P<child{n}>(?!text[ \t\r\n/>]){_NAME}){_attributes('deleted')}{_S}"
        rf"(?:/>|>(?:{_TEXT}|(?:{_S}<(?P<field{n}>{_NAME}){_S}>{_TEXT}</(?P=field{n}){_S}>)+"
        rf"{_S})</(?P=child{n}){_S}>))*"
    )


@functools.cache
def _page_grammar() -> re.Pattern[str]:
    """The grammar of one page, compiled on first use, so that a stage
    that reads no dump does not pay for it at import."""
    return re.compile(
        rf"<page>{_S}<title>(?P<title>{_TEXT})</title>{_S}<ns>(?P<ns>-?[0-9]+)</ns>"
        rf"{_S}<id>(?P<id>[0-9]+)</id>"
        rf"(?:{_S}<redirect[ \t\r\n]+title{_S}={_S}(?P<redirect>{_VALUE}){_S}/>)?"
        rf"(?:{_S}(?P<revision><revision>{_children(1)}"
        rf"(?:{_S}<text{_attributes('bytes', 'sha1', 'xml:space', 'deleted')}{_S}"
        rf"(?:/>|>(?P<text>{_TEXT})</text{_S}>){_children(2)})?{_S}</revision>))+{_S}</page>"
    )


# the C0 controls but tab and LF; a CR is one, as XML reads it as a LF
_CONTROLS = bytes(range(0x20)).replace(b"\t", b"").replace(b"\n", b"")
_NAMED_REFS = (b"&amp;", b"&lt;", b"&gt;", b"&quot;", b"&apos;")
_NUMERIC_REF = re.compile(rb"&#([0-9]+|x[0-9a-fA-F]+);")
_CHAR_REF = re.compile(r"&(?:amp|#([0-9]+)|#x([0-9a-fA-F]+));")

_ENCODING = re.compile(rb"<\?xml[ \t\r\n][^>]*?encoding[ \t\r\n]*=[ \t\r\n]*[\"']([^\"']*)")


def stream_pages(source: DumpSource, span: Span = WHOLE) -> Iterator[WikiPage]:
    """Yield every page of the dump exactly once, in dump order.

    Raises DumpParseError on malformed XML (with byte offset and the last
    page title parsed) or corrupt gzip or bz2 data, and
    DumpTruncatedError when the XML or the compressed stream ends early;
    pages parsed before the failure are yielded first.

    The dump is read 16 KiB at a time, and only its unconsumed bytes are
    kept.  Pages that the export grammar accepts are decoded from their
    bytes up to the first page or gap that it does not; the rest goes
    to an expat pull parser fed the dump's prefix first, so the pages
    and the error class are those of expat on the whole document (its
    line and column count only the bytes it saw).

    With a span (start, end) from ``shard_spans`` other than WHOLE, only
    the pages in bytes [start, end) of a plain-XML dump are yielded (end
    None: to the end of the file).  The parser is fed the dump's prefix
    first, and a span that ends before the file does must end between
    pages, where the root's end tag is fed; otherwise the shard fails
    with one of the two errors, and only a whole-dump read says what is
    wrong.
    """
    start, end = span
    with _open_dump(source.path) if span == WHOLE else open(source.path, "rb") as stream:
        head = b""
        if start:
            first = _find_page_tag(stream, 0)
            if first is None:
                raise DumpParseError(f"{source.path}: no <page> to start shard {span} at")
            stream.seek(0)
            head = stream.read(first)
            stream.seek(start)
        yield from _PageStream(stream, source, head, None if end is None else end - start)


class _PageStream:
    """The pages of one stream.  The buffer holds the bytes read but not
    yet consumed, after head (a shard's copy of the dump's prefix).  Pages
    the grammar accepts are decoded from it; from the first bytes that
    are neither such a page nor whitespace between pages, all bytes are
    fed to the parser."""

    def __init__(self, stream: IO[bytes], source: DumpSource, head: bytes, size: int | None):
        self.stream = stream
        self.source = source
        self.buf = bytearray(head)
        self.left = size  # bytes of the stream still to read; None: all of them
        self.parser = etree.XMLPullParser(events=("start", "end"))
        self.root: etree.Element | None = None  # every finished page is cleared out of it
        self.last_title: str | None = None

    def __iter__(self) -> Iterator[WikiPage]:
        path = self.source.path
        try:
            yield from self._pages()
        except etree.ParseError as exc:
            if "no element found" in str(exc) or "unclosed token" in str(exc):
                raise DumpTruncatedError(
                    f"{path}: dump truncated at byte {self.stream.tell()}"
                    f" (last complete page: {self.last_title!r})"
                ) from exc
            raise DumpParseError(
                f"{path}: malformed XML at byte {self.stream.tell()}: {exc}"
                f" (last complete page: {self.last_title!r})"
            ) from exc
        # a gzip or bz2 stream that is cut short or damaged
        except EOFError as exc:
            raise DumpTruncatedError(
                f"{path}: compressed dump truncated: {exc}"
                f" (last complete page: {self.last_title!r})"
            ) from exc
        except (OSError, zlib.error) as exc:
            raise DumpParseError(
                f"{path}: corrupt compressed dump: {exc}"
                f" (last complete page: {self.last_title!r})"
            ) from exc
        except DumpParseError as exc:
            raise DumpParseError(
                f"{path}: {exc} (last complete page: {self.last_title!r})"
            ) from None

    def _pages(self) -> Iterator[WikiPage]:
        buf = self.buf
        while (at := buf.find(_PAGE_TAG)) < 0 and len(buf) < _PREFIX_MAX and self._read():
            pass
        # a DOCTYPE's entities and defaults, or another encoding, would change pages
        prefix = buf[:max(at, 0)].removeprefix(codecs.BOM_UTF8)
        declared = _ENCODING.match(prefix)
        fast = (
            at >= 0 and b"<!DOCTYPE" not in prefix
            and (declared is None or declared[1].lower() == b"utf-8")
            and _between_pages(buf[:at])
        )
        yield from self._feed(max(at, 0))
        # the first gap or page that is not whitespace or in the grammar
        # sends the rest of the stream to expat
        while fast:
            at = buf.find(_PAGE_TAG)
            if at < 0:
                keep = max(0, len(buf) - len(_PAGE_TAG) + 1)  # a tag's head
                if buf[:keep].strip(_XML_SPACE) or not self._read():
                    break
                del buf[:keep]
                continue
            if buf[:at].strip(_XML_SPACE):
                break
            del buf[:at]
            end = self._find(_PAGE_END)
            if end < 0:
                break
            end += len(_PAGE_END)
            page = _fast_page(buf[:end], self.source.lang)
            if page is None:
                break
            del buf[:end]
            self.last_title = page.title
            yield page
        yield from self._feed(len(buf))
        while self._read():
            yield from self._feed(len(buf))
        if self.left is not None and self.root is not None:  # a span ends between pages
            self.parser.feed(f"</{_localname(self.root.tag)}>".encode())
        self.parser.close()
        yield from self._events()

    def _read(self) -> bool:
        """Append the stream's next read to the buffer; False at its end."""
        size = _SCAN_SIZE if self.left is None else min(_SCAN_SIZE, self.left)
        chunk = self.stream.read(size) if size else b""
        if self.left is not None:
            self.left -= len(chunk)
        self.buf += chunk
        return bool(chunk)

    def _find(self, tag: bytes) -> int:
        """Offset of tag in the buffer, reading on until it is there; -1
        if the input ends first."""
        start = 0
        while (at := self.buf.find(tag, start)) < 0:
            start = max(0, len(self.buf) - len(tag) + 1)
            if not self._read():
                return -1
        return at

    def _feed(self, size: int) -> Iterator[WikiPage]:
        """Feed the buffer's first size bytes to the parser; yield the
        pages that they finish."""
        self.parser.feed(self.buf[:size])
        del self.buf[:size]
        yield from self._events()

    def _events(self) -> Iterator[WikiPage]:
        for event, elem in self.parser.read_events():
            if self.root is None:
                self.root = elem
            elif event == "end" and _localname(elem.tag) == "page":
                page = _read_page(elem, self.source.lang)
                self.last_title = page.title
                yield page
                self.root.clear()


def _between_pages(prefix: bytearray) -> bool:
    """Whether expat, fed prefix, stands between tokens among the root's
    children, where a page may be read from its bytes: then, and only
    then, a ``<page>`` fed next opens a child of the root.  In a comment,
    CDATA section, processing instruction, tag or reference it is no
    event or an error."""
    probe = etree.XMLPullParser(events=("start", "end"))
    try:
        probe.feed(prefix)
        depth = sum(1 if event == "start" else -1 for event, _elem in probe.read_events())
        probe.feed(_PAGE_TAG)
        opened = [elem for _event, elem in probe.read_events()]
    except etree.ParseError:
        return False
    return depth == 1 and len(opened) == 1 and _localname(opened[0].tag) == "page"


def _fast_page(piece: bytearray, lang: str) -> WikiPage | None:
    """The page that piece, one ``<page>…</page>``, holds, if the export
    grammar accepts it; else None."""
    try:
        page = piece.decode("utf-8")
        if not _plain_bytes(piece) or "\ufffe" in page or "\uffff" in page:
            return None
    except ValueError:  # not UTF-8, or a character reference too long for int
        return None
    match = _page_grammar().fullmatch(page)
    if match is None:
        return None
    redirect = match["redirect"]
    # _read_page reads the <text> of the last revision, "" if that is
    # empty or missing, where a repeated group keeps an earlier one
    text = match["text"] if match.start("text") > match.start("revision") else ""
    return _page(
        lang, _unescape(match["title"]), match["ns"], match["id"],
        None if redirect is None else _unescape(redirect[1:-1]), _unescape(text),
    )


def _plain_bytes(piece: bytearray) -> bool:
    """Whether piece, if the grammar accepts it, keeps the rules of XML
    that the grammar leaves out: no control character but tab and LF, no
    raw ">" outside a tag (so no ``]]>``), and every & starts a
    reference to an XML character."""
    if (
        len(piece.translate(None, _CONTROLS)) < len(piece)
        or piece.count(b">") != piece.count(b"<")  # one of each per tag
    ):
        return False
    amps = piece.count(b"&")
    if not amps:
        return True
    refs = sum(piece.count(ref) for ref in _NAMED_REFS)
    if b"&#" in piece:
        for ref in _NUMERIC_REF.finditer(piece):
            digits = ref[1]
            code = int(digits[1:], 16) if digits[:1] == b"x" else int(digits)
            if not (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
                    or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF):
                return False
            refs += 1
    return refs == amps


def _unescape(text: str) -> str:
    """Character data of a page that ``_plain_bytes`` accepted, its
    references replaced."""
    if "&" not in text:
        return text
    text = text.replace("&lt;", "<").replace("&gt;", ">")
    text = text.replace("&quot;", '"').replace("&apos;", "'")
    if "&#" not in text:
        return text.replace("&amp;", "&")
    return _CHAR_REF.sub(_char, text)


def _char(ref: re.Match) -> str:
    if ref[0] == "&amp;":
        return "&"
    return chr(int(ref[1]) if ref[1] else int(ref[2], 16))


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
    missing <ns> is 0, a missing <id> is -1."""
    children: dict[str, etree.Element] = {}
    for child in elem:
        tag = _localname(child.tag)
        if tag == "revision" or tag not in children:
            children[tag] = child
    fields = {tag: child.text or "" for tag, child in children.items()}
    for child in children.get("revision", ()):
        if _localname(child.tag) == "text":
            fields["text"] = child.text or ""
    redirect = children.get("redirect")
    return _page(
        lang,
        fields.get("title", ""),
        fields.get("ns") or "0",
        fields.get("id", "-1"),
        None if redirect is None else redirect.get("title", ""),
        fields.get("text", ""),
    )


def _page(
    lang: str, title: str, ns: str, page_id: str, redirect: str | None, text: str
) -> WikiPage:
    """A page from its fields as read.  A title holding a tab or a line
    break, which MediaWiki forbids and a TSV row cannot carry, is a
    DumpParseError, and so is an ns or id that is not an integer; it
    names the field but not the file."""
    title = _title(title, "title")
    return WikiPage(
        title=title,
        lang=lang,
        namespace=_integer(ns, "ns"),
        redirect_target=(
            None if redirect is None else _title(redirect, "redirect title", page=title)
        ),
        wikitext=text,
        page_id=_integer(page_id, "id"),
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

    A span is a plain byte range of the file.  Cut k of n is the first
    ``<page>`` at or after byte size*k//n that lies past the dump's first
    ``<page>``; equal cuts count once.  The spans run from 0 to the first
    cut, between cuts, and from the last cut to the end (None).  A gzip
    or bz2 dump, one that starts with a byte-order mark, or one whose
    pages are not spelled ``<page>``, is one span: [WHOLE].  A cut that
    lands inside a comment, CDATA section or processing instruction
    leaves its left shard unclosed, so that shard fails to parse.
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
