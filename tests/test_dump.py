import bz2
import codecs
import gzip
import re
import time
import tracemalloc
import xml.etree.ElementTree as etree
from unittest import mock
from xml.sax.saxutils import escape

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wikialumni import dump
from wikialumni.dump import (
    WHOLE, DumpSource, WikiPage, collect_redirects, shard_spans, stream_pages
)
from wikialumni.errors import DumpFormatError, DumpParseError, DumpTruncatedError

from conftest import MW_NS, make_dump_xml, write_dump


def source(path, lang="en"):
    return DumpSource(path=str(path), lang=lang)


THREE_PAGES = [
    dict(title="Alpha", page_id=1, text="Alpha body."),
    dict(title="Beta", page_id=2, text="Beta body."),
    dict(title="Gamma", page_id=3, text="#REDIRECT [[Alpha]]", redirect="Alpha"),
]


def test_three_page_dump(tmp_path):
    path = write_dump(tmp_path, THREE_PAGES)
    pages = list(stream_pages(source(path)))
    assert [p.title for p in pages] == ["Alpha", "Beta", "Gamma"]
    assert [p.page_id for p in pages] == [1, 2, 3]
    assert pages[0].redirect_target is None
    assert pages[2].redirect_target == "Alpha"
    assert pages[0].wikitext == "Alpha body."
    assert all(p.lang == "en" for p in pages)


def test_empty_dump(tmp_path):
    path = write_dump(tmp_path, [])
    assert list(stream_pages(source(path))) == []


def test_namespace_field(tmp_path):
    path = write_dump(tmp_path, [dict(title="Talk:Alpha", page_id=9, ns=1)])
    (page,) = stream_pages(source(path))
    assert page.namespace == 1
    assert not page.is_redirect


# Two revisions, each with a contributor <id>, the second with a <parentid>.
HISTORY_PAGE = (
    "<page><title>Alpha</title><ns>0</ns><id>7</id>"
    "<revision><id>100</id><contributor><username>U</username><id>55</id></contributor>"
    "<text>first text.</text></revision>"
    "<revision><id>101</id><parentid>100</parentid><contributor><id>56</id></contributor>"
    "<text>last text.</text></revision></page>"
)


@pytest.mark.parametrize("namespaced", [True, False], ids=["namespaced", "plain"])
def test_page_decoder_reads_page_fields_and_the_last_revision(tmp_path, namespaced):
    xmlns = f' xmlns="{MW_NS}"' if namespaced else ""
    path = tmp_path / "dump.xml"
    path.write_text(f"<mediawiki{xmlns}>{HISTORY_PAGE}</mediawiki>", encoding="utf-8")
    expected = WikiPage(
        title="Alpha", lang="en", namespace=0, redirect_target=None, wikitext="last text.",
        page_id=7,
    )
    assert list(stream_pages(source(path))) == [expected]
    assert dump.parse_page(HISTORY_PAGE, "en") == expected


@pytest.mark.parametrize("compress", ["plain", "gzip", "bz2"])
def test_compression_autodetect(tmp_path, compress):
    raw = make_dump_xml(THREE_PAGES).encode("utf-8")
    path = tmp_path / "dump.bin"
    if compress == "gzip":
        path.write_bytes(gzip.compress(raw))
    elif compress == "bz2":
        path.write_bytes(bz2.compress(raw))
    else:
        path.write_bytes(raw)
    assert len(list(stream_pages(source(path)))) == 3


def test_unknown_compression_rejected(tmp_path):
    path = tmp_path / "dump.zst"
    path.write_bytes(b"\x28\xb5\x2f\xfd garbage")
    with pytest.raises(DumpFormatError, match="zstd"):
        list(stream_pages(source(path)))


def test_not_xml_rejected(tmp_path):
    path = tmp_path / "dump.txt"
    path.write_bytes(b"hello world")
    with pytest.raises(DumpFormatError):
        list(stream_pages(source(path)))


def test_thousand_page_roundtrip(tmp_path):
    # titles include characters that must round-trip through XML escaping
    titles = [f"Page {i} <&> '{i}'" for i in range(1000)]
    pages = [dict(title=t, page_id=i, text=f"body {i}.") for i, t in enumerate(titles)]
    path = write_dump(tmp_path, pages)
    got = [p.title for p in stream_pages(source(path))]
    assert got == titles


def test_completeness_against_text_scan(tmp_path):
    pages = [dict(title=f"P{i}", page_id=i) for i in range(57)]
    path = write_dump(tmp_path, pages)
    raw = path.read_text(encoding="utf-8")
    assert len(list(stream_pages(source(path)))) == len(re.findall(r"<page>", raw))


def test_idempotent_passes(tmp_path):
    path = write_dump(tmp_path, THREE_PAGES)
    assert list(stream_pages(source(path))) == list(stream_pages(source(path)))


def test_truncated_dump_yields_then_reports(tmp_path):
    raw = make_dump_xml(THREE_PAGES)
    cut = raw.index("<title>Gamma</title>")
    path = tmp_path / "trunc.xml"
    path.write_text(raw[:cut], encoding="utf-8")
    pages = []
    with pytest.raises(DumpTruncatedError, match="Beta"):
        for page in stream_pages(source(path)):
            pages.append(page)
    assert [p.title for p in pages] == ["Alpha", "Beta"]


def test_truncated_bz2_dump_yields_then_reports(tmp_path):
    pages = [dict(title=f"P{i}", page_id=i, text=f"body {i} " * 40) for i in range(2000)]
    # level 1 compresses 100 kB blocks, so the cut leaves whole blocks before it
    packed = bz2.compress(make_dump_xml(pages).encode("utf-8"), compresslevel=1)
    path = tmp_path / "trunc.xml.bz2"
    path.write_bytes(packed[: len(packed) // 2])
    titles = []
    with pytest.raises(DumpTruncatedError, match="compressed dump truncated") as failure:
        for page in stream_pages(source(path)):
            titles.append(page.title)
    assert 0 < len(titles) < 2000
    assert titles == [f"P{i}" for i in range(len(titles))]
    assert f"(last complete page: {titles[-1]!r})" in str(failure.value)


def test_truncated_gzip_dump_yields_then_reports(tmp_path):
    pages = [dict(title=f"P{i}", page_id=i, text=f"body {i} " * 20) for i in range(400)]
    packed = gzip.compress(make_dump_xml(pages).encode("utf-8"))
    path = tmp_path / "trunc.xml.gz"
    path.write_bytes(packed[: len(packed) // 2])
    titles = []
    with pytest.raises(DumpTruncatedError, match="compressed dump truncated") as failure:
        for page in stream_pages(source(path)):
            titles.append(page.title)
    assert 0 < len(titles) < 400
    assert titles == [f"P{i}" for i in range(len(titles))]
    assert f"(last complete page: {titles[-1]!r})" in str(failure.value)


@pytest.mark.parametrize(
    "compress",
    [gzip.compress, lambda data: bz2.compress(data, compresslevel=1)],
    ids=["gzip", "bz2"],
)
def test_compressed_dump_corrupted_mid_stream_reports_a_parse_error(tmp_path, compress):
    pages = [dict(title=f"P{i}", page_id=i, text=f"body {i} " * 40) for i in range(2000)]
    packed = compress(make_dump_xml(pages).encode("utf-8"))
    mid = len(packed) // 2
    path = tmp_path / "corrupt.xml.bin"
    flipped = bytes(b ^ 0xFF for b in packed[mid:mid + 8])
    path.write_bytes(packed[:mid] + flipped + packed[mid + 8:])
    titles = []
    with pytest.raises(DumpParseError) as failure:  # gzip may inflate the damage to bad XML
        for page in stream_pages(source(path)):
            titles.append(page.title)
    assert titles[:100] == [f"P{i}" for i in range(100)]
    assert f"(last complete page: {titles[-1]!r})" in str(failure.value)


def test_malformed_xml_reports_offset_and_last_title(tmp_path):
    raw = make_dump_xml(THREE_PAGES)
    bad = raw.replace("<id>3</id>", "<id>3</id></oops>")
    path = tmp_path / "bad.xml"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(DumpParseError, match="Beta"):
        list(stream_pages(source(path)))


def test_streaming_is_lazy(tmp_path):
    # grabbing the first page must not consume the rest of the stream
    pages = [dict(title=f"P{i}", page_id=i, text="x" * 1000) for i in range(500)]
    path = write_dump(tmp_path, pages)
    it = stream_pages(source(path))
    first = next(it)
    assert first.title == "P0"
    it.close()


def test_streaming_memory_bounded(tmp_path):
    body = "lorem ipsum " * 400  # ~5 KB per page
    pages = [dict(title=f"P{i}", page_id=i, text=body) for i in range(4000)]
    path = write_dump(tmp_path, pages)
    tracemalloc.start()
    count = 0
    for _ in stream_pages(source(path)):
        count += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 4000
    # dump is ~20 MB; a streaming parse should stay far below it
    assert peak < 5 * 1024 * 1024


def traced_low_points(tmp_path, n_pages, marks):
    """Stream an n-page dump under tracemalloc; for each mark, the least
    traced memory seen over the 256 pages before it (the parser's
    read-ahead of unconsumed pages varies from page to page)."""
    path = write_dump(tmp_path, [dict(title=f"P{i}", page_id=i, text="x") for i in range(n_pages)])
    lows = {}
    tracemalloc.start()
    for page in stream_pages(source(path)):
        for mark in marks:
            if mark - 256 <= page.page_id < mark:
                current, _ = tracemalloc.get_traced_memory()
                lows[mark] = min(lows.get(mark, current), current)
    tracemalloc.stop()
    return lows


def test_streaming_memory_does_not_grow_with_page_count(tmp_path):
    n = 2000
    lows = traced_low_points(tmp_path, 4 * n, [n, 4 * n])
    # a finished page that stays referenced costs about 80 B, so 3n kept pages ~ 480 KB
    assert lows[4 * n] - lows[n] < 3 * n * 16


def redirect_page(title, target, page_id):
    return dict(title=title, page_id=page_id, redirect=target, text=f"#REDIRECT [[{target}]]")


def redirects_of(tmp_path, page_dicts):
    path = write_dump(tmp_path, page_dicts)
    return [(p.title, p.redirect_target) for p in stream_pages(source(path)) if p.is_redirect]


def test_redirect_single_hop(tmp_path):
    redirects = redirects_of(tmp_path, [redirect_page("A", "B", 1), dict(title="B", page_id=2)])
    mapping, bad = collect_redirects(redirects)
    assert mapping == {"A": "B"}
    assert bad == set()


def test_redirect_transitive(tmp_path):
    redirects = redirects_of(
        tmp_path,
        [redirect_page("A", "B", 1), redirect_page("B", "C", 2), dict(title="C", page_id=3)],
    )
    mapping, bad = collect_redirects(redirects)
    assert mapping == {"A": "C", "B": "C"}
    assert bad == set()


def test_redirect_cycle(tmp_path):
    redirects = redirects_of(tmp_path, [redirect_page("A", "B", 1), redirect_page("B", "A", 2)])
    mapping, bad = collect_redirects(redirects)
    assert mapping == {}
    assert bad == {"A", "B"}


def test_redirect_chain_cap(tmp_path):
    chain = [redirect_page(f"T{i}", f"T{i+1}", i) for i in range(20)]
    chain.append(dict(title="T20", page_id=20))
    redirects = redirects_of(tmp_path, chain)
    mapping, bad = collect_redirects(redirects)
    # near-end titles resolve within the cap; early ones are reported
    assert "T19" in mapping and mapping["T19"] == "T20"
    assert "T0" in bad
    assert not set(mapping) & bad


# ----------------------------------------------------------------- shards

def shard_pages(path, n):
    return [p for span in shard_spans(str(path), n) for p in stream_pages(source(path), span)]


def check_cuts(raw, spans, n):
    """Spans tile the file from 0 to its end; cuts ascend, are distinct,
    each lands on <page>, and none falls inside the prefix."""
    assert 1 <= len(spans) <= n
    assert spans[0][0] == 0 and spans[-1][1] is None
    assert all(left[1] == right[0] for left, right in zip(spans, spans[1:]))
    cuts = [start for start, _end in spans[1:]]
    assert cuts == sorted(set(cuts))
    first = raw.find(b"<page>")
    assert all(raw[cut:cut + 6] == b"<page>" and cut > first for cut in cuts)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    texts=st.lists(st.text(alphabet="ab <>&]\n\u00e9", max_size=60), max_size=12),
    n=st.integers(1, 6),
    scan=st.integers(1, 40),
    namespaced=st.booleans(),
)
def test_shards_yield_the_whole_dump(tmp_path, monkeypatch, texts, n, scan, namespaced):
    pages = [dict(title=f"P{i}", page_id=i, text=t) for i, t in enumerate(texts)]
    path = write_dump(tmp_path, pages, namespaced=namespaced)
    monkeypatch.setattr(dump, "_SCAN_SIZE", scan)  # reads small enough to split tags
    spans = shard_spans(str(path), n)
    check_cuts(path.read_bytes(), spans, n)
    assert shard_pages(path, n) == list(stream_pages(source(path)))


def test_cut_straddling_a_read_edge_is_found(tmp_path, monkeypatch):
    pages = [dict(title=f"P{i}", page_id=i, text="x" * 50) for i in range(10)]
    path = write_dump(tmp_path, pages)
    raw = path.read_bytes()
    ((_, cut), _last) = spans = shard_spans(str(path), 2)
    check_cuts(raw, spans, 2)
    target = len(raw) // 2
    assert raw[cut:cut + 6] == b"<page>" and cut > target
    # the first read from the target ends three bytes into the tag
    monkeypatch.setattr(dump, "_SCAN_SIZE", cut - target + 3)
    assert shard_spans(str(path), 2) == [(0, cut), (cut, None)]


@pytest.mark.parametrize("compress", [gzip.compress, bz2.compress], ids=["gzip", "bz2"])
def test_compressed_dump_is_one_span(tmp_path, compress):
    pages = [dict(title=f"P{i}", page_id=i, text="<page> " * 20) for i in range(50)]
    path = tmp_path / "dump.bin"
    path.write_bytes(compress(make_dump_xml(pages).encode("utf-8")))
    assert shard_spans(str(path), 4) == [WHOLE]
    assert len(shard_pages(path, 4)) == 50


def test_prefixed_page_tags_are_one_span(tmp_path):
    raw = make_dump_xml(THREE_PAGES, namespaced=False)
    raw = raw.replace("<mediawiki>", '<mediawiki xmlns:mw="urn:x">')
    path = tmp_path / "dump.xml"
    path.write_text(raw.replace("<page>", "<mw:page>").replace("</page>", "</mw:page>"))
    assert shard_spans(str(path), 3) == [WHOLE]
    assert [p.title for p in shard_pages(path, 3)] == ["Alpha", "Beta", "Gamma"]


@pytest.mark.parametrize(
    "opener, closer",
    [("<!-- ", " <page> -->"), ("<![CDATA[", "<page>]]>"), ("<?pi ", " <page> ?>")],
    ids=["comment", "cdata", "pi"],
)
def test_cut_inside_markup_fails_its_left_shard(tmp_path, opener, closer):
    pages = [dict(title=f"P{i}", page_id=i, text="x" * 50) for i in range(10)]
    raw = make_dump_xml(pages)
    at = raw.index("<page><title>P5<")
    if opener == "<![CDATA[":  # character data: inside a page's text
        at = raw.index("</text>", at)
    hidden = opener + "y" * 4000 + closer  # the middle of the file falls in the padding
    path = tmp_path / "dump.xml"
    path.write_text(raw[:at] + hidden + raw[at:], encoding="utf-8")
    spans = shard_spans(str(path), 2)
    assert spans[1][0] == at + hidden.index("<page>")
    with pytest.raises((DumpParseError, DumpTruncatedError)):
        list(stream_pages(source(path), spans[0]))
    assert len(list(stream_pages(source(path)))) == 10


# ------------------------------------------------- byte reader and expat

def outcome(pages):
    """The pages an iterator yields, and the class of the dump error that
    ends it (None if it ends cleanly)."""
    got = []
    try:
        for page in pages:
            got.append(page)
    except (DumpParseError, DumpTruncatedError) as exc:
        return got, type(exc)
    return got, None


def expat_outcome(path, lang="en"):
    """outcome() of the whole document under the element-tree parser:
    every element named page, as it ends, read by the element decoder."""
    def pages():
        root = None
        try:
            for event, elem in etree.iterparse(str(path), events=("start", "end")):
                if root is None:
                    root = elem
                elif event == "end" and elem.tag.rsplit("}", 1)[-1] == "page":
                    yield dump._read_page(elem, lang)
                    root.clear()
        except etree.ParseError as exc:
            if "no element found" in str(exc) or "unclosed token" in str(exc):
                raise DumpTruncatedError(str(exc)) from exc
            raise DumpParseError(str(exc)) from exc
    return outcome(pages())


BASE_DUMP = make_dump_xml(THREE_PAGES)
BETA = "<title>Beta</title><ns>0</ns>"
BETA_TEXT = '<text xml:space="preserve">Beta body.'
GHOST = (
    "<page><title>Ghost</title><ns>0</ns><id>9</id><revision><text>boo</text></revision></page>"
)

# Each turns BASE_DUMP into a dump that the export grammar, or the byte
# reader's prefix and gap rules, must not accept.
FALLBACK_TRIGGERS = {
    "crlf_in_text": lambda raw: raw.replace("Beta body.", "Beta\r\nbody."),
    "tab_in_redirect_title": lambda raw: raw.replace('title="Alpha"', 'title="Al\tpha"'),
    "newline_in_redirect_title": lambda raw: raw.replace('title="Alpha"', 'title="Al\npha"'),
    "cdata_end_in_text": lambda raw: raw.replace("Beta body.", "Beta ]]> body."),
    "char_ref_to_nul": lambda raw: raw.replace("Beta body.", "Beta &#0; body."),
    "char_ref_to_surrogate": lambda raw: raw.replace("Beta body.", "Beta &#xD800; body."),
    "u_fffe_in_text": lambda raw: raw.replace("Beta body.", "Beta \ufffe body."),
    "repeated_attribute": lambda raw: raw.replace(
        BETA_TEXT, '<text xml:space="preserve" xml:space="preserve">Beta body.'
    ),
    "unbound_prefix": lambda raw: raw.replace(BETA_TEXT, "<x:note/>" + BETA_TEXT),
    "doctype_entity_used_in_a_page": lambda raw: raw.replace(
        "<mediawiki", '<!DOCTYPE mediawiki [<!ENTITY who "Bee">]><mediawiki'
    ).replace("Beta body.", "&who; body."),
    "iso_8859_1_declaration": lambda raw: raw.replace(
        'encoding="utf-8"', 'encoding="iso-8859-1"'
    ).replace("Beta body.", "Beta bédy.").encode("latin-1"),
    "comment_between_pages_holding_a_page": lambda raw: raw.replace(
        "<page><title>Beta", f"<!-- {GHOST} --><page><title>Beta"
    ),
    "junk_after_root": lambda raw: raw + "junk",
    "comment_after_root": lambda raw: raw + "<!-- end -->\n",
    "children_out_of_schema_order": lambda raw: raw.replace(BETA, "<ns>0</ns><title>Beta</title>"),
    "empty_ns": lambda raw: raw.replace(BETA, "<title>Beta</title><ns></ns>"),
    "two_texts_in_a_revision": lambda raw: raw.replace(
        "Beta body.</text>", "Beta body.</text><text />"
    ),
}


@pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS, ids=list(FALLBACK_TRIGGERS))
def test_fallback_reads_as_expat_does(tmp_path, trigger):
    raw = FALLBACK_TRIGGERS[trigger](BASE_DUMP)
    assert raw != BASE_DUMP
    path = tmp_path / "dump.xml"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
    assert outcome(stream_pages(source(path))) == expat_outcome(path)


def utf16_dump(raw, encoding):
    """raw, declared UTF-16 and encoded as encoding after its byte-order mark."""
    bom = codecs.BOM_UTF16_LE if encoding == "utf-16-le" else codecs.BOM_UTF16_BE
    return bom + raw.replace('encoding="utf-8"', 'encoding="utf-16"').encode(encoding)


BOM_DUMPS = {
    "utf-8": lambda raw: codecs.BOM_UTF8 + raw.encode("utf-8"),
    "utf-8-declared-in-capitals": lambda raw: codecs.BOM_UTF8
    + raw.replace('encoding="utf-8"', "encoding='UTF-8'").encode("utf-8"),
    "utf-16-le": lambda raw: utf16_dump(raw, "utf-16-le"),
    "utf-16-be": lambda raw: utf16_dump(raw, "utf-16-be"),
    # no mark, and no XML declaration, which only the first byte may start
    "newline-before-the-root": lambda raw: b"\n" + raw.split("?>", 1)[1].encode("utf-8"),
}


@pytest.mark.parametrize("bom", BOM_DUMPS, ids=list(BOM_DUMPS))
def test_dump_with_a_byte_order_mark_reads_as_expat_does(tmp_path, bom):
    path = tmp_path / "dump.xml"
    path.write_bytes(BOM_DUMPS[bom](BASE_DUMP))
    expected = expat_outcome(path)
    assert [p.title for p in expected[0]] == ["Alpha", "Beta", "Gamma"] and expected[1] is None
    assert outcome(stream_pages(source(path))) == expected
    if bom.startswith("utf-16"):  # no <page> bytes to cut at
        assert shard_spans(str(path), 4) == [WHOLE]
    else:
        assert len(shard_spans(str(path), 4)) > 1
        assert shard_pages(path, 4) == expected[0]


# Pages as a Wikimedia pages-articles export writes them.
REAL_EXPORT = """\
<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" \
xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" \
xsi:schemaLocation="http://www.mediawiki.org/xml/export-0.10/ \
http://www.mediawiki.org/xml/export-0.10.xsd" version="0.10" xml:lang="en">
  <siteinfo>
    <sitename>Wikipedia</sitename>
    <dbname>enwiki</dbname>
    <base>https://en.wikipedia.org/wiki/Main_Page</base>
    <generator>MediaWiki 1.32.0-wmf.19</generator>
    <case>first-letter</case>
    <namespaces>
      <namespace key="-2" case="first-letter">Media</namespace>
      <namespace key="0" case="first-letter" />
    </namespaces>
  </siteinfo>
  <page>
    <title>AccessibleComputing</title>
    <ns>0</ns>
    <id>10</id>
    <redirect title="Computer accessibility" />
    <revision>
      <id>854851586</id>
      <parentid>834079434</parentid>
      <timestamp>2018-08-14T06:47:24Z</timestamp>
      <contributor>
        <username>Godsy</username>
        <id>23257138</id>
      </contributor>
      <minor />
      <comment>remove from category for seeking instructions on rcats</comment>
      <model>wikitext</model>
      <format>text/x-wiki</format>
      <text bytes="94" xml:space="preserve">#REDIRECT [[Computer accessibility]]

{{R from move}}
{{R from CamelCase}}
{{R unprintworthy}}</text>
      <sha1>42l0cvblwtb4nnupxm6wo000d27t6kf</sha1>
    </revision>
  </page>
  <page>
    <title>Ada &amp; &quot;Babbage&quot;</title>
    <ns>0</ns>
    <id>12</id>
    <revision>
      <id>855000001</id>
      <timestamp>2018-08-20T10:00:00Z</timestamp>
      <contributor>
        <ip>192.0.2.7</ip>
      </contributor>
      <model>wikitext</model>
      <format>text/x-wiki</format>
      <text bytes="52" xml:space="preserve">&lt;ref&gt;Café&amp;nbsp;&#9731;&lt;/ref&gt; x &gt; y</text>
      <sha1>phoiac9h4m842xq45sp7s6u21eteeq1</sha1>
    </revision>
  </page>
</mediawiki>
"""


def test_real_and_generated_dumps_take_only_the_fast_path(tmp_path):
    real = tmp_path / "real.xml"
    real.write_text(REAL_EXPORT, encoding="utf-8")
    generated = write_dump(tmp_path, THREE_PAGES * 5, name="generated.xml")
    expected = {path: expat_outcome(path) for path in (real, generated)}
    with mock.patch.object(dump, "_read_page", side_effect=AssertionError("slow path")):
        assert outcome(stream_pages(source(real))) == expected[real]
        assert outcome(stream_pages(source(generated))) == expected[generated]
        assert shard_pages(generated, 3) == expected[generated][0]
    pages = expected[real][0]
    assert [p.redirect_target for p in pages] == ["Computer accessibility", None]
    assert pages[1].title == 'Ada & "Babbage"'
    assert pages[1].wikitext == "<ref>Café&nbsp;☃</ref> x > y"


@pytest.mark.parametrize(
    "damage",
    ["\x01", "> and", "</text></revision><bogus/><revision><text>"],
    ids=["control_character", "raw_gt", "late_markup"],
)
def test_a_page_that_fails_late_is_rejected_in_linear_time(tmp_path, damage):
    text = "&amp;" * 400_000 + damage + "end"  # about 2 MB, every & a reference
    raw = make_dump_xml([dict(title="Big", page_id=1, text="@")]).replace("@", text)
    assert_read_in_linear_time(tmp_path, raw)


@pytest.mark.parametrize(
    "closed, unclosed",
    [
        ("<!--c-->", "<!-- <page> "),
        ("<?pi x?>", "<?pi <page> "),
        ("<![CDATA[c]]>", "<![CDATA[<page>"),
    ],
    ids=["comment", "processing_instruction", "cdata"],
)
def test_a_prefix_of_many_constructs_then_an_unclosed_one_is_read_in_linear_time(
    tmp_path, closed, unclosed
):
    # each construct may end only at its first terminator; the unclosed
    # one holds the first <page>, so the prefix ends inside it
    raw = make_dump_xml(THREE_PAGES).replace("<page>", closed * 40 + unclosed + "<page>", 1)
    assert_read_in_linear_time(tmp_path, raw)


def assert_read_in_linear_time(tmp_path, raw):
    """stream_pages gives expat's outcome on raw within 5 s."""
    path = tmp_path / "dump.xml"
    path.write_text(raw, encoding="utf-8")
    started = time.monotonic()
    got = outcome(stream_pages(source(path)))
    assert time.monotonic() - started < 5
    assert got == expat_outcome(path)


# ----------------------------------------------- differential: fast vs expat

def revision_xml(text, shape):
    if shape == "real":
        return (
            "<revision><id>5</id><parentid>4</parentid><timestamp>2018-08-14T06:47:24Z"
            "</timestamp><contributor><username>U &amp; V</username><id>55</id></contributor>"
            "<minor /><comment>tidy</comment><model>wikitext</model><format>text/x-wiki</format>"
            f'<text bytes="{len(text)}" xml:space="preserve">{text}</text>'
            "<sha1>42l0cvblwtb4nnupxm6wo000d27t6kf</sha1></revision>"
        )
    if shape == "ip":
        return (
            "<revision><id>6</id><contributor><ip>192.0.2.1</ip></contributor>"
            f"<text>{text}</text>\n</revision>"
        )
    if shape == "two_texts":  # _read_page reads the last <text>
        return f"<revision><text>{text}</text><text /></revision>"
    if shape == "deleted":
        return (
            '<revision><id>7</id><contributor deleted="deleted" />'
            '<text deleted="deleted" /></revision>'
        )
    return f'<revision><id>1</id><text xml:space="preserve">{text}</text></revision>'


# Character data or markup dropped raw into a page: entities, character
# references, and every fallback trigger.
RAW_BITS = [
    "&amp;", "&lt;", "&quot;", "&apos;", "&#65;", "&#x263A;", "&#13;", "&#0;", "&#xD800;",
    "\r\n", "]]>", ">", "\ufffe", "\x01", "\t", "<!--c-->", "<![CDATA[<b>]]>", "&who;",
    "<x:y/>", '"',
]
char_data = st.lists(
    st.one_of(st.text(alphabet="ab <>&\"'\né€\U0001f600", max_size=8).map(escape),
              st.sampled_from(RAW_BITS)),
    max_size=4,
).map("".join)
pages_st = st.lists(
    st.fixed_dictionaries({
        "title": char_data,
        "ns": st.sampled_from(["0", "0", "1", "", "x"]),
        "redirect": st.none() | char_data,
        "revisions": st.lists(
            st.tuples(
                char_data, st.sampled_from(["plain", "real", "ip", "deleted", "two_texts"])
            ),
            min_size=1, max_size=3,
        ),
        "mutation": st.sampled_from(
            [None, None, "ns_first", "repeated_attribute", "restrictions"]
        ),
        "gap": st.sampled_from(["", "\n  ", "<!-- <page> -->", "<!--c-->\n"]),
    }),
    max_size=5,
)


def page_of(spec, page_id):
    ns = f"<ns>{spec['ns']}</ns>"
    title = f"<title>{spec['title']}</title>"
    head = ns + title if spec["mutation"] == "ns_first" else title + ns
    redirect = "" if spec["redirect"] is None else f'<redirect title="{spec["redirect"]}" />'
    if spec["mutation"] == "restrictions":
        redirect += "<restrictions>edit=sysop</restrictions>"
    body = "".join(revision_xml(text, shape) for text, shape in spec["revisions"])
    if spec["mutation"] == "repeated_attribute":
        body = body.replace("<text ", '<text bytes="1" bytes="1" ', 1)
    return f"{spec['gap']}<page>\n  {head}<id>{page_id}</id>{redirect}{body}</page>\n"


@settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    pages=pages_st,
    root=st.sampled_from(
        ["<mediawiki>", f'<mediawiki xmlns="{MW_NS}">', REAL_EXPORT.split("\n")[0]]
    ),
    prolog=st.sampled_from(["utf-8", "utf-8", "none", "doctype", "latin-1"]),
    tail=st.sampled_from(["", "\n", "junk", "<!-- end -->", "<!-- <page> -->"]),
    n=st.integers(1, 4),
)
def test_byte_reader_matches_expat(tmp_path, pages, root, prolog, tail, n):
    decl = '<?xml version="1.0" encoding="{}"?>\n'
    head = {
        "utf-8": decl.format("utf-8"),
        "none": "",
        "doctype": decl.format("utf-8") + '<!DOCTYPE mediawiki [<!ENTITY who "Bee">]>',
        "latin-1": decl.format("iso-8859-1"),
    }[prolog]
    raw = (
        f"{head}{root}\n<siteinfo><sitename>T</sitename></siteinfo>\n"
        + "".join(page_of(spec, i) for i, spec in enumerate(pages))
        + f"</mediawiki>{tail}"
    )
    path = tmp_path / "dump.xml"
    encoding = "latin-1" if prolog == "latin-1" else "utf-8"
    path.write_bytes(raw.encode(encoding, "xmlcharrefreplace"))
    assert outcome(stream_pages(source(path))) == expat_outcome(path)
    for span in shard_spans(str(path), n):
        fast = outcome(stream_pages(source(path), span))
        with mock.patch.object(dump, "_fast_page", lambda piece, lang: None):  # all via expat
            assert fast == outcome(stream_pages(source(path), span))
