"""Record parsing, query matching, hashtag extraction and day assignment."""

import gzip
import json
import tempfile
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from electrend.cli import main

from electrend.ingest import (
    BeforeOriginError,
    DEFAULT_QUERY_STRINGS,
    ParseError,
    QuerySet,
    assign_day,
    atomic_text,
    day_to_date,
    effective_date,
    extract_hashtags,
    iter_lines,
    matches_query,
    open_text,
    parse_record,
    record_to_json,
)
from conftest import rec

UTC = timezone.utc


class TestParseRecord:
    def test_minimal_record_maps_fields(self):
        line = '{"id":"1","user":"u1","ts":"2019-03-01T12:00:00Z","text":"#FuerzaCristina vamos"}'
        r = parse_record(line)
        assert r.tweet_id == "1"
        assert r.user_id == "u1"
        assert r.created_at == datetime(2019, 3, 1, 12, tzinfo=UTC)
        assert r.text == "#FuerzaCristina vamos"
        assert r.hashtags == ["fuerzacristina"]

    def test_invalid_timestamp_is_parse_error(self):
        line = '{"id":"1","user":"u1","ts":"2019-13-40","text":"x"}'
        with pytest.raises(ParseError) as err:
            parse_record(line, line_no=7)
        assert err.value.line_no == 7

    def test_offset_timestamp_converts_to_utc(self):
        line = '{"id":"2","user":"u2","ts":"2019-03-01T23:59:59-03:00","text":"Macri"}'
        r = parse_record(line)
        assert r.created_at == datetime(2019, 3, 2, 2, 59, 59, tzinfo=UTC)

    def test_naive_timestamp_assumed_utc(self):
        r = parse_record('{"id":"1","user":"u","ts":"2019-03-01T10:00:00","text":"x"}')
        assert r.created_at == datetime(2019, 3, 1, 10, tzinfo=UTC)

    @pytest.mark.parametrize("missing", ["id", "user", "ts", "text"])
    def test_missing_required_field(self, missing):
        obj = {"id": "1", "user": "u", "ts": "2019-03-01T00:00:00Z", "text": "x"}
        del obj[missing]
        with pytest.raises(ParseError):
            parse_record(json.dumps(obj))

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_record("{not json")
        with pytest.raises(ParseError):
            parse_record('["not", "an", "object"]')

    def test_provided_hashtags_trusted_and_normalized(self):
        line = '{"id":"1","user":"u","ts":"2019-03-01T00:00:00Z","text":"no tags here","hashtags":["#MM2019","Cambiemos"]}'
        r = parse_record(line)
        assert r.hashtags == ["mm2019", "cambiemos"]

    def test_round_trip_preserves_day_and_stance(self):
        r = rec(day=5, stance="pro_ff")
        back = parse_record(record_to_json(r))
        assert back == r


class TestHashtagExtraction:
    def test_two_tags(self):
        assert extract_hashtags("#Cambiemos y #MM2019!") == ["cambiemos", "mm2019"]

    def test_no_tags(self):
        assert extract_hashtags("sin etiquetas") == []

    def test_case_fold_dedup(self):
        assert extract_hashtags("#A #a #A") == ["a"]

    def test_accented_tag(self):
        assert extract_hashtags("#Martínez va") == ["martínez"]


class TestQueries:
    def test_conjunction_met(self):
        qs = QuerySet.from_strings(["Alberto AND Fernandez"])
        assert matches_query(rec(text="Alberto Fernandez habló hoy"), qs)

    def test_conjunction_unmet(self):
        qs = QuerySet.from_strings(["Alberto AND Fernandez"])
        assert not matches_query(rec(text="Fernandez habló"), qs)

    def test_single_term_query_matches_inside_mention(self):
        qs = QuerySet.from_strings(["mauriciomacri"])
        assert matches_query(rec(text="dijo @mauriciomacri"), qs)

    def test_default_query_list(self):
        assert "mauriciomacri" in DEFAULT_QUERY_STRINGS
        assert "Alberto AND Fernandez" in DEFAULT_QUERY_STRINGS
        assert len(DEFAULT_QUERY_STRINGS) == 10
        qs = QuerySet.default()
        assert matches_query(rec(text="hoy CFK dijo"), qs)
        assert matches_query(rec(text="Lavagna presidente"), qs)
        assert not matches_query(rec(text="nada que ver"), qs)

    def test_case_insensitive(self):
        qs = QuerySet.from_strings(["Macri"])
        assert matches_query(rec(text="MACRI habla"), qs)
        assert matches_query(rec(text="macri habla"), qs)

    @given(
        text=st.text(max_size=40),
        base=st.lists(st.from_regex(r"[a-zA-Z0-9]{1,6}", fullmatch=True), max_size=3),
        extra=st.from_regex(r"[a-zA-Z0-9]{1,6}", fullmatch=True),
    )
    def test_adding_a_query_is_monotone(self, text, base, extra):
        r = rec(text=text or "x")
        smaller = QuerySet.from_strings(base) if base else None
        bigger = QuerySet.from_strings([*base, extra])
        if smaller is not None and matches_query(r, smaller):
            assert matches_query(r, bigger)


class TestDayAssignment:
    origin = date(2019, 3, 1)

    def test_origin_day_is_one(self):
        r = rec(ts="2019-03-01T00:00:00+00:00")
        assert assign_day(r, self.origin) == 1

    def test_thirteen_days_later_is_fourteen(self):
        r = rec(ts="2019-03-14T09:30:00+00:00")
        assert assign_day(r, self.origin) == 14

    def test_one_second_before_origin_rejects(self):
        r = rec(ts="2019-02-28T23:59:59+00:00")
        with pytest.raises(BeforeOriginError):
            assign_day(r, self.origin)

    def test_day_offset_shifts_boundary(self):
        # 01:00 UTC with a -3h boundary shift falls on the previous local day.
        r = rec(ts="2019-03-02T01:00:00+00:00")
        assert assign_day(r, self.origin) == 2
        assert assign_day(r, self.origin, day_offset_hours=-3) == 1
        assert effective_date(r, -3) == date(2019, 3, 1)

    def test_day_to_date_inverts(self):
        assert day_to_date(1, self.origin) == self.origin
        assert day_to_date(14, self.origin) == date(2019, 3, 14)

    @given(
        a=st.integers(min_value=0, max_value=10_000_000),
        b=st.integers(min_value=0, max_value=10_000_000),
        offset=st.integers(min_value=-12, max_value=12),
    )
    def test_order_preserving(self, a, b, offset):
        base = datetime(2019, 3, 1, tzinfo=UTC)
        ra = rec(ts=base + timedelta(seconds=min(a, b)))
        rb = rec(ts=base + timedelta(seconds=max(a, b)))
        origin = date(2018, 12, 1)
        assert assign_day(ra, origin, offset) <= assign_day(rb, origin, offset)


@st.composite
def record_strategy(draw):
    text = draw(st.text(max_size=60).filter(lambda s: s.strip()))
    seconds = draw(st.integers(min_value=0, max_value=400 * 86400))
    day = draw(st.none() | st.integers(min_value=1, max_value=400))
    stance = draw(st.none() | st.sampled_from(["pro_ff", "pro_mp", "pro_third", "neutral"]))
    return rec(
        user=draw(st.text(min_size=1, max_size=12).filter(lambda s: s.strip())),
        text=text,
        ts=datetime(2019, 1, 1, tzinfo=UTC) + timedelta(seconds=seconds),
        tags=extract_hashtags(text),
        day=day,
        stance=stance,
    )


class TestRoundTrip:
    @given(record=record_strategy())
    def test_serialize_parse_is_identity(self, record):
        assert parse_record(record_to_json(record)) == record


class TestFileIO:
    def test_gzip_by_suffix_round_trips(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl.gz")
        with open_text(path, "wt") as fh:
            fh.write('{"id":"1","user":"u","ts":"2019-03-01T00:00:00Z","text":"macri"}\n')
        with gzip.open(path) as fh:
            assert fh.read(2)  # actually gzip-compressed
        lines = list(iter_lines(path))
        assert len(lines) == 1
        assert lines[0][0] == 1
        assert parse_record(lines[0][1]).user_id == "u"

    def test_iter_lines_skips_blanks_keeps_numbers(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        path_obj = tmp_path / "c.jsonl"
        path_obj.write_text("a\n\n  \nb\n", encoding="utf-8")
        assert [(n, s) for n, s in iter_lines(path)] == [(1, "a"), (4, "b")]

    def test_atomic_writer_commits_whole_files_only(self, tmp_path):
        path = tmp_path / "out.jsonl.gz"
        with pytest.raises(RuntimeError):
            with atomic_text(str(path)) as fh:
                fh.write("partial\n")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []
        with atomic_text(str(path)) as fh:
            fh.write("whole\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl.gz"]
        assert list(iter_lines(str(path))) == [(1, "whole")]

    def test_truncated_gzip_is_a_read_error(self, tmp_path):
        path = tmp_path / "cut.jsonl.gz"
        line = '{"id":"1","user":"u","ts":"2019-03-01T00:00:00Z","text":"macri %d"}\n'
        packed = gzip.compress("".join(line % i for i in range(2000)).encode())
        path.write_bytes(packed[: len(packed) // 2])
        with pytest.raises(OSError, match="damaged gzip"):
            list(iter_lines(str(path)))


class TestDocumentedFormat:
    def test_readme_corpus_line_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Files on disk", 1)[1]
        line = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        r = parse_record(line)
        assert (r.tweet_id, r.user_id, r.text) == ("1", "u42", "...")
        assert r.created_at == datetime(2019, 3, 1, 12, tzinfo=UTC)
        assert (r.hashtags, r.day, r.stance) == (["yosigo"], 1, "pro_ff")


def good_line(i: int) -> bytes:
    ts = (datetime(2019, 3, 1, tzinfo=UTC) + timedelta(hours=i)).isoformat()
    return json.dumps({"id": str(i), "user": f"u{i % 7}", "ts": ts, "text": f"macri dato {i}"}).encode()


# Malformed lines, each a parse reject, and blank lines, which are not lines at all.
FAULTS = {
    "truncated": lambda i: good_line(i)[: 10 + i % 20],
    "missing-key": lambda i: good_line(i).replace(b'"ts"', b'"when"'),
    "not-utf8": lambda i: good_line(i).replace(b"dato", b"d\xe9to"),
    "bad-continuation": lambda i: good_line(i).replace(b"dato", b"\xc3(ato"),
    "not-an-object": lambda i: b"[1, 2]",
    "blank": lambda i: b"  \t",
}


class TestFaultInjection:
    @settings(max_examples=30, deadline=None)
    @given(
        faults=st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(sorted(FAULTS))), max_size=15
        )
    )
    def test_every_nonblank_line_is_accepted_or_rejected(self, faults):
        lines = [good_line(i) for i in range(40)]
        for position, kind in sorted(faults, reverse=True):
            lines.insert(position, FAULTS[kind](position))
        malformed = sum(kind != "blank" for _, kind in faults)
        with tempfile.TemporaryDirectory() as tmp:
            raw, clean = f"{tmp}/raw.jsonl", f"{tmp}/clean.jsonl"
            with open(raw, "wb") as fh:
                fh.write(b"\n".join(lines) + b"\n")
            assert main(["ingest", raw, "-o", clean, "--no-bot-filter"]) == 0
            with open(clean + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            with open(raw + ".rejects.txt", encoding="utf-8") as fh:
                sidecar = Counter(line.split("\t")[1].partition(":")[0] for line in fh)
            with open(clean, encoding="utf-8") as fh:
                accepted = sum(1 for _ in fh)
        assert meta["input_lines"] == 40 + malformed
        assert accepted == meta["records"] == 40
        assert accepted + sum(meta["rejects"].values()) == meta["input_lines"]
        assert dict(sidecar) == meta["rejects"] == ({"parse": malformed} if malformed else {})
