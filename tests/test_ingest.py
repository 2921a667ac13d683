"""Record parsing, query matching, hashtag extraction and day assignment."""

import gzip
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from electrend.botfilter import ActivityTracker, BotConfig, flag_bots
from electrend import ingest
from electrend.cli import main

from electrend.ingest import (
    AtomicFiles,
    BeforeOriginError,
    DEFAULT_QUERY_STRINGS,
    IngestConfig,
    ParseError,
    QuerySet,
    TweetRecord,
    assign_day,
    day_to_date,
    effective_date,
    extract_hashtags,
    ingest_lines,
    iter_lines,
    map_chunks,
    open_text,
    parse_label,
    parse_record,
    record_parts,
    record_to_json,
    with_stance,
)
from electrend.manifest import RunManifest
from electrend.stance import Stance
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

    def test_calendar_edge_timestamps_are_parse_errors(self):
        # UTC dates 0001-01-01 and 9999-12-31, or before the calendar once in UTC
        for ts in ("0001-01-01T00:00:00+05:00", "0001-01-01T10:00:00Z", "0001-01-02T01:00:00+05:00",
                   "9999-12-31T23:00:00", "9999-12-31T00:00:00Z"):
            with pytest.raises(ParseError, match="out of range") as err:
                parse_record(json.dumps({"id": "1", "user": "u", "ts": ts, "text": "x"}), line_no=3)
            assert err.value.line_no == 3
        # one day in, every day offset still dates the record
        for ts in ("0001-01-02T00:00:00Z", "9999-12-30T23:59:59Z"):
            record = parse_record(json.dumps({"id": "1", "user": "u", "ts": ts, "text": "x"}))
            assert effective_date(record, 24) - effective_date(record, -24) == timedelta(days=2)

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

    GOOD = '{"id": "1", "user": "u", "ts": "2019-03-01T00:00:00Z", "text": "macri"'

    @pytest.mark.parametrize(
        "fields",
        [
            ', "text": "macri \\udce9"',
            ', "hashtags": 5',
            ', "hashtags": "abc"',
            ', "hashtags": ["ok", null]',
            ', "t": "x"',
            ', "t": 1.7',
            ', "t": true',
        ],
        ids=["lone-surrogate-escape", "hashtags-number", "hashtags-string", "hashtags-null-element",
             "t-string", "t-float", "t-bool"],
    )
    def test_malformed_field_is_parse_error(self, fields):
        line = self.GOOD + fields + "}"
        json.loads(line)  # well-formed JSON: the field itself is what is wrong
        with pytest.raises(ParseError) as err:
            parse_record(line, line_no=3)
        assert err.value.line_no == 3
        with pytest.raises(ParseError):
            parse_label(line, line_no=3)

    def test_deeply_nested_json_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_record("[" * 100_000, line_no=2)
        assert err.value.reason == "invalid JSON (nested too deeply)"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on integer digits")
    def test_integer_past_the_digit_limit_is_parse_error(self):
        line = '{"n": ' + "7" * (sys.get_int_max_str_digits() + 1) + ", " + self.GOOD[1:] + "}"
        for parse in (parse_record, parse_label):
            with pytest.raises(ParseError) as err:
                parse(line, line_no=4)
            assert (err.value.line_no, err.value.reason) == (4, "invalid JSON (integer too long)")

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ),
        pad=st.sampled_from(["", " ", "\t", "\ufeff"]),
        cut=st.integers(0, 60),
        junk=st.sampled_from(["", "x", "]", "}"]),
    )
    def test_json_errors_are_the_json_module_errors(self, value, pad, cut, junk):
        line = (pad + json.dumps(value) + pad)[:cut] + junk
        try:
            json.loads(line)
            want = None
        except json.JSONDecodeError as exc:
            want = f"invalid JSON ({exc.msg})"
        try:
            parse_record(line)
            got = None
        except ParseError as exc:
            got = exc.reason if exc.reason.startswith("invalid JSON") else None
        assert got == want

    def test_paired_surrogate_escape_is_one_character(self):
        r = parse_record(self.GOOD[:-1] + ' \\ud83d\\ude00"}')
        assert r.text == "macri \U0001F600"

    def test_label_keeps_the_estimator_fields(self):
        line = '{"id": 7, "user": "u9", "ts": "2019-03-01T23:00:00-03:00", "text": "x", "t": 4, "stance": "pro_mp"}'
        assert parse_label(line, 1) == ("u9", 4, "pro_mp")
        r = parse_record(line, 1)
        assert (r.user_id, r.day, r.stance) == parse_label(line, 1)


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
        assert qs.matches("Alberto Fernandez habló hoy")

    def test_conjunction_unmet(self):
        qs = QuerySet.from_strings(["Alberto AND Fernandez"])
        assert not qs.matches("Fernandez habló")

    def test_single_term_query_matches_inside_mention(self):
        qs = QuerySet.from_strings(["mauriciomacri"])
        assert qs.matches("dijo @mauriciomacri")

    def test_default_query_list(self):
        assert "mauriciomacri" in DEFAULT_QUERY_STRINGS
        assert "Alberto AND Fernandez" in DEFAULT_QUERY_STRINGS
        assert len(DEFAULT_QUERY_STRINGS) == 10
        qs = QuerySet.default()
        assert qs.matches("hoy CFK dijo")
        assert qs.matches("Lavagna presidente")
        assert not qs.matches("nada que ver")

    def test_case_insensitive(self):
        qs = QuerySet.from_strings(["Macri"])
        assert qs.matches("MACRI habla")
        assert qs.matches("macri habla")

    @given(
        text=st.text(max_size=40),
        base=st.lists(st.from_regex(r"[a-zA-Z0-9]{1,6}", fullmatch=True), max_size=3),
        extra=st.from_regex(r"[a-zA-Z0-9]{1,6}", fullmatch=True),
    )
    def test_adding_a_query_is_monotone(self, text, base, extra):
        text = text or "x"
        smaller = QuerySet.from_strings(base) if base else None
        bigger = QuerySet.from_strings([*base, extra])
        if smaller is not None and smaller.matches(text):
            assert bigger.matches(text)


# Terms and texts share an alphabet of regex metacharacters, letters and
# characters whose lowercase form is longer ("İ" lowers to "i" plus a dot).
QUERY_ALPHABET = "ab.()+*?[]|^$\\İiIẞß "


class TestCompiledQueries:
    @settings(max_examples=300, deadline=None)
    @given(
        queries=st.lists(
            st.lists(st.text(QUERY_ALPHABET, min_size=1, max_size=3), min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=5,
        ),
        text=st.text(QUERY_ALPHABET, max_size=30),
    )
    def test_matcher_equals_loop_oracle(self, queries, text):
        qs = QuerySet(tuple(queries))
        lowered = text.lower()
        oracle = any(all(t in lowered for t in q) for q in qs.queries)
        assert qs.matches(text) == oracle

    def test_metacharacters_are_literal(self):
        qs = QuerySet.from_strings(["a.b", "(", "c+"])
        assert not qs.matches("axb")
        assert qs.matches("A.B")
        assert qs.matches("x (y")
        assert not qs.matches("ccc")

    def test_equal_query_sets_compare_equal(self):
        assert QuerySet.default() == QuerySet.default()


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

    @given(record=record_strategy(), value=st.sampled_from([s.value for s in Stance]))
    @example(record=rec(text='say "stance" once'), value="neutral")  # the key's spelling in the text alone
    @example(record=rec(text='"stance"', day=3, stance="pro_mp"), value="pro_ff")
    def test_with_stance_equals_the_encoding_with_that_stance(self, record, value):
        assert with_stance(record_to_json(record), value) == record_to_json(replace(record, stance=value))

    # Characters JSON escapes, or could be mistaken for escaping: quotes,
    # backslashes, controls, line and paragraph separators, non-ASCII.
    AWKWARD = st.text(
        st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "é", "ñ", "🗳"])
        | st.characters(blacklist_categories=("Cs",)),
        max_size=30,
    )

    @given(
        fields=st.tuples(AWKWARD, AWKWARD, AWKWARD),
        tags=st.lists(AWKWARD, max_size=4),
        seconds=st.integers(min_value=0, max_value=400 * 86400),
        day=st.none() | st.integers(min_value=-5, max_value=10**6),
        stance=st.none() | st.sampled_from(["pro_ff", "pro_mp", "neutral"]) | AWKWARD,
    )
    def test_encoding_equals_json_dumps(self, fields, tags, seconds, day, stance):
        tweet_id, user, text = fields
        ts = datetime(2019, 1, 1, tzinfo=UTC) + timedelta(seconds=seconds)
        record = rec(user=user, text=text, ts=ts, tags=tags, day=day, stance=stance, tweet_id=tweet_id)
        expected = {"id": tweet_id, "user": user, "ts": ts.isoformat(), "text": text, "hashtags": tags}
        if day is not None:
            expected["t"] = day
        if stance is not None:
            expected["stance"] = stance
        line = json.dumps(expected, ensure_ascii=False)
        assert record_to_json(record) == line
        head, tail = record_parts(record)
        assert head + tail == json.dumps({k: v for k, v in expected.items() if k != "t"}, ensure_ascii=False)


class TestFileIO:
    def test_gzip_by_suffix_round_trips(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl.gz")
        line = '{"id":"1","user":"u","ts":"2019-03-01T00:00:00Z","text":"macri"}\n'
        with AtomicFiles() as files, files.open(path) as fh:
            fh.write(line)
        with gzip.open(path) as fh:
            assert fh.read(2)  # actually gzip-compressed
        with open_text(path) as fh:
            assert fh.read() == line
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
            with AtomicFiles() as files, files.open(str(path)) as fh:
                fh.write("partial\n")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []
        with AtomicFiles() as files, files.open(str(path)) as fh:
            fh.write("whole\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl.gz"]
        assert list(iter_lines(str(path))) == [(1, "whole")]

    def test_a_group_of_files_appears_together(self, tmp_path):
        with pytest.raises(RuntimeError):
            with AtomicFiles() as files:
                with files.open(str(tmp_path / "a.txt")) as fh:
                    fh.write("a\n")
                with files.open(str(tmp_path / "b.txt.gz")) as fh:
                    fh.write("b\n")
                assert sorted(p.name for p in tmp_path.iterdir()) == [f"a.txt.tmp{os.getpid()}", f"b.txt.gz.tmp{os.getpid()}"]
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []
        with AtomicFiles() as files:
            for path, text in (("a.txt", "a\n"), ("b.txt.gz", "b\n"), ("a.txt", "later\n")):
                with files.open(str(tmp_path / path)) as fh:
                    fh.write(text)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt.gz"]
        assert (tmp_path / "a.txt").read_text() == "later\n"
        assert list(iter_lines(str(tmp_path / "b.txt.gz"))) == [(1, "b")]

    def test_temp_of_a_dead_writer_is_removed(self, tmp_path):
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait(timeout=60)
        dead = tmp_path / f"out.csv.tmp{finished.pid}"
        kept = [
            tmp_path / f"out.csv.tmp{os.getppid()}",  # a live writer
            tmp_path / f"other.csv.tmp{finished.pid}",  # another target's temp file
            tmp_path / "out.csv.tmpx1",  # no pid
        ]
        for path in (dead, *kept):
            path.write_text("partial\n")
        with AtomicFiles() as files, files.open(str(tmp_path / "out.csv")) as fh:
            fh.write("whole\n")
        assert not dead.exists()
        assert all(path.exists() for path in kept)
        assert (tmp_path / "out.csv").read_text() == "whole\n"

    def test_non_finite_json_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        run = RunManifest("synth", [], paths={"out": str(path)})
        with pytest.raises(ValueError):
            with run.files:
                run.write_json("out", {"x": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_truncated_gzip_is_a_read_error(self, tmp_path):
        path = tmp_path / "cut.jsonl.gz"
        line = '{"id":"1","user":"u","ts":"2019-03-01T00:00:00Z","text":"macri %d"}\n'
        packed = gzip.compress("".join(line % i for i in range(2000)).encode())
        path.write_bytes(packed[: len(packed) // 2])
        with pytest.raises(OSError, match="damaged gzip"):
            list(iter_lines(str(path)))

    def test_not_gzip_is_a_read_error_naming_the_file(self, tmp_path):
        path = tmp_path / "plain.jsonl.gz"
        path.write_text('{"id":"1","user":"u","ts":"2019-03-01T00:00:00Z","text":"macri"}\n')
        with pytest.raises(OSError) as caught:
            list(iter_lines(str(path)))
        assert str(caught.value).startswith(f"{path}: damaged gzip stream: Not a gzipped file")


class TestDocumentedFormat:
    def test_readme_corpus_line_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Files on disk", 1)[1]
        line = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        r = parse_record(line)
        assert (r.tweet_id, r.user_id, r.text) == ("1", "u42", "...")
        assert r.created_at == datetime(2019, 3, 1, 12, tzinfo=UTC)
        assert (r.hashtags, r.day, r.stance) == (["yosigo"], 1, "pro_ff")


def reference_ingest(lines: list[str], origin: date, offset: float) -> tuple[list[str], list[str], dict, list]:
    """Clean lines, rejects sidecar lines, meta and bot verdicts of the line-by-line ingest.

    Lines are numbered from 1 and stripped, and blank ones skipped, as
    ``iter_lines`` does. Every line is parsed with ``parse_record`` and every
    kept record is dated with ``assign_day`` and written with
    ``record_to_json``; bots are scored over all the kept records first.
    """
    queries = QuerySet.default()
    rejects, kept, tracker = [], [], ActivityTracker()
    n_lines = 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        try:
            record = parse_record(line, line_no)
        except ParseError as exc:
            rejects.append(f"{line_no}\tparse: {exc.reason}")
            continue
        if not queries.matches(record.text):
            rejects.append(f"{line_no}\tno-query-match")
            continue
        tracker.add(record.user_id, record.created_at, record.text, effective_date(record, offset))
        kept.append((line_no, record))
    verdicts, bots = flag_bots(tracker, BotConfig())
    clean, days = [], []
    for line_no, record in kept:
        if record.user_id in bots:
            rejects.append(f"{line_no}\tbot-user")
            continue
        try:
            day = assign_day(record, origin, offset)
        except BeforeOriginError:
            rejects.append(f"{line_no}\tbefore-origin")
            continue
        clean.append(record_to_json(replace(record, day=day)))
        days.append(day)
    meta = {
        "meta_version": 1,
        "origin_date": origin.isoformat(),
        "day_offset_hours": offset,
        "n_days": max(days),
        "records": len(clean),
        "input_lines": n_lines,
        "rejects": dict(sorted(Counter(r.split("\t")[1].partition(":")[0] for r in rejects).items())),
    }
    return clean, rejects, meta, verdicts


def labeled_corpus() -> list[str]:
    """Raw lines carrying ``t`` and ``stance``, around local midnights, with a planted bot."""
    start = datetime(2019, 3, 1, 1, tzinfo=UTC)  # 22:00 of the day before at UTC-3
    users = ["ana", "tab\tuser", "new\nline", "Ñandú", "u\u2028sep"]
    texts = ["Macri habló", "CFK y #Lavagna", "Alberto Fernández\tdijo", "kirchner 😀 \u2028 fin", "nada que ver"]
    lines = []
    for i in range(60):
        obj = {
            "id": i,
            "user": users[i % len(users)],
            "ts": (start + timedelta(hours=7 * i)).isoformat(),
            "text": texts[i % len(texts)],
            "t": 99,
        }
        if i % 3:
            obj["stance"] = ["pro_ff", "pro_mp", "neutral"][i % 3]
        if i % 4 == 0:
            obj["hashtags"] = ["#Cambiemos", "cambiemos", "FF"]
        lines.append(json.dumps(obj, ensure_ascii=i % 2 == 0))
    for i in range(100):  # rate, duplicate and burst rules all fire
        ts = (datetime(2019, 3, 6, 12, tzinfo=UTC) + timedelta(seconds=10 * i)).isoformat()
        lines.insert(2 * i % len(lines), json.dumps({"id": f"b{i}", "user": "botty", "ts": ts, "text": "MACRI MACRI"}))
    lines[7] = lines[7][:25]
    return lines


class TestSpooledIngest:
    def test_outputs_equal_the_line_by_line_ingest(self, tmp_path):
        lines = labeled_corpus()
        raw, clean = tmp_path / "raw.jsonl.gz", tmp_path / "clean.jsonl"
        raw.write_bytes(gzip.compress("".join(line + "\n" for line in lines).encode("utf-8")))
        origin, offset = date(2019, 3, 3), -3.0
        code = main([
            "ingest", str(raw), "-o", str(clean),
            "--origin-date", origin.isoformat(), "--day-offset-hours", str(offset),
        ])
        assert code == 0
        want_clean, want_rejects, want_meta, want_verdicts = reference_ingest(lines, origin, offset)
        assert {"bot-user", "before-origin", "no-query-match", "parse"} <= set(want_meta["rejects"])
        assert clean.read_text(encoding="utf-8") == "".join(line + "\n" for line in want_clean)
        assert (tmp_path / "raw.jsonl.gz.rejects.txt").read_text(encoding="utf-8").splitlines() == want_rejects
        assert json.loads((tmp_path / "clean.jsonl.meta.json").read_text(encoding="utf-8")) == want_meta

        # the library call the subcommand makes, spooling to the same directory
        out, rejects = io.StringIO(), io.StringIO()
        config = IngestConfig(origin_date=origin, day_offset_hours=offset)
        result = ingest_lines(iter_lines(str(raw)), config, out, rejects, spool_dir=str(tmp_path))
        assert out.getvalue() == "".join(line + "\n" for line in want_clean)
        assert rejects.getvalue().splitlines() == want_rejects
        assert (result.origin.isoformat(), result.n_days, result.accepted, result.input_lines, result.rejects) == (
            want_meta["origin_date"], want_meta["n_days"], want_meta["records"], want_meta["input_lines"],
            want_meta["rejects"],
        )
        assert result.verdicts == want_verdicts
        assert [v.user_id for v in result.verdicts if v.is_bot] == ["botty"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.jsonl", "clean.jsonl.bots.csv", "clean.jsonl.manifest.json", "clean.jsonl.meta.json",
            "raw.jsonl.gz", "raw.jsonl.gz.rejects.txt",
        ]

    @pytest.mark.parametrize("block", [1, 300, 1 << 16])
    def test_pass_two_by_blocks_keeps_the_input_order(self, block, tmp_path, monkeypatch):
        # a block of 1 byte is one spool row; bot and before-origin rejects fall in every block
        monkeypatch.setattr(ingest, "SPOOL_BLOCK", block)
        lines = labeled_corpus()
        origin, offset = date(2019, 3, 3), -3.0
        want_clean, want_rejects, want_meta, _ = reference_ingest(lines, origin, offset)
        out, rejects = io.StringIO(), io.StringIO()
        config = IngestConfig(origin_date=origin, day_offset_hours=offset)
        result = ingest_lines(enumerate(lines, start=1), config, out, rejects, spool_dir=str(tmp_path))
        assert out.getvalue() == "".join(line + "\n" for line in want_clean)
        assert rejects.getvalue().splitlines() == want_rejects
        assert (result.n_days, result.accepted, result.rejects) == (
            want_meta["n_days"], want_meta["records"], want_meta["rejects"]
        )

    def test_a_spool_write_error_names_the_clean_corpus(self, tmp_path):
        (tmp_path / "raw.jsonl").write_text("".join(line + "\n" for line in labeled_corpus()), encoding="utf-8")
        script = (
            "import io, resource\n"
            "from electrend.ingest import IngestConfig, ingest_lines, iter_lines\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (256, 256))\n"
            "with open('clean.jsonl', 'w') as out:\n"
            "    ingest_lines(iter_lines('raw.jsonl'), IngestConfig(), out, io.StringIO(), '.')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(ingest.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert "OSError: [Errno 27] File too large: 'clean.jsonl'" in result.stderr
        assert (tmp_path / "clean.jsonl").read_text() == ""  # the spool failed in pass 1


# Ways a corpus line can differ from the encoding ``record_parts`` writes.
LINE_VARIANTS = (
    "key-order", "blanks", "tabs", "e-escape", "slash-escape", "int-id", "duplicate-key", "no-hashtags",
    "#-tag", "upper-tag", "repeated-tag", "t", "stance",
    "ts-Z", "ts-fraction", "ts-zero-fraction", "ts--03:00", "ts-naive", "ts-week-date",
)


@st.composite
def raw_corpus_line(draw) -> str:
    """A corpus line in the encoding ``record_parts`` writes, changed in up to two of ``LINE_VARIANTS``.

    Its text may also hold quotes, backslashes or U+2028, which the
    encoding escapes (the first two) or writes as is (the last).
    """
    variants = draw(st.sets(st.sampled_from(LINE_VARIANTS), max_size=2))
    at = datetime(2019, 2, 28, tzinfo=UTC) + timedelta(seconds=draw(st.integers(0, 6 * 86400)))
    ts = at.isoformat()
    if "ts-Z" in variants:
        ts = at.strftime("%Y-%m-%dT%H:%M:%SZ")
    if "ts-fraction" in variants:
        ts = at.replace(microsecond=draw(st.integers(1, 999_999))).isoformat()
    if "ts-zero-fraction" in variants:
        ts = at.strftime("%Y-%m-%dT%H:%M:%S.000+00:00")
    if "ts--03:00" in variants:
        ts = at.astimezone(timezone(timedelta(hours=-3))).isoformat()
    if "ts-naive" in variants:
        ts = at.replace(tzinfo=None).isoformat()
    if "ts-week-date" in variants:
        year, week, weekday = at.isocalendar()
        ts = f"{year}-W{week:02d}-{weekday}T{at:%H:%M:%S}+00:00"
    tags = draw(st.lists(st.sampled_from(["cambiemos", "fuerzacristina", "é"]), max_size=2, unique=True))
    if "#-tag" in variants:
        tags = ["#cambiemos", *tags]
    if "upper-tag" in variants:
        tags = ["Cambiemos", *tags]
    if "repeated-tag" in variants:
        tags = ["x", "x", *tags]
    fields = {
        "id": draw(st.integers(0, 99)) if "int-id" in variants else str(draw(st.integers(0, 99))),
        "user": draw(st.sampled_from(["u1", "u2", "Ñandú", "u x", "a/b"])),
        "ts": ts,
        "text": "".join(draw(st.lists(
            st.sampled_from(["macri", "Macri ", "cfk", " nada", "é", "a/b", " ", " ", "#Tag ", '"', "\\"]),
            min_size=1, max_size=5,
        ))),
        "hashtags": tags,
    }
    if "no-hashtags" in variants:
        del fields["hashtags"]
    if "t" in variants:
        fields["t"] = draw(st.integers(-2, 9))
    if "stance" in variants:
        fields["stance"] = draw(st.sampled_from(["pro_ff", "neutral"]))
    pairs = list(fields.items())
    if "key-order" in variants:
        pairs = draw(st.permutations(pairs))
    if "duplicate-key" in variants:  # the last one counts
        pairs.insert(0, (draw(st.sampled_from(sorted(fields))), draw(st.sampled_from(["x", 7]))))
    colon, comma, inner = ": ", ", ", ""
    if "blanks" in variants:
        colon, comma, inner = " :  ", " ,", " "
    if "tabs" in variants:
        colon, comma = ":\t", ",\t"

    def encode(value) -> str:
        if isinstance(value, list):
            return "[" + comma.join(map(encode, value)) + "]"
        text = json.dumps(value, ensure_ascii=False)
        if "e-escape" in variants:
            text = text.replace("é", "\\u00e9")
        if "slash-escape" in variants:
            text = text.replace("/", "\\/")
        return text

    return "{" + inner + comma.join(f'"{key}"{colon}{encode(value)}' for key, value in pairs) + inner + "}"


@st.composite
def unescaped_line(draw) -> str:
    """Drawn fields pasted unescaped into the corpus line: often not JSON, sometimes JSON whose fields are not the ones pasted."""
    piece = st.lists(st.sampled_from([
        "a", "é", " ", "#Tag", '"', "\\", '\\"', "\\u00e9", "\\/", "\n", "\x01", ",", '", "text": "', '", "t": 1, "x": "', "%s", "{}",
    ]), max_size=4).map("".join)
    ts = draw(st.sampled_from([
        "2019-03-01T12:00:00+00:00", "2019-03-01T12:00:00Z", "2019-03-01T12:00:00.500000+00:00",
        "2019-03-01T12:00:00", "2019-03-01T09:00:00-03:00",
    ]))
    tags = draw(st.sampled_from(["", '"tag"', '"tag", "x"', '"#Tag"', '"x", "x"', "1", '"b", "a"', '"é"']))
    return '{"id": "%s", "user": "%s", "ts": "%s", "text": "%s", "hashtags": [%s]}' % (
        draw(piece), draw(piece), ts, draw(piece), tags
    )


# Kept by every rule, so that a run always accepts a line.
ANCHOR_LINE = '{"id": "a", "user": "anchor", "ts": "2019-03-02T12:00:00+00:00", "text": "macri", "hashtags": []}'


class TestWrittenAsRead:
    """A kept line already in the corpus encoding is spooled as read; every other kept line is encoded again."""

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(raw_corpus_line(), min_size=1, max_size=12), offset=st.sampled_from([0.0, -3.0, 5.5]))
    def test_outputs_equal_the_line_by_line_ingest(self, lines, offset):
        lines = [ANCHOR_LINE, *lines]
        origin = date(2019, 3, 1)
        want_clean, want_rejects, want_meta, want_verdicts = reference_ingest(lines, origin, offset)
        out, rejects = io.StringIO(), io.StringIO()
        config = IngestConfig(origin_date=origin, day_offset_hours=offset)
        result = ingest_lines(enumerate(lines, start=1), config, out, rejects)
        assert out.getvalue() == "".join(line + "\n" for line in want_clean)
        assert rejects.getvalue().splitlines() == want_rejects
        assert (result.n_days, result.accepted, result.rejects) == (
            want_meta["n_days"], want_meta["records"], want_meta["rejects"]
        )
        assert result.verdicts == want_verdicts

    @settings(max_examples=400, deadline=None)
    @given(line=raw_corpus_line() | unescaped_line())
    def test_a_line_is_taken_as_read_only_when_it_is_the_encoding(self, line):
        try:
            tweet_id, user_id, raw_ts, created_at, text, tags, _, _ = ingest._decode(line, 1)
        except ParseError:
            return
        hashtags = ingest._hashtags(text, tags)
        encoded = record_to_json(TweetRecord(tweet_id, user_id, created_at, text, hashtags))
        if ingest._written_as_read(line, tweet_id, user_id, raw_ts, text, hashtags):
            assert line == encoded
        # the encoding itself is taken as read unless it holds an escape or a fraction of a second
        tweet_id, user_id, raw_ts, _, text, tags, _, _ = ingest._decode(encoded, 1)
        taken = ingest._written_as_read(encoded, tweet_id, user_id, raw_ts, text, ingest._hashtags(text, tags))
        assert taken == ("\\" not in encoded and created_at.microsecond == 0)

    def test_synth_lines_gain_only_their_day(self, tmp_path):
        raw, clean = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
        assert main(["synth", "-o", str(raw), "--users", "40", "--days", "5", "--seed", "3"]) == 0
        assert main(["ingest", str(raw), "-o", str(clean)]) == 0
        dropped = {int(row.split("\t")[0]) for row in (tmp_path / "raw.jsonl.rejects.txt").read_text().splitlines()}
        kept = [line for n, line in iter_lines(str(raw)) if n not in dropped]
        written = clean.read_text(encoding="utf-8").splitlines()
        assert len(written) == len(kept) > 0
        for line, out in zip(kept, written):
            head, _, day = out[:-1].rpartition(', "t": ')
            assert head + "}" == line
            assert day.isdigit() and int(day) >= 1


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


def planted_corpus() -> list[bytes]:
    """Good lines, one line of each fault class of ``TestFaultInjection`` and a planted bot, around a local midnight."""
    lines = [good_line(i) for i in range(60)]
    for i, kind in enumerate(sorted(FAULTS)):
        lines.insert(5 + 9 * i, FAULTS[kind](i))
    for i in range(90):  # rate, duplicate and burst rules all fire
        ts = (datetime(2019, 3, 2, tzinfo=UTC) + timedelta(seconds=10 * i)).isoformat()
        bot = {"id": f"b{i}", "user": "botty", "ts": ts, "text": "MACRI MACRI"}
        lines.insert(3 * i % len(lines), json.dumps(bot).encode())
    return lines


class TestPooledIngest:
    """Pass 1 of ``ingest_lines`` runs in chunks over worker processes; neither changes what it writes."""

    @pytest.mark.parametrize("chunk, workers", [(3, 1), (5, 2), (7, 3), (4, 2), (512, 2)])
    def test_outputs_equal_the_line_by_line_ingest(self, chunk, workers, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_LINES", chunk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        lines = planted_corpus()
        raw = tmp_path / "raw.jsonl"
        raw.write_bytes(b"\n".join(lines) + b"\n")
        origin, offset = date(2019, 3, 1), -3.0
        want_clean, want_rejects, want_meta, want_verdicts = reference_ingest(
            [line.decode("utf-8", "surrogateescape") for line in lines], origin, offset
        )
        assert {"bot-user", "before-origin", "parse"} <= set(want_meta["rejects"])

        out, rejects = io.StringIO(), io.StringIO()
        config = IngestConfig(origin_date=origin, day_offset_hours=offset)
        result = ingest_lines(iter_lines(str(raw)), config, out, rejects, spool_dir=str(tmp_path))
        assert out.getvalue() == "".join(line + "\n" for line in want_clean)
        assert rejects.getvalue().splitlines() == want_rejects
        assert (result.origin.isoformat(), result.n_days, result.accepted, result.input_lines, result.rejects) == (
            want_meta["origin_date"], want_meta["n_days"], want_meta["records"], want_meta["input_lines"],
            want_meta["rejects"],
        )
        assert result.verdicts == want_verdicts
        assert [v.user_id for v in result.verdicts if v.is_bot] == ["botty"]


def line_numbers(chunk: list[tuple[int, str]]) -> list[int]:
    return [line_no for line_no, _ in chunk]


class TestMapChunks:
    PAIRS = [(n, f"line {n}") for n in range(1, 31)]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_LINES", 4)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_come_back_in_input_order(self, workers):
        want = [list(range(n, min(n + 4, 31))) for n in range(1, 31, 4)]
        assert list(map_chunks(line_numbers, self.PAIRS, workers)) == want

    def test_pool_only_for_several_chunks_and_workers(self):
        me = os.getpid()
        assert me not in set(map_chunks(lambda chunk: os.getpid(), self.PAIRS, 2))
        assert set(map_chunks(lambda chunk: os.getpid(), self.PAIRS, 1)) == {me}
        assert set(map_chunks(lambda chunk: os.getpid(), self.PAIRS[:4], 2)) == {me}
        assert list(map_chunks(lambda chunk: os.getpid(), [], 2)) == []

    def test_one_worker_reads_no_chunk_ahead(self):
        read = []

        def lines():
            for pair in self.PAIRS:
                read.append(pair)
                yield pair

        results = map_chunks(line_numbers, lines(), 1)
        assert next(results) == [1, 2, 3, 4]
        assert len(read) <= 4  # the first chunk's lines only

    def test_the_first_failing_chunk_in_input_order_decides(self):
        def fn(chunk):
            first = chunk[0][0]
            if first == 5:
                time.sleep(0.3)  # the later chunk fails first
                raise ParseError("slow", first)
            if first == 25:
                raise ParseError("fast", first)
            return first

        done = []
        with pytest.raises(ParseError) as err:
            for first in map_chunks(fn, self.PAIRS, 3):
                done.append(first)
        assert (err.value.line_no, err.value.reason, done) == (5, "slow", [1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_read_error_comes_after_the_lines_before_it(self, workers):
        def lines():
            yield from self.PAIRS[:10]
            raise OSError("damaged gzip stream")

        done = []
        with pytest.raises(OSError, match="damaged gzip stream"):
            for numbers in map_chunks(line_numbers, lines(), workers):
                done.append(numbers)
        assert done == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10]]

    @pytest.mark.parametrize("end", ["a chunk fails", "the iterator is closed"])
    def test_the_workers_finish_their_chunks_and_exit_unsignalled(self, end, tmp_path):
        # A worker stopped by a signal while it sends a result keeps the result
        # pipe's lock, and the end of the pool would then wait on it for ever.
        signalled = tmp_path / "signalled"

        def fn(chunk):
            signal.signal(signal.SIGTERM, lambda *_: (signalled.touch(), os._exit(1)))
            if chunk[0][0] == 1 and end == "a chunk fails":
                raise ParseError("bad", 1)
            time.sleep(0.2)
            return chunk

        results = map_chunks(fn, self.PAIRS, 2)
        if end == "a chunk fails":
            with pytest.raises(ParseError):
                next(results)
        else:
            next(results)
            results.close()
        assert not multiprocessing.active_children()
        assert not signalled.exists()

    def test_the_pool_ends_with_the_iterator(self):
        results = map_chunks(line_numbers, self.PAIRS, 2)
        assert next(results) == [1, 2, 3, 4]
        assert len(multiprocessing.active_children()) == 2
        results.close()
        assert not multiprocessing.active_children()
        with pytest.raises(ParseError):
            list(map_chunks(lambda chunk: parse_record(chunk[0][1], chunk[0][0]), self.PAIRS, 2))
        assert not multiprocessing.active_children()
