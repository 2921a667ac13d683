"""Record parsing, query matching, hashtag extraction and day assignment."""

import gzip
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from electrend.botfilter import ActivityTracker, BotConfig, flag_bots
from electrend.cli import main

from electrend.ingest import (
    BeforeOriginError,
    DEFAULT_QUERY_STRINGS,
    IngestConfig,
    ParseError,
    QuerySet,
    assign_day,
    atomic_text,
    day_to_date,
    effective_date,
    extract_hashtags,
    ingest_lines,
    iter_lines,
    matches_query,
    open_text,
    parse_label,
    parse_record,
    record_parts,
    record_to_json,
)
from electrend.manifest import write_json_atomic
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
        assert matches_query(rec(text=text), qs) == oracle

    def test_metacharacters_are_literal(self):
        qs = QuerySet.from_strings(["a.b", "(", "c+"])
        assert not matches_query(rec(text="axb"), qs)
        assert matches_query(rec(text="A.B"), qs)
        assert matches_query(rec(text="x (y"), qs)
        assert not matches_query(rec(text="ccc"), qs)

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
        with atomic_text(str(tmp_path / "out.csv")) as fh:
            fh.write("whole\n")
        assert not dead.exists()
        assert all(path.exists() for path in kept)
        assert (tmp_path / "out.csv").read_text() == "whole\n"

    def test_non_finite_json_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json_atomic({"x": float("nan")}, str(path))
        assert list(tmp_path.iterdir()) == []

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


def reference_ingest(lines: list[str], origin: date, offset: float) -> tuple[list[str], list[str], dict]:
    """Clean lines, rejects sidecar lines and meta of the line-by-line ingest.

    Every line is parsed with ``parse_record`` and every kept record is
    dated with ``assign_day`` and written with ``record_to_json``; bots are
    scored over all the kept records first.
    """
    queries = QuerySet.default()
    rejects, kept, tracker = [], [], ActivityTracker()
    for line_no, line in enumerate(lines, start=1):
        try:
            record = parse_record(line, line_no)
        except ParseError as exc:
            rejects.append(f"{line_no}\tparse: {exc.reason}")
            continue
        if not matches_query(record, queries):
            rejects.append(f"{line_no}\tno-query-match")
            continue
        tracker.add(record, effective_date(record, offset))
        kept.append((line_no, record))
    _, bots = flag_bots(tracker, BotConfig())
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
        "input_lines": len(lines),
        "rejects": dict(sorted(Counter(r.split("\t")[1].partition(":")[0] for r in rejects).items())),
    }
    return clean, rejects, meta


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
        want_clean, want_rejects, want_meta = reference_ingest(lines, origin, offset)
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
        assert [v.user_id for v in result.verdicts if v.is_bot] == ["botty"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.jsonl", "clean.jsonl.bots.csv", "clean.jsonl.manifest.json", "clean.jsonl.meta.json",
            "raw.jsonl.gz", "raw.jsonl.gz.rejects.txt",
        ]


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
