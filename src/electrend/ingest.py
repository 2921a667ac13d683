"""Parsing and normalization of archived tweet corpora.

Input is newline-delimited JSON, one record per line, with required keys
``id``, ``user``, ``ts`` (ISO-8601) and ``text``; an optional ``hashtags``
list is trusted when present. Records are matched against candidate-name
queries, hashtags are extracted, timestamps are normalized to UTC and each
record is assigned an integer day index (day 1 = the corpus origin day).
"""

from __future__ import annotations

import gzip
import json
import os
import re
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator, TextIO

__all__ = [
    "TweetRecord",
    "QuerySet",
    "ParseError",
    "BeforeOriginError",
    "DEFAULT_QUERY_STRINGS",
    "parse_record",
    "record_to_json",
    "extract_hashtags",
    "matches_query",
    "assign_day",
    "day_to_date",
    "open_text",
    "atomic_text",
    "iter_lines",
]

# Candidate-name queries for the 2019 Argentina presidential race.
# "AND" separates terms that must all appear; matching is case-insensitive
# substring, so e.g. "Macri" also matches "@mauriciomacri".
DEFAULT_QUERY_STRINGS = (
    "Alberto AND Fernandez",
    "alferdez",
    "CFK",
    "CFKArgentina",
    "Kirchner",
    "mauriciomacri",
    "Macri",
    "Pichetto",
    "MiguelPichetto",
    "Lavagna",
)

# '#' followed by word characters; \w with re.UNICODE covers accented
# letters common in Argentine tags.
_HASHTAG_RE = re.compile(r"#(\w+)", re.UNICODE)

_UTC = timezone.utc


class ParseError(ValueError):
    """A malformed input line. Recoverable: the pipeline skips and counts it."""

    def __init__(self, reason: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {reason}" if line_no else reason)
        self.reason = reason
        self.line_no = line_no


class BeforeOriginError(ValueError):
    """Record timestamp predates the configured origin day."""


@dataclass(slots=True)
class TweetRecord:
    """One ingested message, normalized to the corpus data model."""

    tweet_id: str
    user_id: str
    created_at: datetime  # tz-aware, UTC
    text: str
    hashtags: list[str]
    day: int | None = None  # assigned against the corpus origin date
    stance: str | None = None  # filled by the classifier

    def with_day(self, day: int) -> "TweetRecord":
        return replace(self, day=day)


@dataclass(frozen=True)
class QuerySet:
    """OR of queries, each query an AND of case-insensitive substring terms."""

    queries: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.queries:
            raise ValueError("query set must contain at least one query")
        for terms in self.queries:
            if not terms:
                raise ValueError("each query needs at least one term")

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "QuerySet":
        queries = []
        for s in strings:
            terms = tuple(t.strip().lower() for t in s.split(" AND ") if t.strip())
            queries.append(terms)
        return cls(tuple(queries))

    @classmethod
    def default(cls) -> "QuerySet":
        return cls.from_strings(DEFAULT_QUERY_STRINGS)


def extract_hashtags(text: str) -> list[str]:
    """Lowercased tags in order of first appearance, deduplicated."""
    seen: dict[str, None] = {}
    for match in _HASHTAG_RE.finditer(text):
        seen.setdefault(match.group(1).lower())
    return list(seen)


def _parse_timestamp(raw: str) -> datetime:
    # Python 3.10 fromisoformat has no 'Z' support.
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise ParseError(f"invalid timestamp {raw!r}")
    if ts.tzinfo is None:  # naive timestamps are taken as UTC
        return ts.replace(tzinfo=_UTC)
    return ts.astimezone(_UTC)


def parse_record(line: str, line_no: int = 0) -> TweetRecord:
    """Parse one serialized record.

    Raises :class:`ParseError` (carrying the line number) on malformed
    input; callers are expected to skip and count such lines, never abort.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line_no) from None
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", line_no)
    try:
        tweet_id = str(obj["id"])
        user_id = str(obj["user"])
        raw_ts = obj["ts"]
        text = obj["text"]
    except KeyError as exc:
        raise ParseError(f"missing required field {exc.args[0]!r}", line_no) from None
    if not isinstance(text, str):
        raise ParseError("field 'text' is not a string", line_no)
    try:
        created_at = _parse_timestamp(str(raw_ts))
    except ParseError as exc:
        raise ParseError(exc.reason, line_no) from None

    raw_tags = obj.get("hashtags")
    if raw_tags is not None:
        # Trusted when present; normalized to the extraction convention.
        seen: dict[str, None] = {}
        for tag in raw_tags:
            seen.setdefault(str(tag).lstrip("#").lower())
        hashtags = [t for t in seen if t]
    else:
        hashtags = extract_hashtags(text)

    day = obj.get("t")
    stance = obj.get("stance")
    return TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=created_at,
        text=text,
        hashtags=hashtags,
        day=int(day) if day is not None else None,
        stance=str(stance) if stance is not None else None,
    )


def record_to_json(record: TweetRecord) -> str:
    """Serialize a record to the corpus line format (round-trips via parse_record)."""
    obj: dict = {
        "id": record.tweet_id,
        "user": record.user_id,
        "ts": record.created_at.isoformat(),
        "text": record.text,
        "hashtags": record.hashtags,
    }
    if record.day is not None:
        obj["t"] = record.day
    if record.stance is not None:
        obj["stance"] = record.stance
    return json.dumps(obj, ensure_ascii=False)


def matches_query(record: TweetRecord, qs: QuerySet) -> bool:
    """True iff any query's terms all appear (case-insensitive) in the text."""
    lowered = record.text.lower()
    return any(all(term in lowered for term in terms) for terms in qs.queries)


def effective_date(record: TweetRecord, day_offset_hours: float = 0) -> date:
    """Calendar date of a record once the day boundary is shifted."""
    shifted = record.created_at + timedelta(hours=day_offset_hours)
    return shifted.date()


def assign_day(record: TweetRecord, origin_date: date, day_offset_hours: float = 0) -> int:
    """Day index of a record: 1 + whole days since the origin date.

    Day boundaries are UTC calendar days; ``day_offset_hours`` shifts the
    boundary (e.g. -3 for Argentina local days). Records before the origin
    raise :class:`BeforeOriginError`.
    """
    delta = (effective_date(record, day_offset_hours) - origin_date).days
    if delta < 0:
        raise BeforeOriginError(
            f"record {record.tweet_id} at {record.created_at.isoformat()} "
            f"predates origin {origin_date.isoformat()}"
        )
    return delta + 1


def day_to_date(day: int, origin_date: date) -> date:
    return origin_date + timedelta(days=day - 1)


def _opener(path: str):
    return gzip.open if str(path).endswith(".gz") else open


def open_text(path: str, mode: str = "rt") -> TextIO:
    """Open a text file, transparently gzipped when the path ends in .gz."""
    return _opener(path)(path, mode, encoding="utf-8")


@contextmanager
def atomic_text(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Text writer that commits via a temp file and a rename; gzip by .gz suffix.

    The temp file sits beside ``path``. If the ``with`` block or the final
    flush fails, the temp file is removed and ``path`` is left untouched.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with _opener(path)(tmp, "wt", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def iter_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (line_no, line) pairs, 1-based, skipping blank lines.

    A truncated or corrupt gzip stream raises :class:`OSError`, like any
    other read failure.
    """
    with open_text(path) as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped:
                    yield line_no, stripped
        except (EOFError, zlib.error) as exc:
            raise OSError(f"{path}: damaged gzip stream: {exc}") from None
