"""Shared fixture helpers for the test suite."""

from __future__ import annotations

import io
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from electrend.ingest import (
    IngestConfig,
    IngestResult,
    TweetRecord,
    assign_day,
    ingest_lines,
    parse_record,
    record_to_json,
)

UTC = timezone.utc
T0 = datetime(2019, 3, 1, tzinfo=UTC)

_counter = [0]


def rec(
    user: str = "u1",
    text: str = "hola",
    ts: datetime | str | None = None,
    tags: list[str] | None = None,
    day: int | None = None,
    stance: str | None = None,
    tweet_id: str | None = None,
) -> TweetRecord:
    """Terse record builder; timestamps default to a fixed instant."""
    if ts is None:
        ts = T0 + timedelta(hours=12)
    elif isinstance(ts, str):
        ts = datetime.fromisoformat(ts)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=UTC)
    if tweet_id is None:
        _counter[0] += 1
        tweet_id = f"t{_counter[0]}"
    if tags is None:
        tags = [t.lstrip("#").lower() for t in text.split() if t.startswith("#")]
    return TweetRecord(
        tweet_id=tweet_id,
        user_id=user,
        created_at=ts,
        text=text,
        hashtags=tags,
        day=day,
        stance=stance,
    )


def day_ts(day: int, second: int = 43200) -> datetime:
    """Timestamp inside day N of the fixture calendar (origin 2019-03-01)."""
    return T0 + timedelta(days=day - 1, seconds=second)


def screen(records: list[TweetRecord], **rules) -> tuple[list[TweetRecord], IngestResult]:
    """The records ``ingest_lines`` keeps, parsed back, and its result.

    The records go in as corpus lines, with no query filter and day 1 at
    the fixture origin unless ``rules`` say otherwise.
    """
    config = IngestConfig(**{"queries": None, "origin_date": T0.date(), **rules})
    out = io.StringIO()
    result = ingest_lines(enumerate(map(record_to_json, records), start=1), config, out, io.StringIO())
    return [parse_record(line) for line in out.getvalue().splitlines()], result


def dated(records: list[TweetRecord]) -> list[TweetRecord]:
    """``records`` with the day index ingest gives them against the fixture origin."""
    return [replace(r, day=assign_day(r, T0.date())) for r in records]
