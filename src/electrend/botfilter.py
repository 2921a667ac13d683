"""Bot-like account scoring: per-user activity profiles and three rules.

Three desk-scale rules on per-user activity profiles: a daily-rate cap, a
duplicate-text cap and an inter-tweet-gap floor. Each fired rule adds a
third to a score in [0, 1]; accounts at or above the threshold are flagged.
The three caps and the threshold are configuration; the equal weights are not.
:func:`electrend.ingest.ingest_lines` profiles users on their pipeline days
(:class:`ActivityTracker`), scores them (:func:`flag_bots`) and drops every
record of a flagged account.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import lru_cache
from hashlib import blake2b
from typing import Iterable

__all__ = [
    "UserActivity",
    "BotVerdict",
    "BotConfig",
    "ActivityTracker",
    "score_user",
    "flag_bots",
    "write_report_csv",
]


@dataclass(frozen=True)
class UserActivity:
    """Aggregate activity features for one account."""

    user_id: str
    total_tweets: int
    active_days: int
    max_tweets_per_day: int
    duplicate_text_ratio: float  # 1 - distinct normalized texts / total
    mean_inter_tweet_seconds: float  # inf for single-tweet accounts


@dataclass(frozen=True)
class BotVerdict:
    user_id: str
    score: float
    is_bot: bool
    triggered_rules: tuple[str, ...]


@dataclass(frozen=True)
class BotConfig:
    """Rule caps and the decision threshold."""

    rate_cap: int = 72  # max tweets per day before the rate rule fires
    dup_cap: float = 0.8  # duplicate-text ratio cap
    gap_floor: float = 30.0  # seconds; mean gap below this fires the burst rule
    threshold: float = 0.5


@lru_cache(maxsize=1024)  # bots repeat a few texts; the bound keeps memory at 8 bytes a record
def _text_key(text: str) -> int:
    # Deterministic across runs, unlike hash(str).
    normalized = " ".join(text.lower().split())
    return int.from_bytes(blake2b(normalized.encode("utf-8"), digest_size=8).digest(), "big")


@dataclass
class _UserState:
    total: int = 0
    day_counts: dict = field(default_factory=dict)
    texts: array = field(default_factory=lambda: array("Q"))  # one text key per record
    first_ts: float = math.inf
    last_ts: float = -math.inf


class ActivityTracker:
    """Streaming per-user profile accumulation (one pass over the corpus)."""

    def __init__(self):
        self._users: dict[str, _UserState] = {}

    def add(self, user_id: str, created_at: datetime, text: str, day: date) -> None:
        """Count one tweet; ``day`` is its pipeline day (its effective date), which the rate rule counts."""
        state = self._users.get(user_id)
        if state is None:
            state = self._users[user_id] = _UserState()
        state.total += 1
        state.day_counts[day] = state.day_counts.get(day, 0) + 1
        state.texts.append(_text_key(text))
        ts = created_at.timestamp()
        state.first_ts = min(state.first_ts, ts)
        state.last_ts = max(state.last_ts, ts)

    def merge(self, other: ActivityTracker) -> None:
        """Take over the records ``other`` counted, as if they had been added here."""
        for user_id, theirs in other._users.items():
            state = self._users.get(user_id)
            if state is None:
                self._users[user_id] = theirs
                continue
            state.total += theirs.total
            for day, n in theirs.day_counts.items():
                state.day_counts[day] = state.day_counts.get(day, 0) + n
            state.texts.extend(theirs.texts)
            state.first_ts = min(state.first_ts, theirs.first_ts)
            state.last_ts = max(state.last_ts, theirs.last_ts)

    def profiles(self) -> dict[str, UserActivity]:
        out = {}
        for user_id, s in self._users.items():
            if s.total >= 2:
                # Mean of consecutive gaps telescopes to (last-first)/(n-1).
                mean_gap = (s.last_ts - s.first_ts) / (s.total - 1)
            else:
                mean_gap = math.inf
            out[user_id] = UserActivity(
                user_id=user_id,
                total_tweets=s.total,
                active_days=len(s.day_counts),
                max_tweets_per_day=max(s.day_counts.values()),
                duplicate_text_ratio=1.0 - len(set(s.texts)) / s.total,
                mean_inter_tweet_seconds=mean_gap,
            )
        return out


def score_user(activity: UserActivity, config: BotConfig = BotConfig()) -> BotVerdict:
    """Deterministic score, a third per fired rule; is_bot iff score >= threshold."""
    fired = []
    if activity.max_tweets_per_day > config.rate_cap:
        fired.append("rate")
    if activity.duplicate_text_ratio > config.dup_cap:
        fired.append("duplication")
    if activity.mean_inter_tweet_seconds < config.gap_floor:
        fired.append("burst")
    score = len(fired) / 3  # the same floats as adding 1/3 per fired rule
    return BotVerdict(
        user_id=activity.user_id,
        score=score,
        is_bot=score >= config.threshold,
        triggered_rules=tuple(fired),
    )


def flag_bots(
    tracker: ActivityTracker, config: BotConfig = BotConfig()
) -> tuple[list[BotVerdict], set[str]]:
    """Score every tracked user: verdicts sorted by user id, and the flagged ids."""
    verdicts = [score_user(a, config) for _, a in sorted(tracker.profiles().items())]
    return verdicts, {v.user_id for v in verdicts if v.is_bot}


def write_report_csv(verdicts: Iterable[BotVerdict], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["user_id", "score", "is_bot", "triggered_rules"])
    for v in verdicts:
        writer.writerow([v.user_id, f"{v.score:.4f}", str(v.is_bot).lower(), "|".join(v.triggered_rules)])
