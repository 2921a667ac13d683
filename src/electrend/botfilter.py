"""Bot-like account scoring: per-user activity profiles and three rules.

Three desk-scale rules on per-user activity profiles: a daily-rate cap, a
duplicate-text cap and an inter-tweet-gap floor. Each fired rule adds a
third to a score in [0, 1]; accounts at or above the threshold are flagged.
The three caps and the threshold are configuration; the equal weights are not.
:func:`electrend.ingest.ingest_lines` profiles users on their pipeline days
(:meth:`ActivityTracker.add_ordinal`, the tracker's one way in), scores them
(:func:`flag_bots`, over :meth:`ActivityTracker.each_profile`) and drops every
record of a flagged account. A profile holds 12 bytes a kept record, its
day and a hash of its text, and is counted per day only when it is scored.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from typing import Iterable, Iterator

__all__ = [
    "UserActivity",
    "BotVerdict",
    "BotConfig",
    "ActivityTracker",
    "score_user",
    "flag_bots",
    "write_report_csv",
]


@dataclass(frozen=True, slots=True)
class UserActivity:
    """Aggregate activity features for one account."""

    user_id: str
    total_tweets: int
    active_days: int
    max_tweets_per_day: int
    duplicate_text_ratio: float  # 1 - distinct normalized texts / total
    mean_inter_tweet_seconds: float  # inf for single-tweet accounts


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=1024)  # bots repeat a few texts; the bound keeps the cache from growing with the records
def _text_key(text: str) -> int:
    # Deterministic across runs, unlike hash(str).
    normalized = " ".join(text.lower().split())
    return int.from_bytes(blake2b(normalized.encode("utf-8"), digest_size=8).digest(), "big")


class _UserState:
    """One account's kept records: the day ordinal and text key of each, 12 bytes a record, and its first and last times."""

    __slots__ = ("days", "texts", "first_ts", "last_ts")

    def __init__(self):
        self.days = array("i")  # date ordinals, at most ingest.MAX_DAY, so 32 bits hold them
        self.texts = array("Q")
        self.first_ts = math.inf
        self.last_ts = -math.inf


class ActivityTracker:
    """Streaming per-user profile accumulation (one pass over the corpus).

    Each user's state is two flat arrays, a 32-bit day ordinal and a 64-bit
    text key per record, and the times of the first and last records.
    Tweets are counted per day, and text keys told apart, only when a
    user's profile is made. A tracker pickles as its arrays' bytes, and
    :meth:`merge` extends them.
    """

    def __init__(self):
        self._users: dict[str, _UserState] = {}

    def add_ordinal(self, user_id: str, ts: float, text: str, ordinal: int) -> None:
        """Count one tweet at POSIX time ``ts`` on the pipeline day whose ``date.toordinal()`` is ``ordinal``."""
        state = self._users.get(user_id)
        if state is None:
            state = self._users[user_id] = _UserState()
        state.days.append(ordinal)
        state.texts.append(_text_key(text))
        if ts < state.first_ts:
            state.first_ts = ts
        if ts > state.last_ts:
            state.last_ts = ts

    def merge(self, other: ActivityTracker) -> None:
        """Take over the records ``other`` counted, as if they had been added here."""
        for user_id, theirs in other._users.items():
            state = self._users.get(user_id)
            if state is None:
                self._users[user_id] = theirs
                continue
            state.days.extend(theirs.days)
            state.texts.extend(theirs.texts)
            state.first_ts = min(state.first_ts, theirs.first_ts)
            state.last_ts = max(state.last_ts, theirs.last_ts)

    def each_profile(self) -> Iterator[UserActivity]:
        """Each user's profile in user id order, made only when it is reached."""
        return map(self._profile, sorted(self._users))

    def _profile(self, user_id: str) -> UserActivity:
        s = self._users[user_id]
        total = len(s.days)
        if total >= 2:
            # Mean of consecutive gaps telescopes to (last-first)/(n-1).
            mean_gap = (s.last_ts - s.first_ts) / (total - 1)
        else:
            mean_gap = math.inf
        per_day = Counter(s.days)
        return UserActivity(
            user_id=user_id,
            total_tweets=total,
            active_days=len(per_day),
            max_tweets_per_day=max(per_day.values()),
            duplicate_text_ratio=1.0 - len(set(s.texts)) / total,
            mean_inter_tweet_seconds=mean_gap,
        )


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
    """Score every tracked user, one profile at a time: verdicts sorted by user id, and the flagged ids."""
    verdicts = [score_user(a, config) for a in tracker.each_profile()]
    return verdicts, {v.user_id for v in verdicts if v.is_bot}


def write_report_csv(verdicts: Iterable[BotVerdict], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["user_id", "score", "is_bot", "triggered_rules"])
    for v in verdicts:
        writer.writerow([v.user_id, f"{v.score:.4f}", str(v.is_bot).lower(), "|".join(v.triggered_rules)])
