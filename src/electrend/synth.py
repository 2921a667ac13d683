"""Synthetic electorates with known ground truth, plus brute-force oracles.

The generator draws a true stance per user (FF, MP or third), a per-user
activity rate (gamma-heterogeneous Poisson), and emits tweets whose text
carries the camp's vocabulary and, with some probability, one of the
camp's seed hashtags. A per-tweet cross-talk probability flips the
signal to the opposing major formula (FF emits MP-flavored content and
vice versa), modeling classifier noise and ambivalent users. Third-camp
tweets are never flipped: the category comparison weighs only major-camp
evidence, so even rare stray FF/MP signals would expel virtually every
long-horizon third user from the Unclassified category and make the
scheduled mix unrecoverable. Optional planted bots tweet at high rate
with duplicated text, and an optional drift schedule changes the stance
mix (users redraw their stance at each drift boundary).

Everything derives from per-user RNG substreams of one seed, so output is
byte-identical regardless of generation order or parallelism. A user's
tweet draws are made in one batch per kind, and only the days on which
it tweets are visited, so generation costs O(users + tweets), not
O(users x days).

``oracle_categories`` re-derives user verdicts by literal day-by-day
loops, sharing no summation code with the aggregation module; it is the
reference the fast path is checked against.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from hashlib import blake2b
from itertools import islice
from typing import Iterator, Mapping, Sequence

import numpy as np

from .ingest import TweetRecord, record_to_json
from .stance import DEFAULT_SEEDS
from .trend import TrendColumns, UserCategory, first_day

__all__ = [
    "ElectorateSpec",
    "GroundTruth",
    "iter_records",
    "write_corpus",
    "ground_truth",
    "oracle_categories",
    "RecoveryReport",
    "recovery_report",
    "generate_planted_tag_corpus",
]

SPEC_FORMAT_VERSION = 1

Mix = tuple[float, float, float]  # (p_ff, p_mp, p_third)

_CAMPS = ("ff", "mp", "third")

# Every synthetic tweet mentions one of these so the corpus passes the
# candidate-name ingest queries; the choice is uniform and therefore
# carries no stance signal.
_NAME_REFS = ("macri", "cfk", "kirchner", "lavagna", "pichetto", "alferdez")

_UTC = timezone.utc

# The largest mean numpy's Generator.poisson accepts.
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10

# The most tweets a user may expect over a run (its rate times n_days, a bot's too):
# a user's draws are held in memory at once, about 135 bytes a tweet.
MAX_USER_TWEETS = 10**6

# Each camp's default seed tags, sorted; a seeded synthetic tweet carries one.
_SEED_LISTS = {camp: sorted(t for t, c in DEFAULT_SEEDS.items() if c == camp) for camp in _CAMPS}


def _check_mix(mix: Sequence[float], what: str) -> Mix:
    if len(mix) != 3:
        raise ValueError(f"{what} must have three components (ff, mp, third)")
    if not all(0 <= p <= 1 for p in mix):
        raise ValueError(f"{what} components must lie in [0, 1]")
    if abs(sum(mix) - 1.0) > 1e-9:
        raise ValueError(f"{what} must sum to 1, got {sum(mix)!r}")
    return tuple(float(p) for p in mix)


@dataclass(frozen=True)
class ElectorateSpec:
    """Parameters of a synthetic electorate run."""

    n_users: int
    n_days: int
    mix: Mix = (0.475, 0.309, 0.216)
    mean_rate: float = 0.5  # expected tweets per user-day
    rate_shape: float = 2.0  # gamma shape of the per-user rate; lower = more skew
    crosstalk: float = 0.05  # per-tweet probability of an opposing-formula signal (FF<->MP)
    seed_rate: float = 0.6  # probability a tweet carries a camp seed hashtag
    bot_fraction: float = 0.0  # leading fraction of users generated as bots
    bot_rate: int = 150  # bot tweets per day, identical text
    drift: tuple[tuple[int, Mix], ...] = ()  # (from_day, mix) overrides, users redraw
    start_date: date = date(2019, 3, 1)
    rng_seed: int = 20190811
    vocab_size: int = 50  # camp-specific words per camp
    common_vocab_size: int = 30

    def __post_init__(self):
        if self.n_users < 0 or self.n_days < 1:
            raise ValueError("need n_users >= 0 and n_days >= 1")
        # ingest refuses a timestamp on the calendar's first or last day, so the corpus keeps off both
        if not (date.min < self.start_date and self.n_days <= (date.max - self.start_date).days):
            raise ValueError(
                f"{self.n_days} days from {self.start_date} leave the calendar: "
                f"every day must lie strictly between {date.min} and {date.max}"
            )
        object.__setattr__(self, "mix", _check_mix(self.mix, "mix"))
        if not 0 <= self.crosstalk < 0.5:
            raise ValueError("crosstalk must lie in [0, 0.5)")
        if not 0 <= self.seed_rate <= 1:
            raise ValueError("seed_rate must lie in [0, 1]")
        if not 0 <= self.bot_fraction < 1:
            raise ValueError("bot_fraction must lie in [0, 1)")
        if type(self.bot_rate) is not int or self.bot_rate < 0:  # bool is not a rate
            raise ValueError("bot_rate must be an integer >= 0")
        if self.bot_rate > MAX_USER_TWEETS:  # past any run, and past a float if long enough
            raise ValueError(f"bot_rate must be at most {MAX_USER_TWEETS}, the tweets a user may have over a run")
        if type(self.rng_seed) is not int or self.rng_seed < 0:  # numpy takes no negative seed
            raise ValueError("rng_seed must be an integer >= 0")
        if not (0 < self.mean_rate < math.inf and 0 < self.rate_shape < math.inf):
            raise ValueError("mean_rate and rate_shape must be finite and positive")
        checked = tuple(
            (int(day), _check_mix(mix, f"drift mix at day {day}")) for day, mix in self.drift
        )
        for day, _ in checked:
            if not 1 < day <= self.n_days:
                raise ValueError(f"drift day {day} outside (1, n_days]")
        object.__setattr__(self, "drift", tuple(sorted(checked)))

    # -- derived views --------------------------------------------------

    @property
    def n_bots(self) -> int:
        return int(round(self.bot_fraction * self.n_users))

    @property
    def phases(self) -> list[tuple[int, Mix]]:
        """(from_day, mix) segments covering days 1..n_days."""
        return [(1, self.mix), *self.drift]

    def mix_for_day(self, day: int) -> Mix:
        current = self.mix
        for from_day, mix in self.drift:
            if day >= from_day:
                current = mix
        return current

    @property
    def run_id(self) -> str:
        digest = blake2b(
            json.dumps(self.to_dict(), sort_keys=True).encode(), digest_size=6
        )
        return digest.hexdigest()

    # -- spec file ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec_version": SPEC_FORMAT_VERSION,
            "n_users": self.n_users,
            "n_days": self.n_days,
            "mix": list(self.mix),
            "mean_rate": self.mean_rate,
            "rate_shape": self.rate_shape,
            "crosstalk": self.crosstalk,
            "seed_rate": self.seed_rate,
            "bot_fraction": self.bot_fraction,
            "bot_rate": self.bot_rate,
            "drift": {str(day): list(mix) for day, mix in self.drift},
            "start_date": self.start_date.isoformat(),
            "rng_seed": self.rng_seed,
            "vocab_size": self.vocab_size,
            "common_vocab_size": self.common_vocab_size,
        }

    def save(self, fh) -> None:
        """The spec as indented, key-sorted JSON to ``fh``."""
        json.dump(self.to_dict(), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")

    @classmethod
    def from_dict(cls, obj: dict) -> "ElectorateSpec":
        version = obj.get("spec_version")
        if version != SPEC_FORMAT_VERSION:
            raise ValueError(f"unsupported spec version: {version!r}")
        fields = {k: v for k, v in obj.items() if k != "spec_version"}
        fields["mix"] = tuple(fields["mix"])
        fields["drift"] = tuple(
            (int(day), tuple(mix)) for day, mix in sorted(fields.get("drift", {}).items(), key=lambda kv: int(kv[0]))
        )
        fields["start_date"] = date.fromisoformat(fields["start_date"])
        return cls(**fields)

    @classmethod
    def load(cls, path: str) -> "ElectorateSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class GroundTruth:
    """True per-user stance and bot status, plus the scheduled daily mix."""

    run_id: str
    stance_of: dict[str, str]  # user -> camp on day 1
    is_bot: dict[str, bool]
    mix_by_day: list[Mix]  # index day-1 -> scheduled (p_ff, p_mp, p_third)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "stance", "is_bot"])
        for user_id in sorted(self.stance_of):
            writer.writerow([user_id, self.stance_of[user_id], str(self.is_bot[user_id]).lower()])


def _user_id(index: int) -> str:
    return f"u{index:06d}"


def _user_params(spec: ElectorateSpec, index: int) -> tuple[list[str], float, bool]:
    """(stance per phase, tweets/day rate, is_bot) for one user.

    Drawn from a dedicated substream so ground truth is computable without
    generating any tweets. A rate that numpy cannot draw tweets from, or
    that expects more than :data:`MAX_USER_TWEETS` over the run, is a
    ``ValueError``.
    """
    rng = np.random.default_rng((spec.rng_seed, index, 0))
    stances = []
    for _, mix in spec.phases:
        u = rng.random()
        if u < mix[0]:
            stances.append("ff")
        elif u < mix[0] + mix[1]:
            stances.append("mp")
        else:
            stances.append("third")
    is_bot = index < spec.n_bots
    if is_bot:
        rate = float(spec.bot_rate)
    else:
        rate = float(rng.gamma(spec.rate_shape, spec.mean_rate / spec.rate_shape))
        if not rate <= _POISSON_LAM_MAX:  # too large, or NaN from an infinite gamma scale
            raise ValueError(f"user {_user_id(index)} draws a rate of {rate} tweets a day, which numpy cannot draw from")
    if rate * spec.n_days > MAX_USER_TWEETS:
        raise ValueError(
            f"user {_user_id(index)} expects {rate * spec.n_days:.6g} tweets over {spec.n_days} days, "
            f"more than the {MAX_USER_TWEETS} a user may have"
        )
    return stances, rate, is_bot


def ground_truth(spec: ElectorateSpec) -> GroundTruth:
    stance_of = {}
    is_bot = {}
    for index in range(spec.n_users):
        stances, _, bot = _user_params(spec, index)
        uid = _user_id(index)
        stance_of[uid] = stances[0]
        is_bot[uid] = bot
    mix_by_day = [spec.mix_for_day(d) for d in range(1, spec.n_days + 1)]
    return GroundTruth(
        run_id=spec.run_id, stance_of=stance_of, is_bot=is_bot, mix_by_day=mix_by_day
    )


def _phase_starts(spec: ElectorateSpec) -> list[int]:
    return [from_day for from_day, _ in spec.phases]


def _user_records(spec: ElectorateSpec, index: int) -> Iterator[TweetRecord]:
    stances, rate, is_bot = _user_params(spec, index)
    uid = _user_id(index)
    rng = np.random.default_rng((spec.rng_seed, index, 1))
    day_one = datetime.combine(spec.start_date, datetime.min.time(), tzinfo=_UTC)

    if is_bot:
        camp = stances[0]
        tag = _SEED_LISTS[camp][0] if _SEED_LISTS[camp] else None
        name = _NAME_REFS[int(rng.integers(0, len(_NAME_REFS)))]
        text = f"{name} vota vota" + (f" #{tag}" if tag else "")
        seq = 0
        for offset in range(spec.n_days):
            midnight = day_one + timedelta(days=offset)
            for s in np.sort(rng.integers(0, 86400, spec.bot_rate)).tolist():
                yield TweetRecord(
                    tweet_id=f"s{index}-{seq}",
                    user_id=uid,
                    created_at=midnight + timedelta(seconds=s),
                    text=text,
                    hashtags=[tag] if tag else [],
                )
                seq += 1
        return

    daily = rng.poisson(rate, spec.n_days)
    total = int(daily.sum())
    if total == 0:
        return
    seconds = rng.integers(0, 86400, total).tolist()
    against = (rng.random(total) < spec.crosstalk).tolist()
    word_a = rng.integers(0, spec.vocab_size, total).tolist()
    word_b = rng.integers(0, spec.vocab_size, total).tolist()
    common = rng.integers(0, spec.common_vocab_size, total).tolist()
    name_pick = rng.integers(0, len(_NAME_REFS), total).tolist()
    seeded = (rng.random(total) < spec.seed_rate).tolist()
    seed_u = rng.random(total).tolist()

    # Only the days with tweets are visited: a sparse user costs its tweets, not n_days.
    starts = _phase_starts(spec)
    draws = zip(seconds, against, word_a, word_b, common, name_pick, seeded, seed_u)
    seq = 0
    active = np.flatnonzero(daily)  # day d is index d - 1
    for offset, count in zip(active.tolist(), daily[active].tolist()):
        own = stances[bisect_right(starts, offset + 1) - 1]
        midnight = day_one + timedelta(days=offset)
        for second, flip, a, b, c, n, tagged, u in islice(draws, count):
            camp = own
            if flip and own != "third":
                camp = "mp" if own == "ff" else "ff"
            text = f"{_NAME_REFS[n]} {camp}word{a:02d} {camp}word{b:02d} comun{c:02d}"
            tags: list[str] = []
            if tagged and _SEED_LISTS[camp]:
                tag = _SEED_LISTS[camp][int(u * len(_SEED_LISTS[camp]))]
                text += f" #{tag}"
                tags.append(tag)
            yield TweetRecord(
                tweet_id=f"s{index}-{seq}",
                user_id=uid,
                created_at=midnight + timedelta(seconds=second),
                text=text,
                hashtags=tags,
            )
            seq += 1


def iter_records(spec: ElectorateSpec) -> Iterator[TweetRecord]:
    """Stream the corpus user by user with bounded memory."""
    for index in range(spec.n_users):
        yield from _user_records(spec, index)


def write_corpus(spec: ElectorateSpec, fh) -> int:
    """Stream the corpus to ``fh`` as JSONL in the ingest input schema; returns the number of records."""
    n = 0
    for record in iter_records(spec):
        fh.write(record_to_json(record))
        fh.write("\n")
        n += 1
    return n


# -- brute-force category oracle ----------------------------------------


def oracle_categories(
    counts: Mapping[str, Mapping[int, Sequence[int]]],
    mode: str,
    day: int,
    window: int | None = None,
    start_day: int | None = None,
) -> dict[str, UserCategory]:
    """Literal day-by-day evaluation of the category definitions.

    ``counts`` maps user -> day -> (n_mp, n_ff, n_other). Users that fall
    in no category (no window evidence, or silent over the cumulative
    range) are omitted. Deliberately loop-based and independent of the
    aggregation module's summation paths; only the argument checks and the
    range's first day (:func:`electrend.trend.first_day`) are shared.
    """
    first = first_day(mode, day, window, start_day)
    verdicts: dict[str, UserCategory] = {}
    for user, day_counts in counts.items():
        total_mp = 0
        total_ff = 0
        total_other = 0
        t = first
        while t <= day:
            if t in day_counts:
                triple = day_counts[t]
                total_mp = total_mp + triple[0]
                total_ff = total_ff + triple[1]
                total_other = total_other + triple[2]
            t += 1
        if total_mp > total_ff:
            verdicts[user] = UserCategory.MP
        elif total_mp < total_ff:
            verdicts[user] = UserCategory.FF
        elif total_mp == total_ff and total_mp > 0:
            verdicts[user] = UserCategory.UNDECIDED
        elif mode == "cumulative" and total_other > 0:
            verdicts[user] = UserCategory.UNCLASSIFIED
    return verdicts


# -- estimator-vs-truth report ------------------------------------------


@dataclass(frozen=True)
class RecoveryRow:
    day: int
    est_ff: float
    est_mp: float
    true_ff: float
    true_mp: float

    @property
    def err_ff(self) -> float:
        return abs(self.est_ff - self.true_ff)

    @property
    def err_mp(self) -> float:
        return abs(self.est_mp - self.true_mp)


@dataclass(frozen=True)
class RecoveryReport:
    rows: tuple[RecoveryRow, ...]
    final_error_ff: float | None
    final_error_mp: float | None
    convergence_day: int | None  # first day from which both errors stay < 1 point


def recovery_report(
    columns: TrendColumns,
    truth: GroundTruth,
    series_run_id: str | None = None,
) -> RecoveryReport:
    """Per-day absolute error of a series' FF/MP percentages against the scheduled mix.

    Days with an empty denominator are skipped. ``series_run_id``, when
    given, must match the truth's run id (guards against comparing a
    series with the wrong generator run).
    """
    if series_run_id is not None and series_run_id != truth.run_id:
        raise ValueError(
            f"series run id {series_run_id!r} does not match truth run id {truth.run_id!r}"
        )
    rows = []
    for day, pct_ff, pct_mp in zip(columns.T, columns.pct_ff, columns.pct_mp):
        if pct_ff is None or pct_mp is None:
            continue
        mix = truth.mix_by_day[min(day, len(truth.mix_by_day)) - 1]
        rows.append(
            RecoveryRow(
                day=day,
                est_ff=pct_ff,
                est_mp=pct_mp,
                true_ff=100.0 * mix[0],
                true_mp=100.0 * mix[1],
            )
        )
    if not rows:
        return RecoveryReport(rows=(), final_error_ff=None, final_error_mp=None, convergence_day=None)

    convergence_day = None
    for row in reversed(rows):
        if max(row.err_ff, row.err_mp) >= 1.0:
            break
        convergence_day = row.day
    return RecoveryReport(
        rows=tuple(rows),
        final_error_ff=rows[-1].err_ff,
        final_error_mp=rows[-1].err_mp,
        convergence_day=convergence_day,
    )


# -- planted-partition corpus for the hashtag graph ---------------------


_PLANTED_BLOCKS = 3
_TAGS_PER_BLOCK = 8
_TAGS_PER_TWEET = 3
_INTER_BLOCK_PROB = 0.08


def generate_planted_tag_corpus(
    n_tweets: int = 900, rng_seed: int = 7
) -> tuple[list[TweetRecord], dict[str, int]]:
    """Tweets whose hashtags form blocks with strong intra, weak inter ties.

    Returns the records and the planted tag -> block map. Each tweet draws
    three tags from one of three blocks of eight; with probability 0.08 it
    also carries one tag from a different block, creating the weak cross
    edges. Tweets are a minute apart from 2019-03-01 00:00 UTC.
    """
    rng = np.random.default_rng(rng_seed)
    blocks = [[f"b{b}tag{i:02d}" for i in range(_TAGS_PER_BLOCK)] for b in range(_PLANTED_BLOCKS)]
    planted = {tag: b for b, tags in enumerate(blocks) for tag in tags}
    start = datetime(2019, 3, 1, tzinfo=_UTC)
    records = []
    for i in range(n_tweets):
        b = int(rng.integers(0, _PLANTED_BLOCKS))
        picks = rng.choice(_TAGS_PER_BLOCK, size=_TAGS_PER_TWEET, replace=False)
        tags = [blocks[b][int(p)] for p in sorted(picks)]
        if rng.random() < _INTER_BLOCK_PROB:
            other = int(rng.integers(0, _PLANTED_BLOCKS - 1))
            if other >= b:
                other += 1
            tags.append(blocks[other][int(rng.integers(0, _TAGS_PER_BLOCK))])
        records.append(
            TweetRecord(
                tweet_id=f"p{i}",
                user_id=f"pu{i % 40}",
                created_at=start + timedelta(minutes=i),
                text=" ".join(f"#{t}" for t in tags),
                hashtags=tags,
            )
        )
    return records, planted
