"""Per-user daily stance counters and the two trend indicators.

Each user accumulates three counters per day: tweets favoring MP, tweets
favoring FF, and everything else they say about the race. A user's verdict
on day T compares the MP and FF sums either over a trailing window of w
days (the instantaneous indicator) or from an origin day onward (the
cumulative indicator):

* more MP than FF tweets -> MP; fewer -> FF; equal and positive -> Undecided;
* cumulative only: active in the range but no MP/FF evidence -> Unclassified.

Counters accumulate sparsely per user and freeze into dense per-user
prefix-sum matrices, so any range sum is two array lookups. A full day
series costs O(users) per day after the O(users x days) freeze, and an
origin sweep over k origins costs O(k x users) instead of k full passes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import TweetRecord, day_to_date
from .stance import Stance

__all__ = [
    "UserCategory",
    "WindowConfig",
    "CumulativeConfig",
    "TrendPoint",
    "CounterTable",
    "SweepResult",
    "trend_instant",
    "trend_cumulative",
    "sweep_t0",
    "apply_demographic_weights",
    "write_trend_csv",
    "read_trend_csv",
]


class UserCategory(str, Enum):
    MP = "mp"
    FF = "ff"
    UNDECIDED = "undecided"
    UNCLASSIFIED = "unclassified"


# Vectorized category codes (0 = not in any category / inactive).
CODE_NONE = 0
CODE_MP = 1
CODE_FF = 2
CODE_UNDECIDED = 3
CODE_UNCLASSIFIED = 4

CODE_TO_CATEGORY = {
    CODE_MP: UserCategory.MP,
    CODE_FF: UserCategory.FF,
    CODE_UNDECIDED: UserCategory.UNDECIDED,
    CODE_UNCLASSIFIED: UserCategory.UNCLASSIFIED,
}


@dataclass(frozen=True)
class WindowConfig:
    """Trailing window of ``window`` days ending on ``day`` (clamped at day 1)."""

    day: int
    window: int = 14

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.day < 1:
            raise ValueError("day must be >= 1")

    @property
    def start(self) -> int:
        return max(1, self.day - self.window + 1)


@dataclass(frozen=True)
class CumulativeConfig:
    """Accumulation from ``start_day`` through ``day``, inclusive."""

    day: int
    start_day: int = 1

    def __post_init__(self):
        if not 1 <= self.start_day <= self.day:
            raise ValueError("need 1 <= start_day <= day")


@dataclass(frozen=True)
class TrendPoint:
    """One dated prediction row.

    Percentages are None when the denominator is zero; null points
    serialize as empty fields rather than fabricated zeros.
    """

    day: int
    date: date | None
    mode: str  # "instant" | "cumulative"
    n_mp: float
    n_ff: float
    n_undecided: float
    n_unclassified: float
    denominator: float
    pct_ff: float | None
    pct_mp: float | None
    pct_others: float | None


def _stance_class(stance: Stance | str) -> int:
    value = stance.value if isinstance(stance, Stance) else str(stance)
    if value == Stance.PRO_MP.value:
        return 0
    if value == Stance.PRO_FF.value:
        return 1
    return 2  # pro_third and neutral both count as "talks about the race"


class CounterTable:
    """Stance counters for a whole corpus, indexed by user and day.

    ``add`` keeps a sparse dict per user; the first range query freezes the
    table into dense int64 prefix-sum matrices of shape (users, days + 1).
    Adding more records invalidates the frozen view, so incremental updates
    and full rebuilds agree by construction.
    """

    def __init__(self):
        self._sparse: dict[str, dict[int, list[int]]] = {}
        self._n_days = 0
        self._frozen = None  # (users, index, cum_mp, cum_ff, cum_other)

    # -- building ------------------------------------------------------

    def add(self, user_id: str, day: int, stance: Stance | str) -> None:
        if day < 1:
            raise ValueError(f"day index must be >= 1, got {day}")
        days = self._sparse.get(user_id)
        if days is None:
            days = self._sparse[user_id] = {}
        counts = days.get(day)
        if counts is None:
            counts = days[day] = [0, 0, 0]
        counts[_stance_class(stance)] += 1
        self._n_days = max(self._n_days, day)
        self._frozen = None

    def add_record(self, record: TweetRecord, stance: Stance | str | None = None) -> None:
        label = stance if stance is not None else record.stance
        if record.day is None or label is None:
            raise ValueError("record needs an assigned day and a stance label")
        self.add(record.user_id, record.day, label)

    @classmethod
    def from_labeled(
        cls, records: Iterable[TweetRecord], labels: Iterable[Stance] | None = None
    ) -> "CounterTable":
        table = cls()
        if labels is None:
            for record in records:
                table.add_record(record)
        else:
            for record, label in zip(records, labels):
                table.add_record(record, label)
        return table

    # -- views ---------------------------------------------------------

    @property
    def n_days(self) -> int:
        return self._n_days

    @property
    def users(self) -> list[str]:
        return self._freeze()[0]

    def to_sparse(self) -> dict[str, dict[int, tuple[int, int, int]]]:
        """Plain-data copy of the counters (user -> day -> counts)."""
        return {
            u: {d: tuple(c) for d, c in days.items()} for u, days in self._sparse.items()
        }

    def _freeze(self):
        if self._frozen is None:
            users = sorted(self._sparse)
            n_days = self._n_days
            base = np.zeros((3, len(users), n_days + 1), dtype=np.int64)
            for row, user in enumerate(users):
                for day, counts in self._sparse[user].items():
                    base[0, row, day] = counts[0]
                    base[1, row, day] = counts[1]
                    base[2, row, day] = counts[2]
            cum = np.cumsum(base, axis=2)
            index = {u: i for i, u in enumerate(users)}
            self._frozen = (users, index, cum[0], cum[1], cum[2])
        return self._frozen

    # -- range sums and categories -------------------------------------

    def range_sums(self, start_day: int, end_day: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-user (mp, ff, other) sums over days [start_day, end_day]."""
        if start_day < 1 or end_day < start_day:
            raise ValueError(f"bad day range [{start_day}, {end_day}]")
        _, _, cum_mp, cum_ff, cum_other = self._freeze()
        hi = min(end_day, self._n_days)
        lo = min(start_day - 1, self._n_days)
        if hi <= lo:
            zero = np.zeros(cum_mp.shape[0], dtype=np.int64)
            return zero, zero.copy(), zero.copy()
        return (
            cum_mp[:, hi] - cum_mp[:, lo],
            cum_ff[:, hi] - cum_ff[:, lo],
            cum_other[:, hi] - cum_other[:, lo],
        )

    def categorize_all_instant(self, cfg: WindowConfig) -> np.ndarray:
        """Per-user category codes for the trailing window ending at cfg.day.

        Users with no MP/FF evidence in the window get CODE_NONE and are
        excluded from the instantaneous denominator.
        """
        s_mp, s_ff, _ = self.range_sums(cfg.start, cfg.day)
        codes = np.full(s_mp.shape, CODE_NONE, dtype=np.int8)
        codes[s_mp > s_ff] = CODE_MP
        codes[s_mp < s_ff] = CODE_FF
        codes[(s_mp == s_ff) & (s_mp > 0)] = CODE_UNDECIDED
        return codes

    def categorize_all_cumulative(self, cfg: CumulativeConfig) -> np.ndarray:
        """Per-user category codes for the cumulative range [start_day, day].

        Users with no tweets at all in the range get CODE_NONE; active users
        with no MP/FF evidence are CODE_UNCLASSIFIED.
        """
        s_mp, s_ff, s_other = self.range_sums(cfg.start_day, cfg.day)
        codes = np.full(s_mp.shape, CODE_NONE, dtype=np.int8)
        active = (s_mp + s_ff + s_other) > 0
        codes[active] = CODE_UNCLASSIFIED
        codes[s_mp > s_ff] = CODE_MP
        codes[s_mp < s_ff] = CODE_FF
        codes[(s_mp == s_ff) & (s_mp > 0)] = CODE_UNDECIDED
        return codes

    def categories_by_user(self, codes: np.ndarray) -> dict[str, UserCategory]:
        """Dict view of a code vector, omitting CODE_NONE users."""
        users = self.users
        return {
            users[i]: CODE_TO_CATEGORY[code]
            for i, code in enumerate(codes.tolist())
            if code != CODE_NONE
        }


# -- series assembly ----------------------------------------------------


def _make_point(
    day: int,
    mode: str,
    counts: Sequence[float],
    origin_date: date | None,
    include_undecided: bool = True,
) -> TrendPoint:
    n_mp, n_ff, n_und, n_uncl = (float(c) for c in counts)
    if mode == "instant":
        denom = n_mp + n_ff + (n_und if include_undecided else 0.0)
        others = n_und if include_undecided else None
    else:
        denom = n_mp + n_ff + n_und + n_uncl
        others = n_und + n_uncl
    if denom > 0:
        pct_ff = 100.0 * n_ff / denom
        pct_mp = 100.0 * n_mp / denom
        pct_others = 100.0 * others / denom if others is not None else None
    else:
        pct_ff = pct_mp = pct_others = None
    return TrendPoint(
        day=day,
        date=day_to_date(day, origin_date) if origin_date else None,
        mode=mode,
        n_mp=n_mp,
        n_ff=n_ff,
        n_undecided=n_und,
        n_unclassified=n_uncl,
        denominator=denom,
        pct_ff=pct_ff,
        pct_mp=pct_mp,
        pct_others=pct_others,
    )


def _code_counts(codes: np.ndarray) -> tuple[int, int, int, int]:
    tally = np.bincount(codes, minlength=5)
    return int(tally[CODE_MP]), int(tally[CODE_FF]), int(tally[CODE_UNDECIDED]), int(tally[CODE_UNCLASSIFIED])


def trend_instant(
    table: CounterTable,
    window: int = 14,
    days: Iterable[int] | None = None,
    origin_date: date | None = None,
    include_undecided: bool = True,
) -> list[TrendPoint]:
    """Instantaneous series: one point per evaluation day.

    ``include_undecided`` keeps Undecided users in the denominator
    (the default reading); pass False to report shares of MP+FF only.
    """
    if days is None:
        days = range(1, table.n_days + 1)
    points = []
    for day in days:
        codes = table.categorize_all_instant(WindowConfig(day=day, window=window))
        points.append(
            _make_point(day, "instant", _code_counts(codes), origin_date, include_undecided)
        )
    return points


def trend_cumulative(
    table: CounterTable,
    start_day: int = 1,
    days: Iterable[int] | None = None,
    origin_date: date | None = None,
) -> list[TrendPoint]:
    """Cumulative series from ``start_day``; denominator spans all four categories."""
    if days is None:
        days = range(start_day, table.n_days + 1)
    points = []
    for day in days:
        codes = table.categorize_all_cumulative(CumulativeConfig(day=day, start_day=start_day))
        points.append(_make_point(day, "cumulative", _code_counts(codes), origin_date))
    return points


@dataclass(frozen=True)
class SweepResult:
    """Cumulative series per origin day plus final-day dispersion."""

    final_day: int
    series: dict[int, list[TrendPoint]]
    spread_pct_ff: float
    spread_pct_mp: float


def sweep_t0(
    table: CounterTable,
    start_days: Sequence[int],
    final_day: int | None = None,
    origin_date: date | None = None,
) -> SweepResult:
    """Recompute the cumulative indicator from several origin days.

    The dispersion summary is the max pairwise spread (max minus min) of
    the FF and MP percentages on the final day; origins whose final point
    has an empty denominator are excluded from the spread.
    """
    if not start_days:
        raise ValueError("need at least one origin day")
    final = final_day if final_day is not None else table.n_days
    if any(t0 > final for t0 in start_days):
        raise ValueError("every origin day must be <= the final day")
    series = {}
    for t0 in sorted(set(start_days)):
        series[t0] = trend_cumulative(
            table, start_day=t0, days=range(t0, final + 1), origin_date=origin_date
        )
    finals_ff = [s[-1].pct_ff for s in series.values() if s and s[-1].pct_ff is not None]
    finals_mp = [s[-1].pct_mp for s in series.values() if s and s[-1].pct_mp is not None]
    spread_ff = max(finals_ff) - min(finals_ff) if finals_ff else 0.0
    spread_mp = max(finals_mp) - min(finals_mp) if finals_mp else 0.0
    return SweepResult(
        final_day=final, series=series, spread_pct_ff=spread_ff, spread_pct_mp=spread_mp
    )


# -- demographic reweighting --------------------------------------------

_CATEGORY_FIELD = {
    UserCategory.MP: "n_mp",
    UserCategory.FF: "n_ff",
    UserCategory.UNDECIDED: "n_undecided",
    UserCategory.UNCLASSIFIED: "n_unclassified",
}


def apply_demographic_weights(
    point: TrendPoint,
    weights: Mapping[str, float],
    user_strata: Mapping[str, str],
    categories: Mapping[str, UserCategory],
) -> TrendPoint:
    """Reweight a point's category counts by stratum weights.

    ``categories`` is the per-user verdict map the point was built from
    (see :meth:`CounterTable.categories_by_user`). Users in strata absent
    from ``weights`` and users with no stratum both get weight 1, so the
    identity weighting reproduces the unweighted point. The input point is
    not modified.
    """
    for stratum, weight in weights.items():
        if weight < 0:
            raise ValueError(f"negative weight for stratum {stratum!r}")
    sums = {cat: 0.0 for cat in UserCategory}
    for user_id in sorted(categories):
        category = categories[user_id]
        stratum = user_strata.get(user_id)
        weight = weights.get(stratum, 1.0) if stratum is not None else 1.0
        sums[category] += weight
    counts = (
        sums[UserCategory.MP],
        sums[UserCategory.FF],
        sums[UserCategory.UNDECIDED],
        sums[UserCategory.UNCLASSIFIED],
    )
    reweighted = _make_point(point.day, point.mode, counts, None, include_undecided=True)
    return replace(reweighted, date=point.date)


# -- CSV output ---------------------------------------------------------

TREND_CSV_COLUMNS = (
    "date",
    "T",
    "n_mp",
    "n_ff",
    "n_undecided",
    "n_unclassified",
    "pct_ff",
    "pct_mp",
    "pct_others",
    "denominator",
)


def _fmt_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4f}"


def _fmt_pct(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def write_trend_csv(points: Iterable[TrendPoint], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(TREND_CSV_COLUMNS)
    for p in points:
        writer.writerow(
            [
                p.date.isoformat() if p.date else "",
                p.day,
                _fmt_count(p.n_mp),
                _fmt_count(p.n_ff),
                _fmt_count(p.n_undecided),
                _fmt_count(p.n_unclassified),
                _fmt_pct(p.pct_ff),
                _fmt_pct(p.pct_mp),
                _fmt_pct(p.pct_others),
                _fmt_count(p.denominator),
            ]
        )


def read_trend_csv(fh) -> list[dict]:
    """Parse a trend CSV back into dicts with numeric fields (None for blanks)."""
    rows = []
    for row in csv.DictReader(fh):
        parsed: dict = dict(row)
        parsed["T"] = int(row["T"])
        for key in ("n_mp", "n_ff", "n_undecided", "n_unclassified", "denominator"):
            parsed[key] = float(row[key])
        for key in ("pct_ff", "pct_mp", "pct_others"):
            parsed[key] = float(row[key]) if row[key] != "" else None
        rows.append(parsed)
    return rows
