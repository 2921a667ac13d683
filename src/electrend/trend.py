"""Per-user daily stance counters and the two trend indicators.

Each user accumulates three counters per day: tweets favoring MP, tweets
favoring FF, and everything else they say about the race. A user's verdict
on day T compares the MP and FF sums either over a trailing window of w
days (the instantaneous indicator) or from an origin day onward (the
cumulative indicator):

* more MP than FF tweets -> MP; fewer -> FF; equal and positive -> Undecided;
* cumulative only: active in the range but no MP/FF evidence -> Unclassified.

The table keeps one (mp, ff, other) row per active user-day, sorted by
(user, day). A verdict can change only on a day a row enters the range
(and, for a window, on the day it leaves), so every estimator is one event
sweep: running sums per user at those change points, then a per-day tally
of verdicts entering and leaving each category. A series costs O(rows), a
k-origin sweep O(k x rows), and memory is O(users + rows).
"""

from __future__ import annotations

import csv
from array import array
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
    "user_weights",
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
N_CODES = 5

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


def _verdicts(sums: np.ndarray, cumulative: bool) -> np.ndarray:
    """Category codes of (mp, ff, other) sum rows; Unclassified only when ``cumulative``."""
    s_mp, s_ff = sums[:, 0], sums[:, 1]
    cases = [s_mp > s_ff, s_mp < s_ff, s_mp > 0, sums.any(axis=1) & cumulative]
    choices = [CODE_MP, CODE_FF, CODE_UNDECIDED, CODE_UNCLASSIFIED]
    return np.select(cases, choices, CODE_NONE).astype(np.int8)


class CounterTable:
    """Stance counters for a whole corpus, one row per active (user, day).

    ``add`` buffers tweets; the next query codes them together with the rows
    already held: the sorted user names, and per active user-day the user's
    index, the day and the (mp, ff, other) counts, sorted by (user, day).
    Incremental updates and full rebuilds therefore agree by construction.
    """

    def __init__(self):
        self._names: list[str] = []
        self._user = self._day = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros((0, 3), dtype=np.int64)
        self._new_users: list[str] = []  # tweets added since the last query
        self._new_days = array("q")
        self._new_classes = array("q")
        self._n_days = 0

    # -- building ------------------------------------------------------

    def add(self, user_id: str, day: int, stance: Stance | str) -> None:
        if day < 1:
            raise ValueError(f"day index must be >= 1, got {day}")
        self._new_users.append(user_id)
        self._new_days.append(day)
        self._new_classes.append(_stance_class(stance))
        self._n_days = max(self._n_days, day)

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
        pairs = ((r, None) for r in records) if labels is None else zip(records, labels)
        for record, label in pairs:
            table.add_record(record, label)
        return table

    def _rows(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """(sorted user names, user index, day, (mp, ff, other) counts) per active user-day."""
        if self._new_users:
            names = sorted(set(self._names).union(self._new_users))
            code = {u: i for i, u in enumerate(names)}
            held = np.array([code[u] for u in self._names], dtype=np.int64)[self._user]
            added = np.fromiter(map(code.__getitem__, self._new_users), np.int64, len(self._new_users))
            user = np.concatenate([held, added])
            day = np.concatenate([self._day, np.frombuffer(self._new_days, dtype=np.int64)])
            one_hot = np.eye(3, dtype=np.int64)[np.frombuffer(self._new_classes, dtype=np.int64)]
            span = self._n_days + 1
            keys, inverse = np.unique(user * span + day, return_inverse=True)
            counts = np.zeros((len(keys), 3), dtype=np.int64)
            np.add.at(counts, inverse, np.concatenate([self._counts, one_hot]))
            self._names, (self._user, self._day), self._counts = names, np.divmod(keys, span), counts
            self._new_users, self._new_days, self._new_classes = [], array("q"), array("q")
        return self._names, self._user, self._day, self._counts

    # -- views ---------------------------------------------------------

    @property
    def n_days(self) -> int:
        return self._n_days

    @property
    def users(self) -> list[str]:
        return self._rows()[0]

    def to_sparse(self) -> dict[str, dict[int, tuple[int, int, int]]]:
        """Plain-data copy of the counters (user -> day -> counts)."""
        names, user, day, counts = self._rows()
        sparse: dict[str, dict[int, tuple[int, int, int]]] = {}
        for u, d, c in zip(user.tolist(), day.tolist(), counts.tolist()):
            sparse.setdefault(names[u], {})[d] = tuple(c)
        return sparse

    # -- change points and categories ----------------------------------

    def _change_points(
        self, horizon: int, start_day: int = 1, window: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every (user, day) up to ``horizon`` on which a verdict can change.

        Returns (user index, day, code after, code before), sorted by
        (user, day). Without ``window`` this is the cumulative range from
        ``start_day``: a row counts from its day on. With ``window`` a row
        counts from its day d through d + window - 1 and leaves on d + window.
        """
        _, user, day, counts = self._rows()
        if window is None:
            keep = (day >= start_day) & (day <= horizon)
            user, day, counts = user[keep], day[keep], counts[keep]
        else:
            enter = day <= horizon
            leave = day + window <= horizon
            user = np.concatenate([user[enter], user[leave]])
            day = np.concatenate([day[enter], day[leave] + window])
            span = horizon + 1
            keys, inverse = np.unique(user * span + day, return_inverse=True)
            merged = np.zeros((len(keys), 3), dtype=np.int64)
            np.add.at(merged, inverse, np.concatenate([counts[enter], -counts[leave]]))
            user, day = np.divmod(keys, span)
            counts = merged
        first = np.diff(user, prepend=-1) != 0
        sums = np.cumsum(counts, axis=0)
        sums -= (sums - counts)[first][np.cumsum(first) - 1]  # drop the earlier users' rows
        after = _verdicts(sums, cumulative=window is None)
        before = np.empty_like(after)
        before[1:] = after[:-1]
        before[first] = CODE_NONE
        return user, day, after, before

    def _codes_on(self, day: int, start_day: int = 1, window: int | None = None) -> np.ndarray:
        user, _, after, _ = self._change_points(day, start_day, window)
        last = np.diff(user, append=-1) != 0
        codes = np.full(len(self.users), CODE_NONE, dtype=np.int8)
        codes[user[last]] = after[last]
        return codes

    def categorize_all_instant(self, cfg: WindowConfig) -> np.ndarray:
        """Per-user category codes for the trailing window ending at cfg.day.

        Users with no MP/FF evidence in the window get CODE_NONE and are
        excluded from the instantaneous denominator.
        """
        return self._codes_on(cfg.day, window=cfg.window)

    def categorize_all_cumulative(self, cfg: CumulativeConfig) -> np.ndarray:
        """Per-user category codes for the cumulative range [start_day, day].

        Users with no tweets at all in the range get CODE_NONE; active users
        with no MP/FF evidence are CODE_UNCLASSIFIED.
        """
        return self._codes_on(cfg.day, start_day=cfg.start_day)

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


def _weighted_tally(
    user: np.ndarray, day: np.ndarray, after: np.ndarray, weights: np.ndarray, horizon: int
) -> np.ndarray:
    """Per-day weighted category sums from change points, shape (horizon + 1, N_CODES).

    The per-user codes are kept day by day, and each category touched on a
    day is summed again: its users' weights added in sorted-user order from
    0.0, as :func:`apply_demographic_weights` adds them, so both give the
    same floats.
    """
    codes = np.full(len(weights), CODE_NONE, dtype=np.int8)
    sums = np.zeros(N_CODES)
    tally = np.zeros((horizon + 1, N_CODES))
    order = np.argsort(day, kind="stable")
    bounds = np.searchsorted(day[order], np.arange(horizon + 2))
    for d in range(horizon + 1):
        changed = order[bounds[d] : bounds[d + 1]]
        if len(changed):
            touched = np.union1d(codes[user[changed]], after[changed])
            codes[user[changed]] = after[changed]
            for code in touched[touched != CODE_NONE]:
                sums[code] = np.cumsum(np.append(0.0, weights[codes == code]))[-1]
        tally[d] = sums
    return tally


def _series(
    table: CounterTable, mode: str, days: Iterable[int], origin_date: date | None,
    weights: np.ndarray | None, include_undecided: bool = True, start_day: int = 1,
    window: int | None = None,
) -> list[TrendPoint]:
    """One point per day, from a tally of the verdicts entering and leaving each category."""
    days = list(days)
    if not days:
        return []
    if min(days) < start_day:
        raise ValueError(f"every day must be >= {start_day}")
    horizon = max(days)
    user, day, after, before = table._change_points(horizon, start_day, window)
    if weights is None:
        cells = (horizon + 1) * N_CODES
        delta = np.bincount(day * N_CODES + after, minlength=cells)
        delta -= np.bincount(day * N_CODES + before, minlength=cells)
        tally = np.cumsum(delta.reshape(horizon + 1, N_CODES), axis=0)
    elif len(weights) != len(table.users):
        raise ValueError(f"need one weight per user ({len(table.users)}), got {len(weights)}")
    else:
        tally = _weighted_tally(user, day, after, weights, horizon)
    counts = tally.tolist()
    return [_make_point(d, mode, counts[d][1:], origin_date, include_undecided) for d in days]


def trend_instant(
    table: CounterTable,
    window: int = 14,
    days: Iterable[int] | None = None,
    origin_date: date | None = None,
    include_undecided: bool = True,
    weights: np.ndarray | None = None,
) -> list[TrendPoint]:
    """Instantaneous series: one point per evaluation day.

    ``include_undecided`` keeps Undecided users in the denominator
    (the default reading); pass False to report shares of MP+FF only.
    ``weights`` (one per user, see :func:`user_weights`) reweights the counts.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    days = range(1, table.n_days + 1) if days is None else days
    return _series(table, "instant", days, origin_date, weights, include_undecided, window=window)


def trend_cumulative(
    table: CounterTable,
    start_day: int = 1,
    days: Iterable[int] | None = None,
    origin_date: date | None = None,
    weights: np.ndarray | None = None,
) -> list[TrendPoint]:
    """Cumulative series from ``start_day``; denominator spans all four categories.

    ``weights`` (one per user, see :func:`user_weights`) reweights the counts.
    """
    if start_day < 1:
        raise ValueError("start_day must be >= 1")
    days = range(start_day, table.n_days + 1) if days is None else days
    return _series(table, "cumulative", days, origin_date, weights, start_day=start_day)


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

def user_weights(
    users: Sequence[str], weights: Mapping[str, float], user_strata: Mapping[str, str]
) -> np.ndarray:
    """Each user's stratum weight, in ``users`` order.

    Users in strata absent from ``weights`` and users with no stratum both
    get weight 1, so the identity weighting reproduces the unweighted counts.
    """
    for stratum, weight in weights.items():
        if weight < 0:
            raise ValueError(f"negative weight for stratum {stratum!r}")
    return np.array([weights.get(user_strata.get(u), 1.0) for u in users], dtype=np.float64)


def apply_demographic_weights(
    point: TrendPoint,
    weights: Mapping[str, float],
    user_strata: Mapping[str, str],
    categories: Mapping[str, UserCategory],
) -> TrendPoint:
    """Reweight a point's category counts by stratum weights (see :func:`user_weights`).

    ``categories`` is the per-user verdict map the point was built from
    (see :meth:`CounterTable.categories_by_user`). The input point is not
    modified.
    """
    users = sorted(categories)
    sums = {cat: 0.0 for cat in UserCategory}
    for user_id, weight in zip(users, user_weights(users, weights, user_strata).tolist()):
        sums[categories[user_id]] += weight
    reweighted = _make_point(point.day, point.mode, [sums[c] for c in UserCategory], None)
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
