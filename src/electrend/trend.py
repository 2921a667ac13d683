"""Per-user daily stance counters and the two trend indicators.

Each user accumulates three counters per day: tweets favoring MP, tweets
favoring FF, and everything else they say about the race. A user's verdict
on day T compares the MP and FF sums either over a trailing window of w
days (the instantaneous indicator) or from an origin day onward (the
cumulative indicator):

* more MP than FF tweets -> MP; fewer -> FF; equal and positive -> Undecided;
* cumulative only: active in the range but no MP/FF evidence -> Unclassified.

A :class:`CounterTable` is built once, from ``(user, day, stance)`` tweets;
it is the one place that maps a stance to its counter (:data:`STANCE_CLASS`).
Days are the 1-based indices ``ingest`` assigns; the table never dates a
tweet itself. It folds the tweets into one (mp, ff, other) row per active
user-day, sorted by (user, day). A verdict can change only on a day a row
enters the range (and, for a window, on the day it leaves), so every
estimator is one event sweep: running sums per user at those change points,
then a per-day tally of verdicts entering and leaving each category. A
series costs O(rows), a k-origin sweep O(k x rows), and memory is
O(users + rows).

``table.categories(mode, day, window=..., start_day=...)`` gives the per-user
verdicts of one day with the arguments of :func:`electrend.synth.oracle_categories`,
so the two compare directly. ``series(table, mode, window=..., start_day=...)``
takes the same arguments and gives one point per day through the table's
last day; :func:`first_day` checks them for both queries. A trend CSV and the
sweep summary share one row format.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import day_to_date
from .stance import Stance

__all__ = [
    "UserCategory",
    "TrendPoint",
    "CounterTable",
    "SweepResult",
    "first_day",
    "series",
    "sweep_t0",
    "user_weights",
    "apply_demographic_weights",
    "write_trend_csv",
    "write_sweep_summary",
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


# Stance -> class column of the table: 0 favors MP, 1 favors FF, and every
# other stance (pro_third, neutral) is 2, talk about the race that backs neither.
STANCE_CLASS = {Stance.PRO_MP.value: 0, Stance.PRO_FF.value: 1}
OTHER_CLASS = 2


def _verdicts(sums: np.ndarray, cumulative: bool) -> np.ndarray:
    """Category codes of (mp, ff, other) sum rows; Unclassified only when ``cumulative``."""
    s_mp, s_ff = sums[:, 0], sums[:, 1]
    cases = [s_mp > s_ff, s_mp < s_ff, s_mp > 0, sums.any(axis=1) & cumulative]
    choices = [CODE_MP, CODE_FF, CODE_UNDECIDED, CODE_UNCLASSIFIED]
    return np.select(cases, choices, CODE_NONE).astype(np.int8)


def first_day(mode: str, day: int, window: int | None = None, start_day: int | None = None) -> int:
    """The first day a verdict on ``day`` counts; the argument checks of every query.

    :meth:`CounterTable.categories` and :func:`series` (with ``day`` its
    last day) check their arguments here and nowhere else. ``instant`` needs
    a ``window`` >= 1 (its range is clamped at day 1), ``cumulative`` a
    ``start_day`` in [1, ``day``]; anything else is a ``ValueError``.
    """
    if mode == "instant":
        if window is None:
            raise ValueError("instant mode needs a window length")
        if window < 1:
            raise ValueError("window must be >= 1")
        return max(1, day - window + 1)
    if mode != "cumulative":
        raise ValueError(f"unknown mode {mode!r}")
    if start_day is None:
        raise ValueError("cumulative mode needs a start day")
    if not 1 <= start_day <= day:
        raise ValueError("need 1 <= start_day <= day")
    return start_day


class CounterTable:
    """Stance counters for a whole corpus, one row per active (user, day).

    Built once, from tweets ``(user, day, stance)``, and never changed: the
    sorted user names, and per active user-day the user's index, the day and
    the (mp, ff, other) counts, sorted by (user, day). A stance is a
    :class:`Stance` or its string value; a day below 1 is a ``ValueError``.
    """

    def __init__(self, tweets: Iterable[tuple[str, int, Stance | str]] = ()):
        codes: dict[str, int] = {}
        users, days, classes = array("q"), array("q"), array("q")
        for user, day, stance in tweets:
            users.append(codes.setdefault(user, len(codes)))
            days.append(day)
            classes.append(STANCE_CLASS.get(stance, OTHER_CLASS))
        day = np.frombuffer(days, dtype=np.int64)
        if len(day) and day.min() < 1:
            raise ValueError(f"day index must be >= 1, got {day.min()}")
        self.n_days = int(day.max()) if len(day) else 0
        self.users = sorted(codes)
        rank = {u: i for i, u in enumerate(self.users)}
        sorted_code = np.array([rank[u] for u in codes], dtype=np.int64)
        user = sorted_code[np.frombuffer(users, dtype=np.int64)]
        span = self.n_days + 1
        keys, inverse = np.unique(user * span + day, return_inverse=True)
        del user, day
        klass = np.frombuffer(classes, dtype=np.int64)
        self._counts = np.stack([np.bincount(inverse[klass == c], minlength=len(keys)) for c in range(3)], axis=1)
        self._user, self._day = np.divmod(keys, span)

    # -- views ---------------------------------------------------------

    def to_sparse(self) -> dict[str, dict[int, tuple[int, int, int]]]:
        """Plain-data copy of the counters (user -> day -> counts)."""
        sparse: dict[str, dict[int, tuple[int, int, int]]] = {}
        for u, d, c in zip(self._user.tolist(), self._day.tolist(), self._counts.tolist()):
            sparse.setdefault(self.users[u], {})[d] = tuple(c)
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
        user, day, counts = self._user, self._day, self._counts
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

    def categories(
        self, mode: str, day: int, window: int | None = None, start_day: int | None = None
    ) -> dict[str, UserCategory]:
        """Each user's verdict on ``day``, omitting users in no category.

        ``instant`` judges the trailing ``window`` days, ``cumulative`` the days
        from ``start_day``, both through :func:`first_day`, as the oracle does.
        """
        first = first_day(mode, day, window, start_day)
        user, _, after, _ = self._change_points(day, first, window if mode == "instant" else None)
        last = np.diff(user, append=-1) != 0
        return {
            self.users[u]: CODE_TO_CATEGORY[code]
            for u, code in zip(user[last].tolist(), after[last].tolist())
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


def series(
    table: CounterTable, mode: str, window: int | None = None, start_day: int | None = None,
    origin_date: date | None = None, weights: np.ndarray | None = None, include_undecided: bool = True,
) -> list[TrendPoint]:
    """One point per day, ``instant`` from day 1 and ``cumulative`` from ``start_day``, to the last day.

    The arguments are those of :meth:`CounterTable.categories`. ``include_undecided``
    keeps Undecided users in the instant denominator; ``weights`` (one per
    user, see :func:`user_weights`) reweights the counts.
    """
    horizon = table.n_days
    if not horizon:
        return []
    first_day(mode, horizon, window, start_day)
    start, window = (1, window) if mode == "instant" else (start_day, None)
    user, day, after, before = table._change_points(horizon, start, window)
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
    return [_make_point(d, mode, counts[d][1:], origin_date, include_undecided) for d in range(start, horizon + 1)]


@dataclass(frozen=True)
class SweepResult:
    """Cumulative series per origin day plus final-day dispersion."""

    final_day: int
    series: dict[int, list[TrendPoint]]
    spread_pct_ff: float
    spread_pct_mp: float


def sweep_t0(
    table: CounterTable, start_days: Sequence[int], origin_date: date | None = None
) -> SweepResult:
    """Recompute the cumulative indicator from several origin days.

    Every series runs to the table's last day. The dispersion summary is the
    max pairwise spread (max minus min) of the FF and MP percentages on that
    day; origins whose final point has an empty denominator are excluded
    from the spread.
    """
    if not start_days:
        raise ValueError("need at least one origin day")
    by_origin = {
        t0: series(table, "cumulative", start_day=t0, origin_date=origin_date)
        for t0 in sorted(set(start_days))
    }
    finals_ff = [s[-1].pct_ff for s in by_origin.values() if s and s[-1].pct_ff is not None]
    finals_mp = [s[-1].pct_mp for s in by_origin.values() if s and s[-1].pct_mp is not None]
    spread_ff = max(finals_ff) - min(finals_ff) if finals_ff else 0.0
    spread_mp = max(finals_mp) - min(finals_mp) if finals_mp else 0.0
    return SweepResult(
        final_day=table.n_days, series=by_origin, spread_pct_ff=spread_ff, spread_pct_mp=spread_mp
    )


# -- demographic reweighting --------------------------------------------

def user_weights(
    users: Sequence[str], weights: Mapping[str, float], user_strata: Mapping[str, str]
) -> np.ndarray:
    """Each user's stratum weight, in ``users`` order.

    Users in strata absent from ``weights`` and users with no stratum both
    get weight 1, so the identity weighting reproduces the unweighted counts.
    A negative or non-finite weight is a ``ValueError``.
    """
    for stratum, weight in weights.items():
        if not 0 <= weight < math.inf:
            raise ValueError(f"weight {weight} for stratum {stratum!r} is not a finite number >= 0")
    return np.array([weights.get(user_strata.get(u), 1.0) for u in users], dtype=np.float64)


def apply_demographic_weights(
    point: TrendPoint,
    weights: Mapping[str, float],
    user_strata: Mapping[str, str],
    categories: Mapping[str, UserCategory],
) -> TrendPoint:
    """Reweight a point's category counts by stratum weights (see :func:`user_weights`).

    ``categories`` is the per-user verdict map the point was built from
    (see :meth:`CounterTable.categories`). The input point is not
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


def _row(p: TrendPoint) -> list:
    """The fields ``T`` to ``denominator`` of a trend CSV row."""
    counts = (p.n_mp, p.n_ff, p.n_undecided, p.n_unclassified)
    pcts = (p.pct_ff, p.pct_mp, p.pct_others)
    return [p.day, *map(_fmt_count, counts), *map(_fmt_pct, pcts), _fmt_count(p.denominator)]


def write_trend_csv(points: Iterable[TrendPoint], fh) -> None:
    """One row per point under :data:`TREND_CSV_COLUMNS`, CRLF line ends."""
    writer = csv.writer(fh)
    writer.writerow(TREND_CSV_COLUMNS)
    for p in points:
        writer.writerow([p.date.isoformat() if p.date else "", *_row(p)])


def write_sweep_summary(result: SweepResult, fh) -> None:
    """The sweep summary: one row per origin, LF line ends.

    A row is the origin's date (its day index when the calendar is unknown),
    its day, then its series' final trend CSV row from ``T`` on.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("t0", "start_day", "final_day", *TREND_CSV_COLUMNS[2:]))
    for t0, points in sorted(result.series.items()):
        first = points[0]
        writer.writerow([first.date.isoformat() if first.date else t0, t0, *_row(points[-1])])


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
