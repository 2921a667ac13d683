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
user-day, sorted by (user, day): each tweet is read into an int32 user
code, an int32 day and an int8 class (9 bytes; 13 once a day passes 32
bits, when days are int64), the three are packed into one int64 key, and
one in-place sort of the keys groups the tweets of each (user, day, class)
cell. A row is 20 bytes: an int32 user, an int32 day (int64 past 32 bits)
and three int32 counts. A verdict can change only on a day a row enters
the range (and, for a window, on the day it leaves), so every estimator is
one event sweep: running sums per user at those change points, then a
per-day tally of verdicts entering and leaving each category. A series
makes its change points for a block of whole users at a time.

Every sum is a difference of running totals: the table keeps running
mp - ff and mp totals over its rows, made once, and a user's sums over a
run of its rows are the totals after the run less those before it. So a
series costs O(rows + days), a k-origin sweep one prefix pass plus
O(rows + days) per origin, and memory is O(users + rows).

``table.categories(mode, day, window=..., start_day=...)`` gives the per-user
verdicts of one day with the arguments of :func:`electrend.synth.oracle_categories`,
so the two compare directly. ``series(table, mode, window=..., start_day=...)``
takes the same arguments and gives one row per day through the table's
last day; :func:`first_day` checks them for both queries. A series is a
:class:`TrendColumns`, the columns of its trend CSV: one function
computes them from the per-day tally and one formats every trend CSV and
sweep summary row from them. :func:`sweep_columns` makes one origin's
series at a time, and :class:`SweepFinals` keeps each origin's final row.
"""

from __future__ import annotations

import csv
import math
from array import array
from datetime import date
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .ingest import day_to_date
from .stance import Stance

__all__ = [
    "UserCategory",
    "TrendColumns",
    "CounterTable",
    "SweepFinals",
    "first_day",
    "series",
    "sweep_columns",
    "user_weights",
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


class TrendColumns(NamedTuple):
    """A series as the columns of its trend CSV, one entry per day, as Python values.

    ``date`` holds None without a calendar; a percentage is None where its
    field is blank.
    """

    date: list
    T: list
    n_mp: list
    n_ff: list
    n_undecided: list
    n_unclassified: list
    pct_ff: list
    pct_mp: list
    pct_others: list
    denominator: list

    @classmethod
    def empty(cls) -> TrendColumns:
        """The columns of a series of no days."""
        return cls(*([] for _ in cls._fields))


# Stance -> class column of the table: 0 favors MP, 1 favors FF, and every
# other stance (pro_third, neutral) is 2, talk about the race that backs neither.
STANCE_CLASS = {Stance.PRO_MP.value: 0, Stance.PRO_FF.value: 1}
OTHER_CLASS = 2


def _verdicts(lead: np.ndarray, mp: np.ndarray, silent: int) -> np.ndarray:
    """Category codes from mp - ff sums (``lead``) and mp sums; ``silent`` where both are 0.

    ``silent`` is Unclassified for a cumulative range, in which every row
    counted is activity, and no category for a window.
    """
    codes = np.full(len(lead), silent, dtype=np.int8)
    codes[mp > 0] = CODE_UNDECIDED
    codes[lead < 0] = CODE_FF
    codes[lead > 0] = CODE_MP
    return codes


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where sorted ``keys`` start a run of equal values: at index 0 and wherever a key differs from the one before."""
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _widened(days: array, day: int) -> array:
    """``days`` as 64-bit values with ``day`` appended: once a day passes 32 bits; past 64 bits a ``ValueError``."""
    days = array("q", days)
    try:
        days.append(day)
    except OverflowError:
        raise ValueError(f"day index must fit in 64 bits, got {day}") from None
    return days


def _int_type(largest: int) -> type:
    """int32 when every value up to ``largest`` fits in it, else int64."""
    return np.int32 if largest < 2**31 else np.int64


def first_day(mode: str, day: int, window: int | None = None, start_day: int | None = None) -> int:
    """The first day a verdict on ``day`` counts; the argument checks of every query.

    :meth:`CounterTable.categories` and :func:`series` (with ``day`` its
    last day) check their arguments here and nowhere else. ``instant`` needs
    a ``window`` >= 1 (its range is clamped at day 1), ``cumulative`` a
    ``start_day`` in [1, ``day``], and ``day`` must fit in 64 bits, as a
    table's days do; anything else is a ``ValueError``.
    """
    if day >= 2**63:
        raise ValueError(f"day index must fit in 64 bits, got {day}")
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
    the (mp, ff, other) counts, sorted by (user, day), 20 bytes a row: int32
    columns, but int64 days once the last day passes 32 bits (and int64
    counts from 2**31 tweets on). The build reads 9 bytes a tweet (13 with
    int64 days) and packs each tweet into one int64 key. A stance is a
    :class:`Stance` or its string value; a day below 1 is a ``ValueError``,
    and so is a day past what a 64-bit key of users x (days + 1) x 3 holds.
    """

    def __init__(self, tweets: Iterable[tuple[str, int, Stance | str]] = ()):
        codes: dict[str, int] = {}
        users, days, classes = array("i"), array("i"), array("b")  # 9 bytes a tweet, 13 past a 32-bit day
        for user, day, stance in tweets:
            users.append(codes.setdefault(user, len(codes)))
            try:
                days.append(day)
            except OverflowError:
                days = _widened(days, day)
            classes.append(STANCE_CLASS.get(stance, OTHER_CLASS))
        day = np.frombuffer(days, dtype=days.typecode)
        if len(day) and day.min() < 1:
            raise ValueError(f"day index must be >= 1, got {day.min()}")
        self.n_days = int(day.max()) if len(day) else 0
        # Every key below, and every window key of _change_points, is under users x span x 3.
        if len(codes) * (self.n_days + 1) * 3 > 2**63:
            raise ValueError(f"{len(codes)} users over {self.n_days} days overflow the table's 64-bit keys")
        self.users = sorted(codes)
        rank = {u: i for i, u in enumerate(self.users)}
        sorted_code = np.array([rank[u] for u in codes], dtype=np.int64)
        # One int64 key per tweet, (user x span + day) x 3 + class, each column freed once folded in.
        span = self.n_days + 1
        key = sorted_code[np.frombuffer(users, dtype=np.int32)]
        del users
        key *= span
        key += day
        del day, days
        key *= 3
        key += np.frombuffer(classes, dtype=np.int8)
        del classes
        key.sort()
        first = _run_starts(key)
        starts = np.flatnonzero(first)
        del first
        cells = key[starts]
        # The tweets of each (user, day, class) cell, counted before the key is freed.
        in_cell = np.empty(len(starts), dtype=_int_type(len(key)))
        np.subtract(starts[1:], starts[:-1], out=in_cell[:-1])
        in_cell[-1:] = len(key) - starts[-1:]
        del key, starts
        klass = np.empty(len(cells), dtype=np.int8)
        np.remainder(cells, 3, out=klass)
        cells //= 3  # each cell's row key, user x span + day
        first = _run_starts(cells)
        keys = cells[first]
        row = np.cumsum(first, dtype=_int_type(len(first)))
        del cells, first
        row -= 1
        self._counts = np.zeros((len(keys), 3), dtype=in_cell.dtype)
        self._counts[row, klass] = in_cell  # each (row, class) cell once
        del row, klass, in_cell
        self._user = np.empty(len(keys), dtype=np.int32)
        self._day = np.empty(len(keys), dtype=_int_type(self.n_days))
        np.floor_divide(keys, span, out=self._user)
        np.remainder(keys, span, out=self._day)

    # -- views ---------------------------------------------------------

    def to_sparse(self) -> dict[str, dict[int, tuple[int, int, int]]]:
        """Plain-data copy of the counters (user -> day -> counts)."""
        sparse: dict[str, dict[int, tuple[int, int, int]]] = {}
        for u, d, c in zip(self._user.tolist(), self._day.tolist(), self._counts.tolist()):
            sparse.setdefault(self.users[u], {})[d] = tuple(c)
        return sparse

    # -- change points and categories ----------------------------------

    @cached_property
    def _totals(self) -> np.ndarray:
        """Running mp - ff and mp totals over the rows in table order, shape (2, rows + 1).

        Column i sums the rows before row i, so a user's sums over the rows
        ``lo`` to ``hi - 1`` are column ``hi`` less column ``lo``. Made on
        the first query.
        """
        mp, ff = self._counts[:, 0], self._counts[:, 1]
        totals = np.zeros((2, len(mp) + 1), dtype=np.int64)
        np.subtract(mp, ff, out=totals[0, 1:])  # each sum in place, with no 64-bit copy of a column
        totals[1, 1:] = mp
        np.cumsum(totals[:, 1:], axis=1, out=totals[:, 1:])
        return totals

    def _blocks(self, size: int) -> list[slice]:
        """The rows in slices of whole users, of about ``size`` rows each (more where one user has more)."""
        cuts = np.searchsorted(self._user, self._user[size::size]).tolist()  # the first row of a user
        bounds = sorted({0, *cuts, len(self._user)})
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def _change_points(
        self, horizon: int, start_day: int = 1, window: int | None = None, rows: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every (user, day) up to ``horizon`` on which a verdict can change, of the users of ``rows``.

        Returns (user index, day, code after, code before), sorted by
        (user, day). ``rows`` is a slice of whole users (see :meth:`_blocks`),
        by default the whole table. Without ``window`` this is the cumulative
        range from ``start_day``: a row counts from its day on, so every row
        in range is a change point, summed from its user's first row in range.
        With ``window`` a row counts from its day d through d + window - 1 and
        leaves on d + window; a change point's sums are those of its user's
        rows in the window ending on its day. Either way the sums are
        differences of :attr:`_totals`, with no cumulative sum of their own.
        """
        offset = rows.indices(len(self._user))[0]
        user, day = self._user[rows], self._day[rows]
        if window is None:
            hi = np.flatnonzero((day >= start_day) & (day <= horizon))
            user, day = user[hi], day[hi]
            hi += offset + 1  # one past each row in range
            first = _run_starts(user)
            starts = np.flatnonzero(first)
            lo = np.repeat(hi[starts] - 1, np.diff(starts, append=len(hi)))  # each row's user's first row
        else:
            window = min(window, horizon)  # a longer window leaves no row by the horizon either
            span = self.n_days + window + 1  # room for a leave day past any row's day
            keys = user.astype(np.int64)
            keys *= span
            keys += day
            # The enter keys and the leave keys are each sorted, so a stable sort merges them.
            changes = np.concatenate((keys[day <= horizon], keys[day <= horizon - window] + window))
            changes.sort(kind="stable")
            changes = changes[_run_starts(changes)]
            hi = np.searchsorted(keys, changes, side="right") + offset
            lo = np.searchsorted(keys, changes - window, side="right") + offset
            del keys
            user, day = np.divmod(changes, span)
            first = _run_starts(user)
        lead_total, mp_total = self._totals
        lead = lead_total[hi] - lead_total[lo]
        mp = mp_total[hi] - mp_total[lo]
        del hi, lo
        after = _verdicts(lead, mp, CODE_NONE if window else CODE_UNCLASSIFIED)
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
        if day > self.n_days:  # no row lies past the last day, so judge the range where the rows end
            if first > self.n_days:
                return {}
            day, window = self.n_days, self.n_days - first + 1
        user, _, after, _ = self._change_points(day, first, window if mode == "instant" else None)
        last = np.diff(user, append=-1) != 0
        return {
            self.users[u]: CODE_TO_CATEGORY[code]
            for u, code in zip(user[last].tolist(), after[last].tolist())
            if code != CODE_NONE
        }


# -- series assembly ----------------------------------------------------


# Rows of the table whose change points a series makes at once.
_BLOCK_ROWS = 1 << 12


def _columns(
    first: int, tally: np.ndarray, mode: str, origin_date: date | None, include_undecided: bool = True
) -> TrendColumns:
    """The columns of the per-day category ``tally``, shape (days, N_CODES), its first row day ``first``.

    The one place for the series math, done on whole columns with the float
    operations of scalar code in the same order: ``n_mp + n_ff + n_und
    (+ n_uncl)``, then ``100.0 * x / denom``. A zero denominator leaves the
    percentages blank.
    """
    n_mp, n_ff, n_und, n_uncl = tally[:, CODE_MP:].T.astype(np.float64)
    if mode == "instant":
        denom = n_mp + n_ff + (n_und if include_undecided else 0.0)
        others = n_und if include_undecided else None
    else:
        denom = n_mp + n_ff + n_und + n_uncl
        others = n_und + n_uncl
    shown = (denom > 0).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        pcts = [
            [pct if ok else None for pct, ok in zip((100.0 * x / denom).tolist(), shown)]
            if x is not None else [None] * len(shown)
            for x in (n_ff, n_mp, others)
        ]
    days = list(range(first, first + len(shown)))
    dates = [day_to_date(d, origin_date) for d in days] if origin_date else [None] * len(days)
    counts = [n.tolist() for n in (n_mp, n_ff, n_und, n_uncl)]
    return TrendColumns(dates, days, *counts, *pcts, denom.tolist())


def _weighted_tally(
    user: np.ndarray, day: np.ndarray, after: np.ndarray, weights: np.ndarray, horizon: int
) -> np.ndarray:
    """Per-day weighted category sums from change points, shape (horizon + 1, N_CODES).

    The per-user codes are kept day by day, and on each day with a change
    every category is summed again by one ``bincount``: its users' weights
    added in sorted-user order from 0.0, so a plain loop over the day's
    verdicts in that order gives the same floats. The ``CODE_NONE`` column
    holds the weight of the users in no category, which no series reads.
    """
    codes = np.full(len(weights), CODE_NONE, dtype=np.int8)
    sums = np.zeros(N_CODES)
    tally = np.zeros((horizon + 1, N_CODES))
    order = np.argsort(day, kind="stable")
    bounds = np.searchsorted(day[order], np.arange(horizon + 2))
    for d in range(horizon + 1):
        changed = order[bounds[d] : bounds[d + 1]]
        if len(changed):
            codes[user[changed]] = after[changed]
            sums = np.bincount(codes, weights=weights, minlength=N_CODES)
        tally[d] = sums
    return tally


def series(
    table: CounterTable, mode: str, window: int | None = None, start_day: int | None = None,
    origin_date: date | None = None, weights: np.ndarray | None = None, include_undecided: bool = True,
) -> TrendColumns:
    """One row per day, ``instant`` from day 1 and ``cumulative`` from ``start_day``, to the last day.

    The arguments are those of :meth:`CounterTable.categories`. ``include_undecided``
    keeps Undecided users in the instant denominator; ``weights`` (one per
    user, see :func:`user_weights`) reweights the counts.
    """
    horizon = table.n_days
    if not horizon:
        return TrendColumns.empty()
    first_day(mode, horizon, window, start_day)
    start, window = (1, window) if mode == "instant" else (start_day, None)
    if weights is None:
        # Summed over blocks of users, so no change point array spans the table;
        # a block has at least as many rows as the tally has cells, which each block adds.
        cells = (horizon + 1) * N_CODES
        delta = np.zeros(cells, dtype=np.int64)
        for rows in table._blocks(max(_BLOCK_ROWS, cells)):
            _, day, after, before = table._change_points(horizon, start, window, rows)
            cell = day.astype(np.int64) * N_CODES
            delta += np.bincount(cell + after, minlength=cells)
            delta -= np.bincount(cell + before, minlength=cells)
        tally = np.cumsum(delta.reshape(horizon + 1, N_CODES), axis=0)
    elif len(weights) != len(table.users):
        raise ValueError(f"need one weight per user ({len(table.users)}), got {len(weights)}")
    else:
        blocks = [table._change_points(horizon, start, window, rows)[:3] for rows in table._blocks(_BLOCK_ROWS)]
        user, day, after = (np.concatenate(column) for column in zip(*blocks))
        del blocks
        tally = _weighted_tally(user, day, after, weights, horizon)
    return _columns(start, tally[start:], mode, origin_date, include_undecided)


class SweepFinals:
    """Each origin's final trend row: the rows of the sweep summary and the spreads.

    Origins are added in day order with their whole series, of which only
    the first date and the final row are kept.
    """

    def __init__(self):
        self.origins: list[int] = []
        self.labels: list[str] = []
        self.rows = TrendColumns.empty()

    def add(self, t0: int, columns: TrendColumns) -> None:
        """Keep the final row of origin ``t0``'s series; an empty series (an empty table) adds nothing."""
        if not columns.T:
            return
        self.origins.append(t0)
        self.labels.append(columns.date[0].isoformat() if columns.date[0] else str(t0))
        for kept, column in zip(self.rows, columns):
            kept.append(column[-1])

    def spread(self, field: str) -> float:
        """Max minus min of the final ``field`` (``pct_ff`` or ``pct_mp``) over the origins that have one."""
        values = [v for v in getattr(self.rows, field) if v is not None]
        return max(values) - min(values) if values else 0.0

    def write(self, fh) -> None:
        """The sweep summary: one row per origin, LF line ends.

        A row is the origin's date (its day index when the calendar is
        unknown), its day, then its series' final trend CSV row from ``T`` on.
        """
        fh.write(",".join(("t0", "start_day", "final_day", *TREND_CSV_COLUMNS[2:])) + "\n")
        fh.write(_csv_lines([self.labels, list(map(str, self.origins))], self.rows, "\n"))


def sweep_columns(
    table: CounterTable, start_days: Sequence[int], origin_date: date | None = None
) -> Iterator[tuple[int, TrendColumns]]:
    """Each origin's cumulative series, ``(t0, columns)`` in day order, made as it is asked for.

    Every series runs to the table's last day and reads the table's one set
    of running totals; an origin outside the calendar raises when reached.
    """
    origins = sorted(set(start_days))
    if not origins:
        raise ValueError("need at least one origin day")
    return ((t0, series(table, "cumulative", start_day=t0, origin_date=origin_date)) for t0 in origins)


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


# -- CSV output ---------------------------------------------------------

TREND_CSV_COLUMNS = TrendColumns._fields


def _fmt_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4f}"


def _fmt_pct(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _csv_lines(lead: Sequence[list[str]], columns: TrendColumns, eol: str) -> str:
    """The rows of a trend CSV or sweep summary: the ``lead`` text columns, then ``T`` to ``denominator``.

    Each field is formatted column by column and each row joined once:
    counts print as an int when integral, else with four decimals, and a
    None percentage as an empty field.
    """
    fields = [
        *lead,
        list(map(str, columns.T)),
        *([_fmt_count(v) for v in column] for column in columns[2:6]),
        *([_fmt_pct(v) for v in column] for column in columns[6:9]),
        [_fmt_count(v) for v in columns.denominator],
    ]
    return "".join([",".join(row) + eol for row in zip(*fields)])


def write_trend_csv(columns: TrendColumns, fh) -> None:
    """One row per day under :data:`TREND_CSV_COLUMNS`, CRLF line ends."""
    dates = [when.isoformat() if when else "" for when in columns.date]
    fh.write(",".join(TREND_CSV_COLUMNS) + "\r\n")
    fh.write(_csv_lines([dates], columns, "\r\n"))


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
