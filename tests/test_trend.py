"""Window/cumulative sums, user categories, trend series, sweeps, weights.

Per-user verdicts are checked against ``synth.oracle_categories``, the one
brute-force reference the acceptance gate and ``validate`` also use;
reweighted series against :func:`apply_demographic_weights` below.
"""

import io
import random
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from electrend import trend
from electrend.stance import Stance
from electrend.synth import oracle_categories
from electrend.trend import (
    CounterTable,
    SweepFinals,
    TrendColumns,
    UserCategory,
    read_trend_csv,
    series,
    sweep_columns,
    user_weights,
    write_trend_csv,
)
from conftest import rec

# The fields of a series row that reweighting changes.
WEIGHED = ("n_mp", "n_ff", "n_undecided", "n_unclassified", "pct_ff", "pct_mp", "pct_others", "denominator")


def table_from(counts: dict[str, dict[int, tuple[int, int, int]]]) -> CounterTable:
    """Build a table from one tweet per unit of the explicit count triples."""
    return CounterTable(
        (user, day, stance)
        for user, days in counts.items()
        for day, triple in days.items()
        for stance, n in zip(("pro_mp", "pro_ff", "pro_third"), triple)
        for _ in range(n)
    )


@pytest.fixture
def tiny_table():
    """Three users on one day: A pro_mp, B and C pro_ff."""
    return CounterTable([("A", 1, "pro_mp"), ("B", 1, "pro_ff"), ("C", 1, "pro_ff")])


def loop_window_sum(days: dict[int, tuple[int, int, int]], day: int, window: int):
    """Naive trailing-window sums, written independently of the library."""
    s_mp = s_ff = 0
    for t in range(max(1, day - window + 1), day + 1):
        if t in days:
            s_mp += days[t][0]
            s_ff += days[t][1]
    return s_mp, s_ff


def verdict_from_sums(s_mp: int, s_ff: int) -> UserCategory | None:
    """The README's category table for MP/FF sums; None when there is no evidence."""
    if s_mp > s_ff:
        return UserCategory.MP
    if s_mp < s_ff:
        return UserCategory.FF
    return UserCategory.UNDECIDED if s_mp > 0 else None


def instant_verdict(days: dict[int, tuple[int, int, int]], day: int, window: int):
    """The oracle's window verdict for one user; None when the user is uncategorized."""
    return oracle_categories({"u": days}, "instant", day=day, window=window).get("u")


def cumulative_verdict(days: dict[int, tuple[int, int, int]], day: int, start_day: int = 1):
    """The oracle's cumulative verdict for one user; None when the user is silent."""
    return oracle_categories({"u": days}, "cumulative", day=day, start_day=start_day).get("u")


def apply_demographic_weights(
    categories: dict[str, UserCategory], weights: dict[str, float], user_strata: dict[str, str],
    mode: str, include_undecided: bool = True,
) -> dict:
    """The reweighting oracle: one day's :data:`WEIGHED` fields from that day's per-user verdicts.

    Scalar code, sharing no arithmetic with ``trend``: each category sums
    its users' stratum weights (:func:`user_weights`) in sorted-user order
    from 0.0; the denominator is ``n_mp + n_ff + n_und`` (``+ n_uncl`` when
    cumulative), then each percentage is ``100.0 * x / denom``, None for a
    zero denominator. No argument is modified.
    """
    users = sorted(categories)
    sums = dict.fromkeys(UserCategory, 0.0)
    for user, weight in zip(users, user_weights(users, weights, user_strata).tolist()):
        sums[categories[user]] += weight
    n_mp, n_ff, n_und, n_uncl = (sums[c] for c in UserCategory)
    if mode == "instant":
        denom = n_mp + n_ff + (n_und if include_undecided else 0.0)
        others = n_und if include_undecided else None
    else:
        denom = n_mp + n_ff + n_und + n_uncl
        others = n_und + n_uncl
    pcts = [None if x is None or denom == 0 else 100.0 * x / denom for x in (n_ff, n_mp, others)]
    return dict(zip(WEIGHED, (n_mp, n_ff, n_und, n_uncl, *pcts, denom)))


def row_of(columns: TrendColumns, i: int) -> dict:
    """The :data:`WEIGHED` fields of row ``i`` of a series."""
    return {field: getattr(columns, field)[i] for field in WEIGHED}


def sweep(table: CounterTable, origins, origin_date=None) -> tuple[dict[int, TrendColumns], SweepFinals]:
    """Each origin's series and the final rows, added origin by origin as the ``sweep`` subcommand adds them."""
    finals, by_origin = SweepFinals(), {}
    for t0, columns in sweep_columns(table, origins, origin_date):
        finals.add(t0, columns)
        by_origin[t0] = columns
    return by_origin, finals


class TestWindowSums:
    def test_window_clamps_to_start(self):
        days = {1: (0, 2, 0), 3: (1, 0, 0), 5: (0, 0, 1)}
        assert loop_window_sum(days, 5, 14) == (1, 2)
        assert instant_verdict(days, 5, 14) is UserCategory.FF  # day 1 stays in the window

    def test_day_before_window_excluded(self):
        days = {6: (3, 0, 0)}
        assert loop_window_sum(days, 20, 14) == (0, 0)  # window covers days 7..20
        assert instant_verdict(days, 20, 14) is None

    def test_randomized_counters_match_loop_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            days = {
                d: (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
                for d in rng.sample(range(1, 61), rng.randint(0, 25))
            }
            day = rng.randint(1, 60)
            window = rng.randint(1, 30)
            assert instant_verdict(days, day, window) is verdict_from_sums(
                *loop_window_sum(days, day, window)
            )


class TestCategorize:
    def test_mp_when_strictly_more(self):
        assert instant_verdict({1: (3, 1, 0)}, 1, 14) is UserCategory.MP

    def test_undecided_on_positive_tie(self):
        assert instant_verdict({1: (2, 2, 0)}, 1, 14) is UserCategory.UNDECIDED

    def test_zero_tie_is_uncategorized(self):
        assert instant_verdict({}, 1, 14) is None

    def test_cumulative_sums_over_range(self):
        cat = cumulative_verdict({1: (2, 0, 0), 2: (0, 1, 0), 3: (1, 0, 0)}, 3)
        assert cat is UserCategory.MP  # S_M=3 > S_F=1

    def test_only_other_content_is_unclassified(self):
        assert cumulative_verdict({2: (0, 0, 4)}, 5) is UserCategory.UNCLASSIFIED

    def test_unclassified_only_exists_cumulatively(self):
        assert instant_verdict({2: (0, 0, 4)}, 5, 14) is None

    def test_positive_tie_cumulative(self):
        assert cumulative_verdict({1: (5, 0, 0), 9: (0, 5, 0)}, 10) is UserCategory.UNDECIDED

    def test_activity_outside_range_ignored(self):
        cat = cumulative_verdict({1: (9, 0, 0), 5: (0, 1, 0)}, 9, start_day=2)
        assert cat is UserCategory.FF


class TestVectorizedAgainstReference:
    """The dense fast path must equal the brute-force oracle."""

    def random_table(self, seed, n_users=40, n_days=30):
        rng = random.Random(seed)
        counts = {}
        for i in range(n_users):
            counts[f"u{i:02d}"] = {
                d: (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                for d in rng.sample(range(1, n_days + 1), rng.randint(0, 12))
            }
        return counts, table_from(counts)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_instant_matches_per_user(self, seed):
        counts, table = self.random_table(seed)
        for day, window in [(1, 14), (7, 3), (30, 14), (15, 1), (30, 60)]:
            cfg = dict(mode="instant", day=day, window=window)
            assert table.categories(**cfg) == oracle_categories(counts, **cfg)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_cumulative_matches_per_user(self, seed):
        counts, table = self.random_table(seed)
        for day, start in [(1, 1), (30, 1), (30, 15), (20, 20)]:
            cfg = dict(mode="cumulative", day=day, start_day=start)
            assert table.categories(**cfg) == oracle_categories(counts, **cfg)

    def test_a_window_past_the_horizon_equals_the_horizon(self):
        counts, table = self.random_table(7)
        assert table.n_days == 30
        for day in (1, 17, 30):
            huge = table.categories("instant", day, window=2**62)
            assert huge == table.categories("instant", day, window=day)
            assert huge == oracle_categories(counts, "instant", day, window=2**62)
        assert series(table, "instant", 2**62) == series(table, "instant", 30)
        assert series(table, "instant", 10**23) == series(table, "instant", 30)

    @pytest.mark.parametrize("day, window", [(40, 15), (10**12, 10**12 - 20), (2**62, 2**62 - 9), (2**62, 2**62)])
    def test_a_day_past_the_last_day_is_judged_where_the_rows_end(self, day, window):
        # the window [day - window + 1, day] holds the rows of [day - window + 1, 30]
        counts, table = self.random_table(8)
        assert table.n_days == 30
        first = max(1, day - window + 1)
        want = oracle_categories(counts, "instant", 30, window=30 - first + 1)
        assert want
        assert table.categories("instant", day, window=window) == want
        assert table.categories("cumulative", day, start_day=first) == oracle_categories(
            counts, "cumulative", 30, start_day=first
        )
        assert table.categories("instant", day, window=day - 30) == {}  # the window starts past the last row

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(mode="instant", day=10**20, window=10**20),
            dict(mode="instant", day=2**63, window=3),
            dict(mode="cumulative", day=2**63, start_day=1),
        ],
    )
    def test_a_day_past_64_bits_raises_like_the_oracle(self, cfg):
        counts, table = self.random_table(6)
        with pytest.raises(ValueError, match="day index must fit in 64 bits") as fast:
            table.categories(**cfg)
        with pytest.raises(ValueError) as oracle:
            oracle_categories(counts, **cfg)
        assert str(fast.value) == str(oracle.value)

    @pytest.mark.parametrize("seed", [14, 15, 16])
    def test_window_change_points_are_the_union_of_enter_and_leave_days(self, seed):
        _, table = self.random_table(seed)
        for window in range(1, table.n_days + 3):
            for horizon in range(1, table.n_days + 1):
                reach = min(window, horizon)
                span = table.n_days + reach + 1
                keys = table._user * span + table._day
                enter, leave = keys[table._day <= horizon], keys[table._day + reach <= horizon] + reach
                user, day, _, _ = table._change_points(horizon, window=window)
                assert np.array_equal(user * span + day, np.union1d(enter, leave)), (window, horizon)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(mode="instant", day=5),
            dict(mode="instant", day=5, window=0),
            dict(mode="instant", day=5, window=-3),
            dict(mode="cumulative", day=5),
            dict(mode="cumulative", day=5, start_day=0),
            dict(mode="cumulative", day=5, start_day=6),
            dict(mode="weekly", day=5, window=7),
        ],
    )
    def test_bad_arguments_raise_like_the_oracle(self, cfg):
        counts, table = self.random_table(6)
        with pytest.raises(ValueError) as fast:
            table.categories(**cfg)
        with pytest.raises(ValueError) as oracle:
            oracle_categories(counts, **cfg)
        assert str(fast.value) == str(oracle.value)
        # a series asks on its last day: cut the table there
        last = table_from({u: {d: c for d, c in days.items() if d <= cfg["day"]} for u, days in counts.items()})
        assert last.n_days == cfg["day"]
        with pytest.raises(ValueError) as whole:
            series(last, cfg["mode"], cfg.get("window"), cfg.get("start_day"))
        assert str(whole.value) == str(oracle.value)


class TestTrendPoints:
    def test_three_user_split(self, tiny_table):
        columns = series(tiny_table, "instant", window=14)
        assert columns.n_ff[0] == 2 and columns.n_mp[0] == 1
        assert columns.pct_ff[0] == pytest.approx(200 / 3)
        assert columns.pct_mp[0] == pytest.approx(100 / 3)
        assert columns.denominator[0] == 3

    def test_empty_window_gives_null_point(self):
        # day 30 extends the calendar, and its window misses all MP/FF activity
        table = table_from({"u": {1: (1, 0, 0), 30: (0, 0, 1)}})
        columns = series(table, "instant", window=5)
        i = columns.T.index(30)
        assert columns.denominator[i] == 0
        assert columns.pct_ff[i] is None and columns.pct_mp[i] is None and columns.pct_others[i] is None

    def test_singleton_full_share(self):
        table = table_from({"u": {1: (0, 1, 0)}})
        columns = series(table, "cumulative", start_day=1)
        assert columns.pct_ff[0] == pytest.approx(100.0)
        assert columns.denominator[0] == 1

    def test_cumulative_denominator_includes_unclassified(self):
        table = table_from({"a": {1: (1, 0, 0)}, "b": {1: (0, 0, 2)}})
        columns = series(table, "cumulative", start_day=1)
        assert columns.n_unclassified[0] == 1
        assert columns.denominator[0] == 2
        assert columns.pct_mp[0] == pytest.approx(50.0)
        assert columns.pct_others[0] == pytest.approx(50.0)

    def test_instant_exclude_undecided_denominator(self):
        table = table_from({"a": {1: (1, 0, 0)}, "b": {1: (2, 2, 0)}})
        with_u = series(table, "instant", window=14)
        without_u = series(table, "instant", window=14, include_undecided=False)
        assert with_u.denominator[0] == 2 and with_u.pct_mp[0] == pytest.approx(50.0)
        assert without_u.denominator[0] == 1 and without_u.pct_mp[0] == pytest.approx(100.0)

    def test_origin_date_fills_calendar_column(self):
        table = table_from({"u": {2: (1, 0, 0)}})
        columns = series(table, "instant", window=14, origin_date=date(2019, 3, 1))
        assert columns.date[0] == date(2019, 3, 1)
        assert columns.date[1] == date(2019, 3, 2)

    def test_closure_on_every_point(self):
        counts, _ = TestVectorizedAgainstReference().random_table(11)
        table = table_from(counts)
        for columns in (series(table, "instant", window=7), series(table, "cumulative", start_day=1)):
            for pct_ff, pct_mp, pct_others, denom in zip(
                columns.pct_ff, columns.pct_mp, columns.pct_others, columns.denominator
            ):
                if denom > 0:
                    assert pct_ff + pct_mp + pct_others == pytest.approx(100.0, abs=0.01)

    def test_cumulative_partition_of_active_users(self):
        counts, table = TestVectorizedAgainstReference().random_table(12)
        day = 30
        cats = table.categories("cumulative", day, start_day=1)
        active = {
            u
            for u, days in counts.items()
            if any(d <= day and sum(c) > 0 for d, c in days.items())
        }
        assert set(cats) == active  # every active user in exactly one category


class TestCoincidence:
    def test_instant_equals_cumulative_when_window_covers(self):
        counts, table = TestVectorizedAgainstReference().random_table(13, n_days=14)
        for day in range(1, 15):
            inst = table.categories("instant", day, window=14)
            cum = table.categories("cumulative", day, start_day=1)
            decided = {UserCategory.MP, UserCategory.FF, UserCategory.UNDECIDED}
            assert {u: c for u, c in inst.items() if c in decided} == {
                u: c for u, c in cum.items() if c in decided
            }


class TestPermutationAndIncremental:
    def test_order_invariance(self):
        rng = random.Random(99)
        triples = [
            (f"u{rng.randint(0, 20)}", rng.randint(1, 25), rng.choice(["pro_mp", "pro_ff", "pro_third"]))
            for _ in range(400)
        ]
        t1 = CounterTable(triples)
        shuffled = triples[:]
        rng.shuffle(shuffled)
        t2 = CounterTable(shuffled)
        assert series(t1, "instant", window=7) == series(t2, "instant", window=7)
        assert series(t1, "cumulative", start_day=1) == series(t2, "cumulative", start_day=1)

    def test_columns_reject_day_zero(self):
        with pytest.raises(ValueError, match="got 0"):
            CounterTable([("u", 3, "pro_mp"), ("u", 0, "pro_ff")])

    @pytest.mark.parametrize("day", [2**62, 2**63, 2**64])
    def test_columns_reject_a_day_past_the_packed_key(self, day):
        # each tweet is one int64 key, (user x (n_days + 1) + day) x 3 + class
        with pytest.raises(ValueError):
            CounterTable([("a", 1, "pro_mp"), ("b", 1, "pro_mp"), ("c", day, "pro_ff")])

    def test_the_last_day_a_packed_key_holds(self):
        last = 2**63 // 9 - 1  # 3 users x (last + 1) x 3 <= 2**63
        table = CounterTable([("a", 1, "pro_mp"), ("b", 1, "pro_mp"), ("c", last, "pro_ff")])
        assert table.to_sparse() == {"a": {1: (1, 0, 0)}, "b": {1: (1, 0, 0)}, "c": {last: (0, 1, 0)}}
        with pytest.raises(ValueError):
            CounterTable([("a", 1, "pro_mp"), ("b", 1, "pro_mp"), ("c", last + 1, "pro_ff")])

    @settings(max_examples=200, deadline=None)
    @given(
        tweets=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "Ñandú", "c d", ""]),
                st.integers(1, 12) | st.integers(1, 2**40),
                st.sampled_from([*Stance, "pro_mp", "pro_ff", "pro_third", "neutral", "", "PRO_MP", "unknown"]),
            ),
            max_size=60,
        )
    )
    @example(tweets=[])
    def test_table_is_a_plain_tally(self, tweets):
        tally: dict[str, dict[int, list[int]]] = {}
        for user, day, stance in tweets:
            counts = tally.setdefault(user, {}).setdefault(day, [0, 0, 0])
            counts[0 if stance == "pro_mp" else 1 if stance == "pro_ff" else 2] += 1
        table = CounterTable(tweets)
        assert table.to_sparse() == {u: {d: tuple(c) for d, c in days.items()} for u, days in tally.items()}
        assert table.users == sorted(tally)
        assert table.n_days == max((day for _, day, _ in tweets), default=0)
        rows = list(zip(table._user.tolist(), table._day.tolist()))
        assert rows == sorted(set(rows))  # one row per active user-day, in (user, day) order


class TestSweep:
    def test_single_origin_spread_zero(self):
        table = table_from({"u": {1: (1, 0, 0), 5: (1, 0, 0)}})
        by_origin, finals = sweep(table, [1])
        assert finals.spread("pct_ff") == 0.0
        assert finals.spread("pct_mp") == 0.0
        assert list(by_origin) == finals.origins == [1]

    def test_origin_past_final_day_rejected(self):
        table = table_from({"u": {1: (1, 0, 0)}})
        with pytest.raises(ValueError):
            sweep(table, [5])

    def test_series_start_at_their_origin(self):
        table = table_from({"u": {d: (1, 0, 0) for d in range(1, 11)}})
        by_origin, finals = sweep(table, [1, 4, 8])
        assert [s.T[0] for s in by_origin.values()] == [1, 4, 8]
        assert all(s.T[-1] == 10 for s in by_origin.values())
        assert finals.rows.T == [10, 10, 10]

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_every_origin_equals_its_own_series_and_the_oracle(self, seed):
        # longer than the strategies' 40 days; most users fall silent before
        # the last day, so late origins come after their last rows
        rng = random.Random(seed)
        n_days = 90
        counts = {}
        for i in range(30):
            last = rng.randint(1, n_days)
            counts[f"u{i:02d}"] = {
                d: (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                for d in rng.sample(range(1, last + 1), rng.randint(0, min(last, 15)))
            }
        counts["late"] = {n_days: (0, 0, 1), n_days - 1: (1, 1, 0)}
        table = table_from(counts)
        assert table.n_days == n_days
        picked = rng.sample(range(2, n_days), 5)
        origins = [picked[0], n_days, *picked, 1, picked[3]]  # unsorted, with duplicates and the last day
        by_origin, finals = sweep(table, origins)
        assert list(by_origin) == finals.origins == sorted(set(origins))
        fields = ("n_mp", "n_ff", "n_undecided", "n_unclassified")
        for t0, columns in by_origin.items():
            assert columns == series(table, "cumulative", start_day=t0)
            for i, day in enumerate(columns.T):
                cats = oracle_categories(counts, "cumulative", day=day, start_day=t0)
                tally = [sum(c is cat for c in cats.values()) for cat in UserCategory]
                assert [getattr(columns, f)[i] for f in fields] == tally, (t0, day)
        assert by_origin[n_days].n_unclassified[0] == 1  # only the late user speaks on the last day

    @pytest.mark.parametrize("bad", [0, -1, 91])
    def test_origin_outside_the_calendar_raises(self, bad):
        table = table_from({"u": {1: (1, 0, 0), 90: (0, 1, 0)}})
        with pytest.raises(ValueError):
            sweep(table, [1, bad])

    def test_spread_measures_final_day_dispersion(self):
        # user flips stance at day 6; later origins see only the new stance
        counts = {f"u{i}": {d: (1, 0, 0) for d in range(1, 6)} for i in range(4)}
        for i in range(4):
            counts[f"u{i}"].update({d: (0, 1, 0) for d in range(6, 11)})
        counts["v"] = {d: (0, 1, 0) for d in range(1, 11)}
        table = table_from(counts)
        by_origin, finals = sweep(table, [1, 6])
        # from day 1 the four flippers are tied (Undecided); from day 6 they are FF
        assert by_origin[1].pct_ff[-1] == pytest.approx(20.0)
        assert by_origin[6].pct_ff[-1] == pytest.approx(100.0)
        assert finals.spread("pct_ff") == pytest.approx(80.0)


class TestDemographicWeights:
    def build(self):
        table = table_from(
            {
                "a1": {1: (0, 1, 0)},
                "a2": {1: (0, 1, 0)},
                "a3": {1: (1, 0, 0)},
                "b1": {1: (1, 0, 0)},
            }
        )
        cats = table.categories("cumulative", 1, start_day=1)
        plain = row_of(series(table, "cumulative", start_day=1), 0)
        strata = {"a1": "A", "a2": "A", "a3": "A", "b1": "B"}
        return plain, cats, strata

    def test_identity_weights(self):
        plain, cats, strata = self.build()
        same = apply_demographic_weights(cats, {"A": 1.0, "B": 1.0}, strata, "cumulative")
        assert same["pct_ff"] == pytest.approx(plain["pct_ff"])
        assert same["denominator"] == plain["denominator"]

    def test_hand_computed_weighted_ratio(self):
        # strata A (FF:2, MP:1) weight 1, B (MP:1) weight 2 -> FF 2/5 = 40%
        _, cats, strata = self.build()
        weighted = apply_demographic_weights(cats, {"A": 1.0, "B": 2.0}, strata, "cumulative")
        assert weighted["pct_ff"] == pytest.approx(40.0)
        assert weighted["denominator"] == pytest.approx(5.0)

    def test_boosting_ff_stratum_increases_share(self):
        plain, cats, _ = self.build()
        ff_strata = {"a1": "F", "a2": "F", "a3": "R", "b1": "R"}
        boosted = apply_demographic_weights(cats, {"F": 2.0}, ff_strata, "cumulative")
        assert boosted["pct_ff"] > plain["pct_ff"]

    def test_unknown_stratum_gets_unit_weight(self):
        plain, cats, _ = self.build()
        same = apply_demographic_weights(cats, {"Z": 3.0}, {}, "cumulative")
        assert same["pct_ff"] == pytest.approx(plain["pct_ff"])

    def test_negative_weight_rejected(self):
        _, cats, strata = self.build()
        with pytest.raises(ValueError):
            apply_demographic_weights(cats, {"A": -1.0}, strata, "cumulative")

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="not a finite number"):
            user_weights(["a1", "b1"], {"A": 1.0, "B": weight}, {"a1": "A", "b1": "B"})

    def test_original_point_untouched(self):
        _, cats, strata = self.build()
        weights = {"A": 5.0}
        before = (dict(cats), dict(weights), dict(strata))
        apply_demographic_weights(cats, weights, strata, "cumulative")
        assert (cats, weights, strata) == before


class TestCsv:
    def test_round_trip_and_header(self, tiny_table):
        columns = series(tiny_table, "cumulative", start_day=1, origin_date=date(2019, 3, 1))
        buf = io.StringIO()
        write_trend_csv(columns, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == (
            "date,T,n_mp,n_ff,n_undecided,n_unclassified,pct_ff,pct_mp,pct_others,denominator"
        )
        rows = read_trend_csv(io.StringIO(text))
        assert rows[0]["date"] == "2019-03-01"
        assert rows[0]["T"] == 1
        assert rows[0]["pct_ff"] == pytest.approx(200 / 3, abs=1e-4)

    def test_null_percentages_serialized_blank(self):
        columns = TrendColumns(
            date=[None], T=[3], n_mp=[0], n_ff=[0], n_undecided=[0], n_unclassified=[0],
            pct_ff=[None], pct_mp=[None], pct_others=[None], denominator=[0],
        )
        buf = io.StringIO()
        write_trend_csv(columns, buf)
        row = read_trend_csv(io.StringIO(buf.getvalue()))[0]
        assert row["pct_ff"] is None and row["pct_others"] is None

    def test_summary_row_is_the_final_trend_row(self):
        big = dict(
            n_mp=1_000_000, n_ff=2.5, n_undecided=0, n_unclassified=3,
            pct_ff=0.25, pct_mp=99.5, pct_others=None, denominator=1_000_005.5,
        )
        columns = TrendColumns(date=[date(2019, 3, 4), date(2019, 3, 9)], T=[4, 9], **{f: [v, v] for f, v in big.items()})
        finals = SweepFinals()
        finals.add(4, columns)
        summary, trend_csv = io.StringIO(), io.StringIO()
        finals.write(summary)
        write_trend_csv(TrendColumns(*([column[-1]] for column in columns)), trend_csv)
        assert summary.getvalue() == (
            "t0,start_day,final_day,n_mp,n_ff,n_undecided,n_unclassified,pct_ff,pct_mp,pct_others,denominator\n"
            "2019-03-04,4,9,1000000,2.5000,0,3,0.2500,99.5000,,1000005.5000\n"
        )
        assert summary.getvalue().splitlines()[1].split(",")[2:] == trend_csv.getvalue().splitlines()[1].split(",")[1:]

    def test_summary_names_origins_by_day_without_a_calendar(self):
        _, finals = sweep(table_from({"u": {1: (1, 0, 0), 3: (0, 1, 0)}}), [1, 2])
        summary = io.StringIO()
        finals.write(summary)
        assert [line.split(",")[:3] for line in summary.getvalue().splitlines()[1:]] == [
            ["1", "1", "3"], ["2", "2", "3"],
        ]


day_counts_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=40),
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=12,
)


class TestProperties:
    @settings(max_examples=60)
    @given(days=day_counts_strategy, day=st.integers(1, 40), window=st.integers(1, 40))
    def test_window_sums_equal_loop(self, days, day, window):
        assert instant_verdict(days, day, window) is verdict_from_sums(
            *loop_window_sum(days, day, window)
        )

    @settings(max_examples=40)
    @given(
        table_dict=st.dictionaries(
            st.from_regex(r"u[0-9]{1,2}", fullmatch=True), day_counts_strategy, max_size=8
        ),
        day=st.integers(1, 40),
    )
    def test_cumulative_category_partition(self, table_dict, day):
        table = table_from(table_dict)
        if table.n_days < day:
            table_dict = dict(table_dict)
            table_dict.setdefault("pad", {})[day] = (0, 0, 1)
            table = table_from(table_dict)
        cats = table.categories("cumulative", day, start_day=1)
        active = {
            u
            for u, days in table_dict.items()
            if any(d <= day and sum(c) > 0 for d, c in days.items())
        }
        assert set(cats) == active


class TestSeriesAgainstOracle:
    """Every day of every series equals the oracle's category tally on that day."""

    FIELDS = ("n_mp", "n_ff", "n_undecided", "n_unclassified")

    def oracle_counts(self, counts, mode, day, **config):
        cats = oracle_categories(counts, mode, day=day, **config)
        return cats, [sum(c is cat for c in cats.values()) for cat in UserCategory]

    def counts_at(self, columns, i):
        return [getattr(columns, f)[i] for f in self.FIELDS]

    @settings(max_examples=60, deadline=None)
    @given(
        table_dict=st.dictionaries(
            st.from_regex(r"u[0-9]{1,2}", fullmatch=True), day_counts_strategy, min_size=1, max_size=10
        ),
        window=st.integers(1, 45),
        origins=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        strata=st.dictionaries(st.from_regex(r"u[0-9]{1,2}", fullmatch=True), st.sampled_from("ABC")),
        stratum_weights=st.dictionaries(
            st.sampled_from("ABC"), st.floats(0, 5, allow_nan=False, allow_infinity=False)
        ),
    )
    def test_series_equal_oracle_tallies(self, table_dict, window, origins, strata, stratum_weights):
        table = table_from(table_dict)
        if table.n_days == 0:
            return
        weights = user_weights(table.users, stratum_weights, strata)

        plain = series(table, "instant", window=window)
        weighted = series(table, "instant", window=window, weights=weights)
        assert plain.T == weighted.T == list(range(1, table.n_days + 1))
        for i, day in enumerate(plain.T):
            cats, tally = self.oracle_counts(table_dict, "instant", day, window=window)
            assert self.counts_at(plain, i) == tally
            assert row_of(weighted, i) == apply_demographic_weights(cats, stratum_weights, strata, "instant")

        t0 = min(min(origins), table.n_days)
        plain = series(table, "cumulative", start_day=t0)
        weighted = series(table, "cumulative", start_day=t0, weights=weights)
        assert plain.T == weighted.T == list(range(t0, table.n_days + 1))
        for i, day in enumerate(plain.T):
            cats, tally = self.oracle_counts(table_dict, "cumulative", day, start_day=t0)
            assert self.counts_at(plain, i) == tally
            assert row_of(weighted, i) == apply_demographic_weights(cats, stratum_weights, strata, "cumulative")

        by_origin, _ = sweep(table, [t0 for t0 in origins if t0 <= table.n_days] or [1])
        for t0, columns in by_origin.items():
            assert columns.T == list(range(t0, table.n_days + 1))
            for i, day in enumerate(columns.T):
                _, tally = self.oracle_counts(table_dict, "cumulative", day, start_day=t0)
                assert self.counts_at(columns, i) == tally

    def test_seeded_tables_with_awkward_weights(self):
        rng = random.Random(2019)
        for _ in range(5):
            counts, table = TestVectorizedAgainstReference().random_table(rng.randrange(10**6), n_users=60)
            strata = {u: rng.choice("ABCD") for u in counts if rng.random() < 0.8}
            stratum_weights = {s: rng.uniform(0, 3) for s in "ABC"}
            weights = user_weights(table.users, stratum_weights, strata)
            drawn = rng.randint(1, 20)
            for window in (drawn, 1, table.n_days - 1, table.n_days, table.n_days + 2):
                columns = series(table, "instant", window=window, weights=weights)
                for i, day in enumerate(columns.T):
                    cats = oracle_categories(counts, "instant", day=day, window=window)
                    assert row_of(columns, i) == apply_demographic_weights(cats, stratum_weights, strata, "instant")
            t0 = rng.randint(1, table.n_days)
            columns = series(table, "cumulative", start_day=t0, weights=weights)
            for i, day in enumerate(columns.T):
                cats = oracle_categories(counts, "cumulative", day=day, start_day=t0)
                assert row_of(columns, i) == apply_demographic_weights(cats, stratum_weights, strata, "cumulative")

    def test_weight_vector_must_match_users(self):
        table = table_from({"a": {1: (1, 0, 0)}, "b": {2: (0, 1, 0)}})
        with pytest.raises(ValueError):
            series(table, "cumulative", start_day=1, weights=np.ones(3))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            user_weights(["a"], {"A": -0.5}, {"a": "A"})


class TestLeanTable:
    """The table's 32-bit columns, its 64-bit keys, and series made for a block of users at a time."""

    def test_a_row_is_20_bytes_while_days_fit_in_32_bits(self):
        _, table = TestVectorizedAgainstReference().random_table(3)
        rows = len(table._day)
        assert rows > 0
        assert table._user.nbytes + table._day.nbytes + table._counts.nbytes <= 20 * rows

    @pytest.mark.parametrize("last, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_days_widen_to_64_bits_past_32(self, last, dtype):
        table = CounterTable([("a", 1, "pro_mp"), ("b", last, "pro_ff"), ("a", 5, "neutral")])
        assert table._day.dtype == dtype
        assert table.to_sparse() == {"a": {1: (1, 0, 0), 5: (0, 0, 1)}, "b": {last: (0, 1, 0)}}

    def test_keys_past_32_bits_match_the_oracle(self):
        # users x span x 3 (a tweet's key) and users x span (a window's) both pass 2**31;
        # the oracle walks every day of a range, so the ranges it checks are short
        rng = random.Random(5)
        last = 3 * 10**6
        near = [*range(1, 12), *range(1_499_990, 1_500_011), *range(last - 20, last + 1)]
        counts = {
            f"u{i:04d}": {
                day: (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
                for day in rng.sample(near, rng.randint(1, 4)) + [rng.randint(1, last)]
            }
            for i in range(1000)
        }
        counts["u0999"][last] = (1, 0, 0)
        table = table_from(counts)
        assert table.n_days == last
        assert len(table.users) * (last + 1) > 2**31
        for day in (5, 1_500_000, last - 1, last):
            for window in (1, 7, 20):
                cfg = dict(mode="instant", day=day, window=window)
                assert table.categories(**cfg) == oracle_categories(counts, **cfg), cfg
            for start in (1, max(1, day - 15), day):
                if day - start <= 20:
                    cfg = dict(mode="cumulative", day=day, start_day=start)
                    assert table.categories(**cfg) == oracle_categories(counts, **cfg), cfg
        # a window over every day judges as the cumulative range from day 1, less Unclassified
        cumulative = table.categories("cumulative", last, start_day=1)
        decided = {u: c for u, c in cumulative.items() if c is not UserCategory.UNCLASSIFIED}
        assert table.categories("instant", last, window=last) == decided

    @pytest.mark.parametrize("size", [1, 2, 5, 40])
    def test_change_points_by_blocks_of_users_are_the_tables(self, size):
        _, table = TestVectorizedAgainstReference().random_table(8)
        blocks = table._blocks(size)
        assert blocks[0].start == 0 and blocks[-1].stop == len(table._user)
        for before, after in zip(blocks, blocks[1:]):
            assert before.stop == after.start
            assert table._user[after.start - 1] != table._user[after.start]  # no user is split
        for horizon, start_day, window in [(30, 1, None), (30, 12, None), (20, 1, 3), (30, 1, 50)]:
            whole = table._change_points(horizon, start_day, window)
            parts = zip(*(table._change_points(horizon, start_day, window, rows) for rows in blocks))
            for column, pieces in zip(whole, parts):
                assert np.array_equal(column, np.concatenate(pieces))

    def test_a_series_by_blocks_of_users_equals_one_block(self, monkeypatch):
        rng = random.Random(12)
        counts = {
            f"u{i:03d}": {d: (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)) for d in rng.sample(range(1, 6), 3)}
            for i in range(200)
        }
        table = table_from(counts)
        weights = np.array([rng.uniform(0, 3) for _ in table.users])
        queries = [
            dict(mode=mode, weights=w, **config)
            for mode, config in (("instant", {"window": 2}), ("cumulative", {"start_day": 2}))
            for w in (None, weights)
        ]
        whole = [series(table, **query) for query in queries]
        monkeypatch.setattr(trend, "_BLOCK_ROWS", 1)
        assert len(table._blocks((table.n_days + 1) * trend.N_CODES)) > 10  # the unweighted block size
        assert [series(table, **query) for query in queries] == whole
