"""Window/cumulative sums, user categories, trend points, sweeps, weights.

Per-user verdicts are checked against ``synth.oracle_categories``, the one
brute-force reference the acceptance gate and ``validate`` also use.
"""

import io
import random
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from electrend.synth import oracle_categories
from electrend.trend import (
    CounterTable,
    SweepResult,
    TrendPoint,
    UserCategory,
    apply_demographic_weights,
    read_trend_csv,
    series,
    sweep_t0,
    user_weights,
    write_sweep_summary,
    write_trend_csv,
)
from conftest import rec


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
        point = series(tiny_table, "instant", window=14)[0]
        assert point.n_ff == 2 and point.n_mp == 1
        assert point.pct_ff == pytest.approx(200 / 3)
        assert point.pct_mp == pytest.approx(100 / 3)
        assert point.denominator == 3

    def test_empty_window_gives_null_point(self):
        # day 30 extends the calendar, and its window misses all MP/FF activity
        table = table_from({"u": {1: (1, 0, 0), 30: (0, 0, 1)}})
        point = [p for p in series(table, "instant", window=5) if p.day == 30][0]
        assert point.denominator == 0
        assert point.pct_ff is None and point.pct_mp is None and point.pct_others is None

    def test_singleton_full_share(self):
        table = table_from({"u": {1: (0, 1, 0)}})
        point = series(table, "cumulative", start_day=1)[0]
        assert point.pct_ff == pytest.approx(100.0)
        assert point.denominator == 1

    def test_cumulative_denominator_includes_unclassified(self):
        table = table_from({"a": {1: (1, 0, 0)}, "b": {1: (0, 0, 2)}})
        point = series(table, "cumulative", start_day=1)[0]
        assert point.n_unclassified == 1
        assert point.denominator == 2
        assert point.pct_mp == pytest.approx(50.0)
        assert point.pct_others == pytest.approx(50.0)

    def test_instant_exclude_undecided_denominator(self):
        table = table_from({"a": {1: (1, 0, 0)}, "b": {1: (2, 2, 0)}})
        with_u = series(table, "instant", window=14)[0]
        without_u = series(table, "instant", window=14, include_undecided=False)[0]
        assert with_u.denominator == 2 and with_u.pct_mp == pytest.approx(50.0)
        assert without_u.denominator == 1 and without_u.pct_mp == pytest.approx(100.0)

    def test_origin_date_fills_calendar_column(self):
        table = table_from({"u": {2: (1, 0, 0)}})
        points = series(table, "instant", window=14, origin_date=date(2019, 3, 1))
        assert points[0].date == date(2019, 3, 1)
        assert points[1].date == date(2019, 3, 2)

    def test_closure_on_every_point(self):
        counts, _ = TestVectorizedAgainstReference().random_table(11)
        table = table_from(counts)
        for point in series(table, "instant", window=7) + series(table, "cumulative", start_day=1):
            if point.denominator > 0:
                assert point.pct_ff + point.pct_mp + point.pct_others == pytest.approx(
                    100.0, abs=0.01
                )

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


class TestSweep:
    def test_single_origin_spread_zero(self):
        table = table_from({"u": {1: (1, 0, 0), 5: (1, 0, 0)}})
        result = sweep_t0(table, [1])
        assert result.spread_pct_ff == 0.0
        assert result.spread_pct_mp == 0.0
        assert list(result.series) == [1]

    def test_origin_past_final_day_rejected(self):
        table = table_from({"u": {1: (1, 0, 0)}})
        with pytest.raises(ValueError):
            sweep_t0(table, [5])

    def test_series_start_at_their_origin(self):
        table = table_from({"u": {d: (1, 0, 0) for d in range(1, 11)}})
        result = sweep_t0(table, [1, 4, 8])
        assert [s[0].day for s in result.series.values()] == [1, 4, 8]
        assert all(s[-1].day == 10 for s in result.series.values())

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
        result = sweep_t0(table, origins)
        assert list(result.series) == sorted(set(origins))
        fields = ("n_mp", "n_ff", "n_undecided", "n_unclassified")
        for t0, points in result.series.items():
            assert points == series(table, "cumulative", start_day=t0)
            for point in points:
                cats = oracle_categories(counts, "cumulative", day=point.day, start_day=t0)
                tally = [sum(c is cat for c in cats.values()) for cat in UserCategory]
                assert [getattr(point, f) for f in fields] == tally, (t0, point.day)
        assert result.series[n_days][0].n_unclassified == 1  # only the late user speaks on the last day

    @pytest.mark.parametrize("bad", [0, -1, 91])
    def test_origin_outside_the_calendar_raises(self, bad):
        table = table_from({"u": {1: (1, 0, 0), 90: (0, 1, 0)}})
        with pytest.raises(ValueError):
            sweep_t0(table, [1, bad])

    def test_spread_measures_final_day_dispersion(self):
        # user flips stance at day 6; later origins see only the new stance
        counts = {f"u{i}": {d: (1, 0, 0) for d in range(1, 6)} for i in range(4)}
        for i in range(4):
            counts[f"u{i}"].update({d: (0, 1, 0) for d in range(6, 11)})
        counts["v"] = {d: (0, 1, 0) for d in range(1, 11)}
        table = table_from(counts)
        result = sweep_t0(table, [1, 6])
        # from day 1 the four flippers are tied (Undecided); from day 6 they are FF
        assert result.series[1][-1].pct_ff == pytest.approx(20.0)
        assert result.series[6][-1].pct_ff == pytest.approx(100.0)
        assert result.spread_pct_ff == pytest.approx(80.0)


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
        point = series(table, "cumulative", start_day=1)[0]
        strata = {"a1": "A", "a2": "A", "a3": "A", "b1": "B"}
        return point, cats, strata

    def test_identity_weights(self):
        point, cats, strata = self.build()
        same = apply_demographic_weights(point, {"A": 1.0, "B": 1.0}, strata, cats)
        assert same.pct_ff == pytest.approx(point.pct_ff)
        assert same.denominator == point.denominator

    def test_hand_computed_weighted_ratio(self):
        # strata A (FF:2, MP:1) weight 1, B (MP:1) weight 2 -> FF 2/5 = 40%
        point, cats, strata = self.build()
        weighted = apply_demographic_weights(point, {"A": 1.0, "B": 2.0}, strata, cats)
        assert weighted.pct_ff == pytest.approx(40.0)
        assert weighted.denominator == pytest.approx(5.0)

    def test_boosting_ff_stratum_increases_share(self):
        point, cats, strata = self.build()
        ff_strata = {"a1": "F", "a2": "F", "a3": "R", "b1": "R"}
        boosted = apply_demographic_weights(point, {"F": 2.0}, ff_strata, cats)
        assert boosted.pct_ff > point.pct_ff

    def test_unknown_stratum_gets_unit_weight(self):
        point, cats, _ = self.build()
        same = apply_demographic_weights(point, {"Z": 3.0}, {}, cats)
        assert same.pct_ff == pytest.approx(point.pct_ff)

    def test_negative_weight_rejected(self):
        point, cats, strata = self.build()
        with pytest.raises(ValueError):
            apply_demographic_weights(point, {"A": -1.0}, strata, cats)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="not a finite number"):
            user_weights(["a1", "b1"], {"A": 1.0, "B": weight}, {"a1": "A", "b1": "B"})

    def test_original_point_untouched(self):
        point, cats, strata = self.build()
        before = point.pct_ff
        apply_demographic_weights(point, {"A": 5.0}, strata, cats)
        assert point.pct_ff == before


class TestCsv:
    def test_round_trip_and_header(self, tiny_table):
        points = series(tiny_table, "cumulative", start_day=1, origin_date=date(2019, 3, 1))
        buf = io.StringIO()
        write_trend_csv(points, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == (
            "date,T,n_mp,n_ff,n_undecided,n_unclassified,pct_ff,pct_mp,pct_others,denominator"
        )
        rows = read_trend_csv(io.StringIO(text))
        assert rows[0]["date"] == "2019-03-01"
        assert rows[0]["T"] == 1
        assert rows[0]["pct_ff"] == pytest.approx(200 / 3, abs=1e-4)

    def test_null_percentages_serialized_blank(self):
        point = TrendPoint(
            day=3, date=None, mode="instant", n_mp=0, n_ff=0, n_undecided=0,
            n_unclassified=0, denominator=0, pct_ff=None, pct_mp=None, pct_others=None,
        )
        buf = io.StringIO()
        write_trend_csv([point], buf)
        row = read_trend_csv(io.StringIO(buf.getvalue()))[0]
        assert row["pct_ff"] is None and row["pct_others"] is None

    def test_summary_row_is_the_final_trend_row(self):
        big = TrendPoint(
            day=9, date=date(2019, 3, 9), mode="cumulative", n_mp=1_000_000, n_ff=2.5,
            n_undecided=0, n_unclassified=3, denominator=1_000_005.5,
            pct_ff=0.25, pct_mp=99.5, pct_others=None,
        )
        start = replace(big, day=4, date=date(2019, 3, 4))
        result = SweepResult(final_day=9, series={4: [start, big]}, spread_pct_ff=0.0, spread_pct_mp=0.0)
        summary, trend_csv = io.StringIO(), io.StringIO()
        write_sweep_summary(result, summary)
        write_trend_csv([big], trend_csv)
        assert summary.getvalue() == (
            "t0,start_day,final_day,n_mp,n_ff,n_undecided,n_unclassified,pct_ff,pct_mp,pct_others,denominator\n"
            "2019-03-04,4,9,1000000,2.5000,0,3,0.2500,99.5000,,1000005.5000\n"
        )
        assert summary.getvalue().splitlines()[1].split(",")[2:] == trend_csv.getvalue().splitlines()[1].split(",")[1:]

    def test_summary_names_origins_by_day_without_a_calendar(self):
        result = sweep_t0(table_from({"u": {1: (1, 0, 0), 3: (0, 1, 0)}}), [1, 2])
        summary = io.StringIO()
        write_sweep_summary(result, summary)
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
    """Every point of every series equals the oracle's category tally on its day."""

    FIELDS = ("n_mp", "n_ff", "n_undecided", "n_unclassified")

    def oracle_counts(self, counts, mode, day, **config):
        cats = oracle_categories(counts, mode, day=day, **config)
        return cats, [sum(c is cat for c in cats.values()) for cat in UserCategory]

    def counts_of(self, point):
        return [getattr(point, f) for f in self.FIELDS]

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
        assert [p.day for p in plain] == [p.day for p in weighted] == list(range(1, table.n_days + 1))
        for point, reweighted in zip(plain, weighted):
            cats, tally = self.oracle_counts(table_dict, "instant", point.day, window=window)
            assert self.counts_of(point) == tally
            reference = apply_demographic_weights(point, stratum_weights, strata, cats)
            assert self.counts_of(reweighted) == self.counts_of(reference)

        t0 = min(min(origins), table.n_days)
        plain = series(table, "cumulative", start_day=t0)
        weighted = series(table, "cumulative", start_day=t0, weights=weights)
        assert [p.day for p in plain] == [p.day for p in weighted] == list(range(t0, table.n_days + 1))
        for point, reweighted in zip(plain, weighted):
            cats, tally = self.oracle_counts(table_dict, "cumulative", point.day, start_day=t0)
            assert self.counts_of(point) == tally
            reference = apply_demographic_weights(point, stratum_weights, strata, cats)
            assert self.counts_of(reweighted) == self.counts_of(reference)

        result = sweep_t0(table, [t0 for t0 in origins if t0 <= table.n_days] or [1])
        for t0, points in result.series.items():
            assert [p.day for p in points] == list(range(t0, table.n_days + 1))
            for point in points:
                _, tally = self.oracle_counts(table_dict, "cumulative", point.day, start_day=t0)
                assert self.counts_of(point) == tally

    def test_seeded_tables_with_awkward_weights(self):
        rng = random.Random(2019)
        for _ in range(5):
            counts, table = TestVectorizedAgainstReference().random_table(rng.randrange(10**6), n_users=60)
            strata = {u: rng.choice("ABCD") for u in counts if rng.random() < 0.8}
            stratum_weights = {s: rng.uniform(0, 3) for s in "ABC"}
            weights = user_weights(table.users, stratum_weights, strata)
            window = rng.randint(1, 20)
            for point in series(table, "instant", window=window, weights=weights):
                cats = oracle_categories(counts, "instant", day=point.day, window=window)
                assert point == apply_demographic_weights(point, stratum_weights, strata, cats)
            t0 = rng.randint(1, table.n_days)
            for point in series(table, "cumulative", start_day=t0, weights=weights):
                cats = oracle_categories(counts, "cumulative", day=point.day, start_day=t0)
                assert point == apply_demographic_weights(point, stratum_weights, strata, cats)

    def test_weight_vector_must_match_users(self):
        table = table_from({"a": {1: (1, 0, 0)}, "b": {2: (0, 1, 0)}})
        with pytest.raises(ValueError):
            series(table, "cumulative", start_day=1, weights=np.ones(3))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            user_weights(["a"], {"A": -0.5}, {"a": "A"})
