"""Activity profiling, rule scoring and corpus filtering."""

import io
import math
import pickle
from array import array
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from electrend.botfilter import (
    ActivityTracker,
    BotConfig,
    UserActivity,
    score_user,
    write_report_csv,
)
from electrend.ingest import NoRecordsError, effective_date
from conftest import dated, day_ts, rec, screen


def burst_user(user, n, span_seconds, text="spam spam", day=1):
    """n tweets from one user spread evenly across span_seconds."""
    start = day_ts(day, second=0)
    step = span_seconds / (n - 1)
    return [
        rec(user=user, text=text, ts=start + timedelta(seconds=i * step))
        for i in range(n)
    ]


def profile(records):
    """The profile of the one user of ``records``, each counted on its pipeline day."""
    tracker = ActivityTracker()
    for r in records:
        tracker.add(r.user_id, r.created_at, r.text, effective_date(r))
    (activity,) = tracker.profiles().values()
    return activity


class TestProfiling:
    def test_three_distinct_same_day(self):
        records = [
            rec(user="u", text=t, ts=day_ts(1, second=s))
            for t, s in [("a", 0), ("b", 3600), ("c", 7200)]
        ]
        act = profile(records)
        assert act.total_tweets == 3
        assert act.active_days == 1
        assert act.duplicate_text_ratio == 0.0
        assert act.max_tweets_per_day == 3

    def test_duplicate_ratio_half(self):
        records = [
            rec(user="u", text=t, ts=day_ts(1, second=i * 600))
            for i, t in enumerate(["a", "a", "a", "b"])
        ]
        assert profile(records).duplicate_text_ratio == pytest.approx(0.5)

    def test_two_hundred_identical_in_one_hour(self):
        records = burst_user("u", 200, 3600)
        act = profile(records)
        assert act.mean_inter_tweet_seconds == pytest.approx(3600 / 199)
        assert act.mean_inter_tweet_seconds == pytest.approx(18.09, abs=0.01)
        assert act.duplicate_text_ratio == pytest.approx(0.995)

    def test_single_tweet_has_infinite_gap(self):
        act = profile([rec(user="u")])
        assert math.isinf(act.mean_inter_tweet_seconds)

    def test_duplicate_detection_normalizes_whitespace_and_case(self):
        records = [
            rec(user="u", text="Hola  Mundo", ts=day_ts(1)),
            rec(user="u", text="hola mundo", ts=day_ts(2)),
        ]
        assert profile(records).duplicate_text_ratio == pytest.approx(0.5)

    def test_tracker_matches_batch_profile(self):
        # 10 tweets 8 hours apart from midnight on day 1 (3 a day on days 1-3, 1 on day 4),
        # then one other text at noon on day 9
        records = burst_user("u", 10, 86400 * 3) + [rec(user="u", text="otro", ts=day_ts(9))]
        assert profile(records) == UserActivity(
            user_id="u",
            total_tweets=11,
            active_days=5,
            max_tweets_per_day=3,
            duplicate_text_ratio=1 - 2 / 11,
            mean_inter_tweet_seconds=(8 * 86400 + 43200) / 10,
        )

    def test_rate_rule_counts_the_given_days(self):
        # four tweets on one UTC date, handed over as two days of two
        records = [rec(user="u", text=f"t{i}", ts=day_ts(1, second=3600 * i)) for i in range(4)]
        tracker = ActivityTracker()
        for i, r in enumerate(records):
            tracker.add(r.user_id, r.created_at, r.text, date(2019, 2, 27 + i % 2))
        activity = tracker.profiles()["u"]
        assert (activity.active_days, activity.max_tweets_per_day) == (2, 2)

    def test_merged_trackers_equal_one_tracker(self):
        # two users whose records are split over three trackers, one text repeated across them
        records = burst_user("u", 9, 86400 * 2) + [rec(user="v", text=f"t{i % 2}", ts=day_ts(i + 1)) for i in range(5)]
        whole, parts = ActivityTracker(), [ActivityTracker() for _ in range(3)]
        for i, r in enumerate(records):
            whole.add(r.user_id, r.created_at, r.text, effective_date(r))
            parts[i % 3].add(r.user_id, r.created_at, r.text, effective_date(r))
        merged = ActivityTracker()
        for part in parts:
            merged.merge(part)
        assert merged.profiles() == whole.profiles()
        assert merged.profiles()["u"].duplicate_text_ratio == 1 - 1 / 9


def reference_profiles(records):
    """Each user's profile counted the plain way: a dict of tweets per day and a set of normalized texts.

    The reference for :class:`ActivityTracker`, which keeps a day ordinal
    and a text hash per record and counts days only when it scores.
    ``records`` are ``(user, created_at, text, day)``.
    """
    by_user = {}
    for user, created_at, text, day in records:
        by_user.setdefault(user, []).append((created_at.timestamp(), text, day))
    profiles = {}
    for user, rows in by_user.items():
        per_day = {}
        for _, _, day in rows:
            per_day[day] = per_day.get(day, 0) + 1
        times = [ts for ts, _, _ in rows]
        texts = {" ".join(text.lower().split()) for _, text, _ in rows}
        n = len(rows)
        profiles[user] = UserActivity(
            user_id=user,
            total_tweets=n,
            active_days=len(per_day),
            max_tweets_per_day=max(per_day.values()),
            duplicate_text_ratio=1.0 - len(texts) / n,
            mean_inter_tweet_seconds=(max(times) - min(times)) / (n - 1) if n > 1 else math.inf,
        )
    return profiles


class TestCompactState:
    def test_a_user_keeps_12_bytes_a_record_and_no_per_day_dict(self):
        n = 1000
        tracker = ActivityTracker()
        for i in range(n):  # 50 days, 20 records a day
            tracker.add("u", day_ts(1 + i % 50, second=i), f"t{i % 7}", date(2019, 3, 1) + timedelta(days=i % 50))
        state = tracker._users["u"]
        fields = vars(state) if hasattr(state, "__dict__") else {k: getattr(state, k) for k in state.__slots__}
        assert not [k for k, v in fields.items() if isinstance(v, dict)]
        per_record = [v for v in fields.values() if isinstance(v, array)]
        assert all(len(v) == n for v in per_record)
        assert sum(v.itemsize for v in per_record) <= 12
        assert all(isinstance(v, (array, int, float)) for v in fields.values())
        assert len(pickle.dumps(tracker)) <= 12 * n + 1024  # the arrays pickle as their bytes

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "Ñandú", ""]),
                st.integers(0, 40),  # day
                st.integers(0, 86399),  # second of the day
                st.sampled_from(["hola", "Hola  ", "hola mundo", "HOLA MUNDO", "chau", ""]),
                st.integers(0, 3),  # the tracker that counts the record
                st.booleans(),  # counted by add_ordinal, as ingest does, rather than add
            ),
            min_size=1,
            max_size=60,
        ),
        n_parts=st.integers(1, 4),
    )
    def test_pickled_merged_parts_equal_the_reference(self, records, n_parts):
        parts = [ActivityTracker() for _ in range(n_parts)]
        rows = []
        for user, offset, second, text, part, by_ordinal in records:
            day = date(2019, 3, 1) + timedelta(days=offset)
            created_at = datetime(2019, 3, 1, tzinfo=timezone.utc) + timedelta(days=offset, seconds=second)
            tracker = parts[part % n_parts]
            if by_ordinal:
                tracker.add_ordinal(user, created_at.timestamp(), text, day.toordinal())
            else:
                tracker.add(user, created_at, text, day)
            rows.append((user, created_at, text, day))
        merged = ActivityTracker()
        for part in parts:  # each part comes back from a worker as a pickle
            merged.merge(pickle.loads(pickle.dumps(part)))
        assert merged.profiles() == reference_profiles(rows)
        assert [a.user_id for a in merged.each_profile()] == sorted(merged.profiles())


class TestScoring:
    def test_human_activity_scores_zero(self):
        act = UserActivity(
            user_id="u",
            total_tweets=100,
            active_days=10,
            max_tweets_per_day=20,
            duplicate_text_ratio=0.05,
            mean_inter_tweet_seconds=8640.0,
        )
        v = score_user(act)
        assert v.score == 0.0
        assert not v.is_bot
        assert v.triggered_rules == ()

    def test_all_rules_fire_score_one(self):
        act = UserActivity("u", 500, 2, 400, 0.99, 5.0)
        v = score_user(act)
        assert v.score == pytest.approx(1.0)
        assert v.is_bot
        assert v.triggered_rules == ("rate", "duplication", "burst")

    def test_duplication_only_scores_a_third(self):
        act = UserActivity("u", 50, 10, 10, 0.9, 3600.0)
        v = score_user(act)
        assert v.score == 1 / 3
        assert not v.is_bot  # 1/3 < threshold 0.5
        assert v.triggered_rules == ("duplication",)

    def test_caps_are_strict_boundaries(self):
        at_cap = UserActivity("u", 72, 1, 72, 0.8, 30.0)
        assert score_user(at_cap).score == 0.0
        over = UserActivity("u", 73, 1, 73, 0.81, 29.9)
        assert score_user(over).score == pytest.approx(1.0)

    @given(
        ratio=st.floats(min_value=0, max_value=1),
        per_day=st.integers(min_value=1, max_value=300),
        gap=st.floats(min_value=0.1, max_value=10_000),
        t1=st.floats(min_value=0, max_value=1.01),
        t2=st.floats(min_value=0, max_value=1.01),
    )
    def test_threshold_monotone(self, ratio, per_day, gap, t1, t2):
        act = UserActivity("u", per_day, 1, per_day, ratio, gap)
        lo, hi = sorted([t1, t2])
        bot_hi = score_user(act, BotConfig(threshold=hi)).is_bot
        bot_lo = score_user(act, BotConfig(threshold=lo)).is_bot
        if bot_hi:
            assert bot_lo  # raising the threshold never flags more users


class TestFilterCorpus:
    def make_mixed(self):
        corpus = []
        for i in range(8):
            corpus.extend(
                rec(user=f"h{i}", text=f"texto {i} {d}", ts=day_ts(d, second=i * 3000))
                for d in range(1, 4)
            )
        corpus.extend(burst_user("bot1", 120, 1800, text="compra ya"))
        corpus.extend(burst_user("bot2", 150, 900, text="gana plata"))
        return corpus

    def test_no_flagged_users_is_identity(self):
        corpus = [rec(user="a", ts=day_ts(1)), rec(user="b", ts=day_ts(2), text="otro")]
        clean, result = screen(corpus)
        assert clean == dated(corpus)
        assert all(not v.is_bot for v in result.verdicts)

    def test_only_bots_empties_corpus_but_reports_all(self):
        corpus = burst_user("b1", 100, 600) + burst_user("b2", 100, 600)
        with pytest.raises(NoRecordsError, match=r"^no record accepted \(bot-user=200\)$"):
            screen(corpus)
        human = rec(user="h", ts=day_ts(2))
        clean, result = screen(corpus + [human])
        assert clean == dated([human])
        assert [(v.user_id, v.is_bot) for v in result.verdicts] == [("b1", True), ("b2", True), ("h", False)]

    def test_planted_bots_exactly_removed(self):
        corpus = self.make_mixed()
        clean, result = screen(corpus)
        flagged = {v.user_id for v in result.verdicts if v.is_bot}
        assert flagged == {"bot1", "bot2"}
        assert {r.user_id for r in clean} == {f"h{i}" for i in range(8)}
        assert result.rejects == {"bot-user": 270}

    def test_idempotent(self):
        corpus = self.make_mixed()
        once, _ = screen(corpus)
        twice, _ = screen(once)
        assert twice == once

    def test_user_completeness(self):
        corpus = self.make_mixed()
        clean, result = screen(corpus)
        # report covers every observed user exactly once, sorted
        assert [v.user_id for v in result.verdicts] == sorted({r.user_id for r in corpus})
        # each user's records fully kept or fully dropped
        before = {u: sum(1 for r in corpus if r.user_id == u) for u in {r.user_id for r in corpus}}
        after = {u: sum(1 for r in clean if r.user_id == u) for u in before}
        for u in before:
            assert after[u] in (0, before[u])

    def test_report_csv_format(self):
        _, result = screen(self.make_mixed())
        buf = io.StringIO()
        write_report_csv(result.verdicts, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "user_id,score,is_bot,triggered_rules"
        assert len(lines) == 11
        bot_lines = [ln for ln in lines if ln.startswith("bot")]
        assert bot_lines[0].startswith("bot1,1.0000,true,")
        assert "rate|duplication|burst" in bot_lines[0]
