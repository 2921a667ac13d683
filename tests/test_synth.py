"""Synthetic electorate generator, category oracle and recovery report."""

import io
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from electrend import synth
from electrend.ingest import TweetRecord, parse_record, record_to_json
from electrend.synth import (
    ElectorateSpec,
    RecoveryReport,
    ground_truth,
    iter_records,
    oracle_categories,
    recovery_report,
    write_corpus,
)
from electrend.trend import TrendColumns, UserCategory


def small_spec(**overrides):
    base = dict(n_users=20, n_days=5, rng_seed=11)
    base.update(overrides)
    return ElectorateSpec(**base)


class TestSpec:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            small_spec(mix=(0.5, 0.5, 0.5))

    def test_mix_needs_three_components(self):
        with pytest.raises(ValueError, match="three components"):
            small_spec(mix=(0.5, 0.5))

    def test_crosstalk_below_half(self):
        with pytest.raises(ValueError, match="crosstalk"):
            small_spec(crosstalk=0.5)

    def test_drift_day_in_range(self):
        with pytest.raises(ValueError, match="drift day"):
            small_spec(drift=((1, (0.3, 0.5, 0.2)),))
        with pytest.raises(ValueError, match="drift day"):
            small_spec(drift=((6, (0.3, 0.5, 0.2)),))

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_rng_seed_is_an_int_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
            small_spec(rng_seed=seed)

    def test_positive_rates_required(self):
        with pytest.raises(ValueError):
            small_spec(mean_rate=0.0)
        for field in ("mean_rate", "rate_shape"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite and positive"):
                    small_spec(**{field: bad})

    @pytest.mark.parametrize(
        "start, n_days", [(date(9999, 12, 30), 5), (date(9999, 12, 29), 3), (date.max, 1), (date.min, 1)]
    )
    def test_calendar_keeps_off_its_first_and_last_day(self, start, n_days):
        with pytest.raises(ValueError, match="every day must lie strictly between 0001-01-01 and 9999-12-31"):
            small_spec(start_date=start, n_days=n_days)

    @pytest.mark.parametrize("rates", [{"mean_rate": 1e308}, {"mean_rate": 1e300, "rate_shape": 1e-10}], ids=["large", "nan"])
    def test_a_rate_numpy_cannot_draw_is_refused(self, rates):
        spec = small_spec(n_users=3, **rates)
        refusal = r"^user u000000 draws a rate of (inf|nan|[0-9.e+]+) tweets a day, which numpy cannot draw from$"
        for generate in (ground_truth, lambda s: list(iter_records(s))):
            with pytest.raises(ValueError, match=refusal):
                generate(spec)

    @pytest.mark.parametrize(
        "fields", [{"mean_rate": 1e12}, {"bot_fraction": 0.5, "bot_rate": 300_000}], ids=["rate", "bot-rate"]
    )
    def test_a_user_past_the_tweet_cap_is_refused(self, fields):
        spec = small_spec(n_users=3, **fields)
        refusal = r"^user u000000 expects [0-9.e+]+ tweets over 5 days, more than the 1000000 a user may have$"
        for generate in (ground_truth, lambda s: next(iter_records(s))):
            with pytest.raises(ValueError, match=refusal):
                generate(spec)

    @pytest.mark.parametrize("bot_rate", [10**11, 10**400])
    def test_a_bot_rate_past_the_tweet_cap_is_refused(self, bot_rate):
        with pytest.raises(ValueError, match="^bot_rate must be at most 1000000, the tweets a user may have over a run$"):
            small_spec(bot_fraction=0.5, bot_rate=bot_rate)

    def test_a_user_at_the_tweet_cap_is_drawn(self):
        spec = small_spec(n_users=1, n_days=1, bot_fraction=0.9, bot_rate=synth.MAX_USER_TWEETS)
        assert ground_truth(spec).is_bot == {"u000000": True}

    @pytest.mark.parametrize("start, n_days", [(date(9999, 12, 28), 3), (date(1, 1, 2), 3)])
    def test_corpus_at_the_calendar_edges_parses(self, start, n_days):
        lines = [record_to_json(r) for r in iter_records(small_spec(start_date=start, n_days=n_days, mean_rate=3.0))]
        assert lines
        for line_no, line in enumerate(lines, 1):
            parse_record(line, line_no)

    def test_drift_sorted_and_mix_for_day(self):
        spec = small_spec(
            n_days=10,
            drift=((8, (0.2, 0.6, 0.2)), (4, (0.1, 0.8, 0.1))),
        )
        assert [d for d, _ in spec.drift] == [4, 8]
        assert spec.mix_for_day(3) == spec.mix
        assert spec.mix_for_day(4) == (0.1, 0.8, 0.1)
        assert spec.mix_for_day(9) == (0.2, 0.6, 0.2)
        assert len(spec.phases) == 3

    def test_save_load_round_trip(self, tmp_path):
        spec = small_spec(
            drift=((3, (0.2, 0.6, 0.2)),),
            bot_fraction=0.1,
            start_date=date(2019, 6, 1),
        )
        path = tmp_path / "spec.json"
        with open(path, "w", encoding="utf-8") as fh:
            spec.save(fh)
        assert ElectorateSpec.load(str(path)) == spec

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "spec.json"
        obj = small_spec().to_dict()
        obj["spec_version"] = 99
        path.write_text(__import__("json").dumps(obj))
        with pytest.raises(ValueError, match="^spec_version is not 1$"):
            ElectorateSpec.load(str(path))

    def test_run_id_stable_and_sensitive(self):
        assert small_spec().run_id == small_spec().run_id
        assert small_spec().run_id != small_spec(rng_seed=12).run_id


class TestGenerator:
    def test_byte_identical_reruns(self):
        spec = small_spec()
        first = [record_to_json(r) for r in iter_records(spec)]
        second = [record_to_json(r) for r in iter_records(spec)]
        assert first == second
        assert first  # not vacuous

    def test_per_user_streams_independent_of_population_size(self):
        few = small_spec(n_users=3)
        many = small_spec(n_users=8)
        prefix = {u: [] for u in ("u000000", "u000001", "u000002")}
        for r in iter_records(many):
            if r.user_id in prefix:
                prefix[r.user_id].append(record_to_json(r))
        split = {u: [] for u in prefix}
        for r in iter_records(few):
            split[r.user_id].append(record_to_json(r))
        assert split == prefix

    def test_empty_population(self):
        spec = small_spec(n_users=0)
        records, truth = list(iter_records(spec)), ground_truth(spec)
        assert records == []
        assert truth.stance_of == {} and truth.is_bot == {}

    def test_pure_ff_without_crosstalk(self):
        spec = small_spec(mix=(1.0, 0.0, 0.0), crosstalk=0.0, mean_rate=2.0)
        records, truth = list(iter_records(spec)), ground_truth(spec)
        assert set(truth.stance_of.values()) == {"ff"}
        assert records
        for r in records:
            assert "ffword" in r.text
            assert "mpword" not in r.text and "thirdword" not in r.text

    def test_crosstalk_never_touches_third_users(self):
        spec = small_spec(
            n_users=40, mix=(0.0, 0.0, 1.0), crosstalk=0.3, mean_rate=2.0
        )
        for r in iter_records(spec):
            assert "thirdword" in r.text

    def test_stance_draws_match_scheduled_mix(self):
        spec = ElectorateSpec(n_users=10_000, n_days=1, rng_seed=4)
        truth = ground_truth(spec)
        counts = {"ff": 0, "mp": 0, "third": 0}
        for stance in truth.stance_of.values():
            counts[stance] += 1
        for camp, p in zip(("ff", "mp", "third"), spec.mix):
            lo = stats.binom.ppf(0.005, spec.n_users, p)
            hi = stats.binom.ppf(0.995, spec.n_users, p)
            assert lo <= counts[camp] <= hi, (camp, counts[camp], (lo, hi))

    def test_timestamps_follow_the_calendar(self):
        spec = small_spec(start_date=date(2019, 8, 1))
        days = {r.created_at.date() for r in iter_records(spec)}
        assert min(days) >= date(2019, 8, 1)
        assert max(days) <= date(2019, 8, 5)

    def test_bots_lead_the_roster_and_spam(self):
        spec = small_spec(n_users=10, bot_fraction=0.2, bot_rate=25, n_days=3)
        records, truth = list(iter_records(spec)), ground_truth(spec)
        assert spec.n_bots == 2
        assert [u for u, b in sorted(truth.is_bot.items()) if b] == ["u000000", "u000001"]
        bot_tweets = [r for r in records if r.user_id == "u000000"]
        assert len(bot_tweets) == 25 * 3
        assert len({r.text for r in bot_tweets}) == 1

    def test_truth_csv_format(self, tmp_path):
        spec = small_spec(n_users=3, bot_fraction=0.4)
        truth_path = tmp_path / "t.csv"
        with open(truth_path, "w", encoding="utf-8", newline="") as fh:
            ground_truth(spec).write_csv(fh)
        lines = truth_path.read_text().splitlines()
        assert lines[0] == "user_id,stance,is_bot"
        assert len(lines) == 4
        user, stance, bot = lines[1].split(",")
        assert user == "u000000"
        assert stance in {"ff", "mp", "third"}
        assert bot in {"true", "false"}

    def test_write_corpus_streams_every_record(self, tmp_path):
        spec = small_spec()
        out = io.StringIO()
        n = write_corpus(spec, out)
        assert n == len(out.getvalue().splitlines()) == len(list(iter_records(spec)))


def reference_user_records(spec, index):
    """The generator walked day by day over the whole calendar, reading numpy scalars by index.

    The reference for ``synth._user_records``, which visits only the days
    with tweets: both make the same draws in the same order, so their
    records must be equal.
    """
    stances, rate, is_bot = synth._user_params(spec, index)
    uid = synth._user_id(index)
    rng = np.random.default_rng((spec.rng_seed, index, 1))
    starts = synth._phase_starts(spec)

    if is_bot:
        camp = stances[0]
        tag = synth._SEED_LISTS[camp][0] if synth._SEED_LISTS[camp] else None
        name = synth._NAME_REFS[int(rng.integers(0, len(synth._NAME_REFS)))]
        text = f"{name} vota vota" + (f" #{tag}" if tag else "")
        seq = 0
        for day in range(1, spec.n_days + 1):
            seconds = np.sort(rng.integers(0, 86400, spec.bot_rate))
            for s in seconds:
                created = datetime.combine(
                    spec.start_date + timedelta(days=day - 1), datetime.min.time(), tzinfo=synth._UTC
                ) + timedelta(seconds=int(s))
                yield TweetRecord(f"s{index}-{seq}", uid, created, text, [tag] if tag else [])
                seq += 1
        return

    daily = rng.poisson(rate, spec.n_days)
    total = int(daily.sum())
    if total == 0:
        return
    seconds = rng.integers(0, 86400, total)
    against = rng.random(total) < spec.crosstalk
    word_a = rng.integers(0, spec.vocab_size, total)
    word_b = rng.integers(0, spec.vocab_size, total)
    common = rng.integers(0, spec.common_vocab_size, total)
    name_pick = rng.integers(0, len(synth._NAME_REFS), total)
    seeded = rng.random(total) < spec.seed_rate
    seed_u = rng.random(total)

    phase = 0
    seq = 0
    for day in range(1, spec.n_days + 1):
        while phase + 1 < len(starts) and day >= starts[phase + 1]:
            phase += 1
        own = stances[phase]
        midnight = datetime.combine(
            spec.start_date + timedelta(days=day - 1), datetime.min.time(), tzinfo=synth._UTC
        )
        for _ in range(int(daily[day - 1])):
            camp = own
            if against[seq] and own != "third":
                camp = "mp" if own == "ff" else "ff"
            tokens = [
                synth._NAME_REFS[int(name_pick[seq])],
                f"{camp}word{int(word_a[seq]):02d}",
                f"{camp}word{int(word_b[seq]):02d}",
                f"comun{int(common[seq]):02d}",
            ]
            tags = []
            if seeded[seq] and synth._SEED_LISTS[camp]:
                tag = synth._SEED_LISTS[camp][int(seed_u[seq] * len(synth._SEED_LISTS[camp]))]
                tokens.append(f"#{tag}")
                tags.append(tag)
            yield TweetRecord(
                f"s{index}-{seq}", uid, midnight + timedelta(seconds=int(seconds[seq])), " ".join(tokens), tags
            )
            seq += 1


@st.composite
def electorates(draw):
    n_days = draw(st.integers(1, 400))
    drift_days = set()
    if n_days >= 2:
        drift_days = draw(st.sets(st.sampled_from(sorted({2, n_days, (n_days + 2) // 2})), max_size=3))
    mixes = st.sampled_from([(0.475, 0.309, 0.216), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.2, 0.6, 0.2)])
    return ElectorateSpec(
        n_users=draw(st.integers(0, 30)),
        n_days=n_days,
        mix=draw(mixes),
        mean_rate=draw(st.sampled_from([0.0005, 0.01, 0.2, 1.0, 3.0])),
        rate_shape=draw(st.sampled_from([0.3, 2.0])),
        crosstalk=draw(st.sampled_from([0.0, 0.05, 0.4999])),
        seed_rate=draw(st.sampled_from([0.0, 0.6, 1.0])),
        bot_fraction=draw(st.sampled_from([0.0, 0.0, 0.1, 0.34])),
        bot_rate=draw(st.sampled_from([0, 1, 7, 13])),
        drift=tuple((day, draw(mixes)) for day in sorted(drift_days)),
        # the last start ends every drawn length on 9999-12-30, the calendar's last day a corpus may use
        start_date=draw(st.sampled_from([date(2019, 3, 1), date(2020, 2, 28), date.max - timedelta(days=n_days)])),
        rng_seed=draw(st.integers(0, 2**32)),
    )


class TestAgainstTheDayByDayReference:
    @settings(max_examples=40, deadline=None)
    @given(spec=electorates())
    @example(spec=ElectorateSpec(n_users=30, n_days=400, mean_rate=3.0, drift=((2, (0.2, 0.6, 0.2)), (400, (1.0, 0.0, 0.0)))))
    @example(spec=ElectorateSpec(n_users=12, n_days=9, mean_rate=0.0005, bot_fraction=0.25, bot_rate=0, crosstalk=0.4999))
    def test_records_and_corpus_text_equal_the_reference(self, spec):
        expected = [r for index in range(spec.n_users) for r in reference_user_records(spec, index)]
        assert list(iter_records(spec)) == expected
        out = io.StringIO()
        assert write_corpus(spec, out) == len(expected)
        assert out.getvalue() == "".join(record_to_json(r) + "\n" for r in expected)


class TestOracle:
    counts = {
        "a": {1: (2, 0, 0), 5: (0, 3, 0)},
        "b": {2: (1, 1, 0)},
        "c": {3: (0, 0, 4)},
        "d": {},
    }

    def test_instant_hand_fixture(self):
        got = oracle_categories(self.counts, "instant", day=5, window=5)
        assert got == {"a": UserCategory.FF, "b": UserCategory.UNDECIDED}

    def test_instant_short_window_drops_old_evidence(self):
        got = oracle_categories(self.counts, "instant", day=5, window=1)
        assert got == {"a": UserCategory.FF}

    def test_window_clamps_at_day_one(self):
        got = oracle_categories(self.counts, "instant", day=2, window=14)
        assert got["a"] == UserCategory.MP

    def test_cumulative_adds_unclassified(self):
        got = oracle_categories(self.counts, "cumulative", day=5, start_day=1)
        assert got == {
            "a": UserCategory.FF,
            "b": UserCategory.UNDECIDED,
            "c": UserCategory.UNCLASSIFIED,
        }

    def test_cumulative_start_excludes_earlier_days(self):
        got = oracle_categories(self.counts, "cumulative", day=5, start_day=4)
        assert got == {"a": UserCategory.FF}

    def test_silent_users_omitted_everywhere(self):
        for got in (
            oracle_categories(self.counts, "instant", day=5, window=5),
            oracle_categories(self.counts, "cumulative", day=5, start_day=1),
        ):
            assert "d" not in got

    def test_early_coincidence_on_decided_users(self):
        instant = oracle_categories(self.counts, "instant", day=5, window=14)
        cumulative = oracle_categories(self.counts, "cumulative", day=5, start_day=1)
        decided = {UserCategory.MP, UserCategory.FF, UserCategory.UNDECIDED}
        assert {u: c for u, c in instant.items() if c in decided} == {
            u: c for u, c in cumulative.items() if c in decided
        }

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="window"):
            oracle_categories(self.counts, "instant", day=5)
        with pytest.raises(ValueError, match="start day"):
            oracle_categories(self.counts, "cumulative", day=5)
        with pytest.raises(ValueError, match="start_day"):
            oracle_categories(self.counts, "cumulative", day=5, start_day=9)
        with pytest.raises(ValueError, match="mode"):
            oracle_categories(self.counts, "sideways", day=5, window=3)


def point(day, pct_ff, pct_mp):
    """One day of a cumulative series, as one-row columns."""
    filled = pct_ff is not None
    return TrendColumns(
        date=[None],
        T=[day],
        n_mp=[10],
        n_ff=[10],
        n_undecided=[0],
        n_unclassified=[0],
        pct_ff=[pct_ff],
        pct_mp=[pct_mp],
        pct_others=[0.0 if filled else None],
        denominator=[20 if filled else 0],
    )


def joined(points):
    """The series of the one-row ``points``, in their order."""
    return TrendColumns(*(sum(column, []) for column in zip(*points)))


class TestRecoveryReport:
    def test_exact_estimates_give_zero_error(self):
        spec = small_spec()
        truth = ground_truth(spec)
        points = [
            point(d, 100 * spec.mix[0], 100 * spec.mix[1])
            for d in range(1, spec.n_days + 1)
        ]
        report = recovery_report(joined(points), truth)
        assert report.final_error_ff == 0.0
        assert report.final_error_mp == 0.0
        assert report.convergence_day == 1

    def test_convergence_day_is_first_day_of_final_good_streak(self):
        truth = ground_truth(small_spec())
        mix = truth.mix_by_day[0]
        good = (100 * mix[0], 100 * mix[1])
        points = [
            point(1, good[0] + 5, good[1]),
            point(2, good[0] + 0.2, good[1]),
            point(3, good[0] + 3, good[1]),
            point(4, good[0] - 0.4, good[1] + 0.1),
            point(5, good[0], good[1]),
        ]
        report = recovery_report(joined(points), truth)
        assert report.convergence_day == 4
        assert report.final_error_ff == 0.0

    def test_null_points_skipped(self):
        truth = ground_truth(small_spec())
        mix = truth.mix_by_day[0]
        points = [point(1, None, None), point(2, 100 * mix[0], 100 * mix[1])]
        report = recovery_report(joined(points), truth)
        assert [row.day for row in report.rows] == [2]

    def test_no_usable_points(self):
        truth = ground_truth(small_spec())
        report = recovery_report(point(1, None, None), truth)
        assert report == RecoveryReport((), None, None, None)

    def test_run_id_mismatch_rejected(self):
        truth = ground_truth(small_spec())
        with pytest.raises(ValueError, match="run id"):
            recovery_report(point(1, 50.0, 50.0), truth, series_run_id="beefbeefbeef")

    def test_matching_run_id_accepted(self):
        spec = small_spec()
        truth = ground_truth(spec)
        report = recovery_report(point(1, 50.0, 50.0), truth, series_run_id=spec.run_id)
        assert len(report.rows) == 1
