"""Synthetic electorate generator, category oracle and recovery report."""

import io
from datetime import date

import pytest
from scipy import stats

from electrend.ingest import record_to_json
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
        with pytest.raises(ValueError, match="spec version"):
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
