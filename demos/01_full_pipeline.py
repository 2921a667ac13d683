"""End-to-end walkthrough on a synthetic electorate.

Builds a corpus with known ground truth, bootstraps the stance lexicon
from its seed hashtags, counts per-user verdicts, and checks how close
the cumulative estimate lands to the scheduled mix.

Run with: python3 demos/01_full_pipeline.py
"""

from electrend.ingest import assign_day
from electrend.stance import classify_tweet, train_from_seeds
from electrend.synth import ElectorateSpec, ground_truth, iter_records, recovery_report
from electrend.trend import CounterTable, series

spec = ElectorateSpec(
    n_users=3000,
    n_days=45,
    mix=(0.475, 0.309, 0.216),
    crosstalk=0.05,
    rng_seed=20190811,
)

print("electorate:", spec.n_users, "users,", spec.n_days, "days")
print("scheduled mix: ff=%.1f%% mp=%.1f%% third=%.1f%%" % tuple(100 * p for p in spec.mix))
print("run id:", spec.run_id)
print()

# Pass 1: learn token weights from the seed-tagged tweets.
model = train_from_seeds(iter_records(spec))
print("trained lexicon:", len(model.term_weights), "weighted tokens")

# Pass 2: label every tweet and fold the labels into the counter table.
tweets = [
    (record.user_id, assign_day(record, spec.start_date), classify_tweet(record, model))
    for record in iter_records(spec)
]
table = CounterTable(tweets)
print("classified", len(tweets), "tweets from", len(table.users), "active users")
print()

cumulative = series(table, "cumulative", start_day=1, origin_date=spec.start_date)

print("cumulative estimate (every fifth day):")
print("  day   pct_ff  pct_mp  pct_others  denominator")
rows = zip(cumulative.T, cumulative.pct_ff, cumulative.pct_mp, cumulative.pct_others, cumulative.denominator)
for day, pct_ff, pct_mp, pct_others, denominator in rows:
    if day % 5 == 0 or day == spec.n_days:
        print(f"  {day:3d}   {pct_ff:6.2f}  {pct_mp:6.2f}      {pct_others:6.2f}  {denominator:11.0f}")
print()

truth = ground_truth(spec)
report = recovery_report(cumulative, truth, series_run_id=spec.run_id)
print(
    "final-day error vs scheduled mix: ff=%.2fpp mp=%.2fpp"
    % (report.final_error_ff, report.final_error_mp)
)
if report.convergence_day:
    print("both errors stay under 1 point from day", report.convergence_day)

print()
print("the same run as shell commands:")
print("  electrend synth -o corpus.jsonl --users 3000 --days 45")
print("  electrend ingest corpus.jsonl -o clean.jsonl")
print("  electrend train clean.jsonl -o model.json")
print("  electrend classify clean.jsonl -o labeled.jsonl --model model.json")
print("  electrend trend labeled.jsonl -o trend.csv --mode cumulative --t0 1")
