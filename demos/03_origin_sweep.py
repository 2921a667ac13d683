"""Does the prediction depend on when we started listening?

Recomputes the cumulative estimate from several origin days on the same
stationary corpus. A stable electorate should give nearly the same final
figure regardless of the chosen start.

Run with: python3 demos/03_origin_sweep.py
"""

from electrend.ingest import assign_day
from electrend.stance import classify_tweet, train_from_seeds
from electrend.synth import ElectorateSpec, iter_records
from electrend.trend import CounterTable, SweepFinals, sweep_columns

spec = ElectorateSpec(n_users=4000, n_days=80, crosstalk=0.05, rng_seed=20190811)
origins = [1, 21, 41, 61]

model = train_from_seeds(iter_records(spec))
table = CounterTable(
    (record.user_id, assign_day(record, spec.start_date), classify_tweet(record, model))
    for record in iter_records(spec)
)

finals = SweepFinals()  # keeps each origin's final row
for t0, cumulative in sweep_columns(table, origins, origin_date=spec.start_date):
    finals.add(t0, cumulative)

print(f"stationary corpus, {spec.n_users} users, final day {table.n_days}")
print()
print("  t0 (day)   final pct_ff   final pct_mp   denominator")
final = finals.rows
for t0, pct_ff, pct_mp, denominator in zip(finals.origins, final.pct_ff, final.pct_mp, final.denominator):
    print(f"  {t0:8d}   {pct_ff:12.2f}   {pct_mp:12.2f}   {denominator:11.0f}")
print()
print(f"spread across origins: pct_ff {finals.spread('pct_ff'):.3f}pp, "
      f"pct_mp {finals.spread('pct_mp'):.3f}pp")
print()
print("late origins see fewer tweets per user, so the denominator shrinks,")
print("but the shares barely move; a drifting electorate would not be this tidy.")
