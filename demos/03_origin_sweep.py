"""Does the prediction depend on when we started listening?

Recomputes the cumulative estimate from several origin days on the same
stationary corpus. A stable electorate should give nearly the same final
figure regardless of the chosen start.

Run with: python3 demos/03_origin_sweep.py
"""

from electrend.ingest import assign_day
from electrend.stance import classify_tweet, train_from_seeds
from electrend.synth import ElectorateSpec, iter_records
from electrend.trend import CounterTable, sweep_t0

spec = ElectorateSpec(n_users=4000, n_days=80, crosstalk=0.05, rng_seed=20190811)
origins = [1, 21, 41, 61]

model = train_from_seeds(iter_records(spec))
table = CounterTable(
    (record.user_id, assign_day(record, spec.start_date), classify_tweet(record, model))
    for record in iter_records(spec)
)

result = sweep_t0(table, origins, origin_date=spec.start_date)

print(f"stationary corpus, {spec.n_users} users, final day {result.final_day}")
print()
print("  t0 (day)   final pct_ff   final pct_mp   denominator")
for t0 in origins:
    p = result.series[t0][-1]
    print(f"  {t0:8d}   {p.pct_ff:12.2f}   {p.pct_mp:12.2f}   {p.denominator:11.0f}")
print()
print(f"spread across origins: pct_ff {result.spread_pct_ff:.3f}pp, "
      f"pct_mp {result.spread_pct_mp:.3f}pp")
print()
print("late origins see fewer tweets per user, so the denominator shrinks,")
print("but the shares barely move; a drifting electorate would not be this tidy.")
