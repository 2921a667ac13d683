"""Why keep two estimators: opinion shifts versus final outcomes.

The electorate flips from FF-led to MP-led at day 60. The trailing-window
estimate follows the flip within roughly one window length; the cumulative
estimate, weighed down by months of pre-flip evidence, does not cross at
all inside the horizon.

Run with: python3 demos/02_instant_vs_cumulative.py
"""

from electrend.ingest import assign_day
from electrend.stance import classify_tweet, train_from_seeds
from electrend.synth import ElectorateSpec, iter_records
from electrend.trend import CounterTable, series

WINDOW = 14

spec = ElectorateSpec(
    n_users=2500,
    n_days=90,
    mix=(0.475, 0.309, 0.216),
    drift=((60, (0.309, 0.475, 0.216)),),  # ff and mp swap shares
    crosstalk=0.05,
    rng_seed=20190811,
)

print("mix flips at day 60: ff 47.5 -> 30.9, mp 30.9 -> 47.5")
print("window length:", WINDOW, "days")
print()

model = train_from_seeds(iter_records(spec))
table = CounterTable(
    (record.user_id, assign_day(record, spec.start_date), classify_tweet(record, model))
    for record in iter_records(spec)
)

instant = series(table, "instant", window=WINDOW, origin_date=spec.start_date)
cumulative = series(table, "cumulative", start_day=1, origin_date=spec.start_date)

print("        --- instant ---    -- cumulative --")
print("  day    pct_ff  pct_mp     pct_ff  pct_mp")
for day, inst_ff, inst_mp, cum_ff, cum_mp in zip(
    instant.T, instant.pct_ff, instant.pct_mp, cumulative.pct_ff, cumulative.pct_mp
):
    if day % 5 == 0 and day >= 40:
        marker = "  <- flip" if day == 60 else ""
        print(f"  {day:3d}    {inst_ff:6.2f}  {inst_mp:6.2f}     {cum_ff:6.2f}  {cum_mp:6.2f}{marker}")
print()

crossing = next(
    (day for day, ff, mp in zip(instant.T, instant.pct_ff, instant.pct_mp)
     if day >= 60 and mp is not None and mp > ff),
    None,
)
print("instant series crosses (mp above ff) at day", crossing)
print(
    f"cumulative series at day {cumulative.T[-1]}: "
    f"ff={cumulative.pct_ff[-1]:.2f} mp={cumulative.pct_mp[-1]:.2f} (still uncrossed)"
)
print()
print("moral: read the window estimate like a poll tracker and the")
print("cumulative estimate like an election forecast.")
