"""Activity-based bot screening on hand-built account profiles.

Seven accounts: two ordinary humans, three that each show exactly one
odd trait, and two bots that show two. Scores combine the rate,
duplication and burst rules with equal weight and flag at 0.5, so a
single odd trait is survivable but two convict. The table comes from an
activity tracker fed each tweet with its day; the filter is the ingest
pipeline itself, run over the tweets as corpus lines with no topic query.

Run with: python3 demos/05_bot_screening.py
"""

import io
from datetime import datetime, timedelta, timezone

from electrend.botfilter import ActivityTracker, score_user
from electrend.ingest import IngestConfig, TweetRecord, effective_date, ingest_lines, record_to_json

T0 = datetime(2019, 3, 1, 8, 0, tzinfo=timezone.utc)


def tweet(user, text, minutes):
    return TweetRecord(
        tweet_id=f"{user}-{minutes}",
        user_id=user,
        created_at=T0 + timedelta(minutes=minutes),
        text=text,
        hashtags=[],
    )


records = []
# casual: a handful of tweets spread over days
for d in range(4):
    records.append(tweet("casual", f"que dia largo {d}", d * 1440))
# steady: active but human, varied text at a relaxed pace
for i in range(20):
    records.append(tweet("steady", f"opinando sobre el debate {i}", i * 500))
# firehose: heavy volume alone (rate rule only)
for i in range(100):
    records.append(tweet("firehose", f"mensaje numero {i}", i * 10))
# parrot: repeats itself at a human pace (duplication rule only)
for i in range(80):
    records.append(tweet("parrot", "VOTA VOTA VOTA", i * 18))
# machinegun: one short frenzy of 60 varied tweets (burst rule only)
for i in range(60):
    records.append(tweet("machinegun", f"ahora {i}", i / 6))
# spamcannon: 100 varied tweets in 25 minutes (rate + burst)
for i in range(100):
    records.append(tweet("spamcannon", f"oferta {i}", i / 4))
# copymachine: 90 copies of one text in an afternoon (rate + duplication)
for i in range(90):
    records.append(tweet("copymachine", "compra ya compra ya", i * 5))

tracker = ActivityTracker()
for r in records:
    tracker.add(r, effective_date(r))

print(f"{'user':<13}{'tweets':>7}{'max/day':>9}{'dup':>7}{'gap(s)':>9}{'score':>7}  verdict")
for user, activity in tracker.profiles().items():
    verdict = score_user(activity)
    rules = ",".join(verdict.triggered_rules) or "-"
    print(
        f"{user:<13}{activity.total_tweets:>7}{activity.max_tweets_per_day:>9}"
        f"{activity.duplicate_text_ratio:>7.2f}{activity.mean_inter_tweet_seconds:>9.1f}"
        f"{verdict.score:>7.2f}  {'BOT' if verdict.is_bot else 'ok':<4} ({rules})"
    )


def screen(lines):
    """The corpus lines one ingest pass keeps, and its bot verdicts."""
    out = io.StringIO()
    result = ingest_lines(enumerate(lines, start=1), IngestConfig(queries=None), out, io.StringIO())
    return out.getvalue().splitlines(), result.verdicts


lines = [record_to_json(r) for r in records]
kept, verdicts = screen(lines)
flagged = sorted(v.user_id for v in verdicts if v.is_bot)
print()
print("filter removes", len(lines) - len(kept), "tweets from", flagged)
print("single-trait accounts survive: the threshold wants two rules to agree")
print("a second pass flags nothing:", not any(v.is_bot for v in screen(kept)[1]))
