"""Election-trend indicators from archived tweet corpora.

The pipeline ingests newline-delimited tweet records, removes bot-like
accounts, labels each tweet's political stance from a seed-hashtag
bootstrapped lexicon, and aggregates per-user daily stance counters into
instantaneous (trailing-window) and cumulative support series. A hashtag
co-occurrence graph with camp detection, a synthetic-electorate generator
with brute-force oracles, and a provenance-tracking CLI round out the
toolkit.
"""

from .botfilter import BotConfig, BotVerdict, UserActivity, filter_corpus, score_user
from .hashtags import (
    CampPartition,
    CooccurrenceGraph,
    build_graph,
    camp_clouds,
    partition_graph,
)
from .ingest import (
    QuerySet,
    TweetRecord,
    assign_day,
    extract_hashtags,
    matches_query,
    parse_record,
    record_to_json,
)
from .stance import LexiconModel, Stance, classify_corpus, classify_tweet, train_from_seeds
from .synth import (
    ElectorateSpec,
    GroundTruth,
    generate,
    ground_truth,
    oracle_categories,
    recovery_report,
)
from .trend import (
    CounterTable,
    CumulativeConfig,
    TrendPoint,
    UserCategory,
    WindowConfig,
    apply_demographic_weights,
    sweep_t0,
    trend_cumulative,
    trend_instant,
    user_weights,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BotConfig",
    "BotVerdict",
    "UserActivity",
    "filter_corpus",
    "score_user",
    "CampPartition",
    "CooccurrenceGraph",
    "build_graph",
    "camp_clouds",
    "partition_graph",
    "QuerySet",
    "TweetRecord",
    "assign_day",
    "extract_hashtags",
    "matches_query",
    "parse_record",
    "record_to_json",
    "LexiconModel",
    "Stance",
    "classify_corpus",
    "classify_tweet",
    "train_from_seeds",
    "ElectorateSpec",
    "GroundTruth",
    "generate",
    "ground_truth",
    "oracle_categories",
    "recovery_report",
    "CounterTable",
    "CumulativeConfig",
    "TrendPoint",
    "UserCategory",
    "WindowConfig",
    "apply_demographic_weights",
    "sweep_t0",
    "trend_cumulative",
    "trend_instant",
    "user_weights",
]
