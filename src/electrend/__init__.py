"""Election-trend indicators from archived tweet corpora.

The pipeline ingests newline-delimited tweet records, removes bot-like
accounts, labels each tweet's political stance from a seed-hashtag
bootstrapped lexicon, and aggregates per-user daily stance counters into
instantaneous (trailing-window) and cumulative support series. A hashtag
co-occurrence graph with camp detection, a synthetic-electorate generator
with brute-force oracles, and a provenance-tracking CLI round out the
toolkit.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public names by the module that defines them. They are imported on first
# use (PEP 562), so a command that needs no numpy does not load it.
_EXPORTS = {
    "botfilter": ("BotConfig", "BotVerdict", "UserActivity", "score_user"),
    "hashtags": ("CampPartition", "CooccurrenceGraph", "build_graph", "camp_clouds", "partition_graph"),
    "ingest": (
        "IngestConfig",
        "IngestResult",
        "QuerySet",
        "TweetRecord",
        "assign_day",
        "extract_hashtags",
        "ingest_lines",
        "matches_query",
        "parse_record",
        "record_to_json",
    ),
    "stance": ("LexiconModel", "Stance", "classify_tweet", "train_from_seeds"),
    "synth": (
        "ElectorateSpec",
        "GroundTruth",
        "ground_truth",
        "oracle_categories",
        "recovery_report",
    ),
    "trend": (
        "CounterTable",
        "TrendPoint",
        "UserCategory",
        "apply_demographic_weights",
        "sweep_t0",
        "trend_cumulative",
        "trend_instant",
        "user_weights",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
