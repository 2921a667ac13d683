"""Election-trend indicators from archived tweet corpora.

The pipeline ingests newline-delimited tweet records, removes bot-like
accounts, labels each tweet's political stance from a seed-hashtag
bootstrapped lexicon, and aggregates per-user daily stance counters into
instantaneous (trailing-window) and cumulative support series. A hashtag
co-occurrence graph with camp detection, a synthetic-electorate generator
with brute-force oracles, and a provenance-tracking CLI round out the
toolkit.
"""

__version__ = "0.1.0"
