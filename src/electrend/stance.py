"""Per-tweet stance labeling via a seed-hashtag bootstrap.

A small set of seed hashtags pins tweets to camps; those pseudo-labeled
tweets train a smoothed bag-of-words scorer (log-likelihood-ratio weights
per camp) that labels everything else. Seed tags always dominate: a tweet
carrying exactly one camp's seeds gets that camp regardless of learned
weights, and conflicting seeds yield Neutral.

The model is a plain text artifact (versioned JSON, sorted keys) so it can
be diffed, shipped and reloaded with identical behavior.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .ingest import ParseError, TweetRecord, iter_text_lines, open_text
from .manifest import dump_json, json_document

__all__ = [
    "Stance",
    "LexiconModel",
    "TrainingError",
    "DEFAULT_SEEDS",
    "CAMPS",
    "tokenize",
    "classify_tweet",
    "SeedCounts",
    "count_seeded",
    "fit",
    "train_from_seeds",
    "load_seeds_file",
]

MODEL_FORMAT_VERSION = 1

CAMPS = ("ff", "mp", "third")


class Stance(str, Enum):
    """Per-tweet verdict; exactly one per tweet."""

    PRO_FF = "pro_ff"
    PRO_MP = "pro_mp"
    PRO_THIRD = "pro_third"
    NEUTRAL = "neutral"


CAMP_TO_STANCE = {"ff": Stance.PRO_FF, "mp": Stance.PRO_MP, "third": Stance.PRO_THIRD}

# Default seed tags. Kirchnerist tags (including the anti-Macri
# #NuncamasMacri) map to the FF camp, Cambiemos-era tags to MP, and the
# bare candidate name seeds the third camp. This mapping is the single
# place where tag-to-camp polarity lives; pass a custom dict or seeds file
# to change it.
DEFAULT_SEEDS: dict[str, str] = {
    "fuerzacristina": "ff",
    "nestorvuelva": "ff",
    "nestorpudo": "ff",
    "nuncamasmacri": "ff",
    "cambiemos": "mp",
    "mm2019": "mp",
    "lavagna": "third",
}

# Candidate handles kept as tokens when mentions are stripped; the
# collection queries key on them, so they carry signal.
CANDIDATE_HANDLES = frozenset(
    {"mauriciomacri", "cfkargentina", "alferdez", "miguelpichetto", "cfk"}
)

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@(\w+)", re.UNICODE)
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


class TrainingError(RuntimeError):
    """Raised when the pseudo-labeled training set cannot support a camp."""


def tokenize(text: str) -> list[str]:
    """Lowercase unicode word tokens; URLs dropped, mentions dropped unless a candidate handle."""
    text = _URL_RE.sub(" ", text.lower())

    def _mention(match: re.Match) -> str:
        handle = match.group(1)
        return handle if handle in CANDIDATE_HANDLES else " "

    text = _MENTION_RE.sub(_mention, text)
    return _TOKEN_RE.findall(text)


@dataclass
class LexiconModel:
    """Seed map plus learned token weights for each camp."""

    seed_tags: dict[str, str]  # tag -> camp
    term_weights: dict[str, dict[str, float]] = field(default_factory=dict)
    smoothing: float = 1.0
    decision_margin: float = 0.0
    # The camps the seeds name, in CAMPS order; set from seed_tags once, when the model is made.
    camps: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        named = set(self.seed_tags.values())
        unknown = named - set(CAMPS)
        if unknown:
            raise ValueError(f"unknown camps in seeds: {sorted(unknown)}")
        if self.smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if self.decision_margin < 0:
            raise ValueError("decision margin must be nonnegative")
        self.camps = tuple(c for c in CAMPS if c in named)

    def seed_camps(self, hashtags: Iterable[str]) -> set[str]:
        return {self.seed_tags[t] for t in hashtags if t in self.seed_tags}

    def scores(self, tokens: Iterable[str]) -> dict[str, float]:
        totals = dict.fromkeys(self.camps, 0.0)
        for tok in tokens:
            weights = self.term_weights.get(tok)
            if weights:
                for camp in totals:
                    totals[camp] += weights.get(camp, 0.0)
        return totals

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "stance-lexicon",
            "smoothing": self.smoothing,
            "decision_margin": self.decision_margin,
            "seed_tags": dict(sorted(self.seed_tags.items())),
            "term_weights": {
                tok: {c: w for c, w in sorted(ws.items())}
                for tok, ws in sorted(self.term_weights.items())
            },
        }

    def save(self, fh) -> None:
        """The model as versioned JSON to ``fh``."""
        dump_json(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, obj: dict) -> "LexiconModel":
        """The model of a JSON object; anything else, or a term weight that is no finite number, is a ``ValueError``."""
        weights = json_document(obj, "format_version", MODEL_FORMAT_VERSION).get("term_weights", {})
        if not isinstance(weights, dict) or not all(
            isinstance(ws, dict) and all(type(w) in (int, float) and abs(w) <= sys.float_info.max for w in ws.values())
            for ws in weights.values()
        ):
            raise ValueError("term_weights must map each token to an object of finite numbers")
        return cls(
            seed_tags=dict(obj["seed_tags"]),
            term_weights={t: dict(ws) for t, ws in weights.items()},
            smoothing=float(obj.get("smoothing", 1.0)),
            decision_margin=float(obj.get("decision_margin", 0.0)),
        )

    @classmethod
    def load(cls, path: str) -> "LexiconModel":
        with open_text(path) as fh:
            return cls.from_dict(json.load(fh))


def classify_tweet(record: TweetRecord, model: LexiconModel) -> Stance:
    """Label one tweet. Deterministic; never raises.

    Seed tags of exactly one camp decide outright; seeds of several camps
    mean conflicting signals, hence Neutral. Otherwise the camp with the
    top bag-of-words score wins unless it leads the runner-up by no more
    than the decision margin (ties at margin 0 are Neutral).
    """
    seed_camps = model.seed_camps(record.hashtags)
    if len(seed_camps) == 1:
        return CAMP_TO_STANCE[next(iter(seed_camps))]
    if len(seed_camps) > 1:
        return Stance.NEUTRAL

    scores = model.scores(tokenize(record.text))
    if not scores:
        return Stance.NEUTRAL
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] - ranked[1][1] <= model.decision_margin:
        return Stance.NEUTRAL
    return CAMP_TO_STANCE[ranked[0][0]]


@dataclass
class SeedCounts:
    """What training reads of a corpus: seed-labelled tweets and token counts, per camp.

    The counts of a corpus are the sum (:meth:`update`) of the counts of its parts.
    """

    tweets: Counter = field(default_factory=Counter)
    tokens: dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))

    def update(self, other: SeedCounts) -> None:
        self.tweets.update(other.tweets)
        for camp, counts in other.tokens.items():
            self.tokens[camp].update(counts)


def count_seeded(records: Iterable[TweetRecord], seed_tags: dict[str, str]) -> SeedCounts:
    """Count the tweets of ``records`` that carry exactly one camp's seed tags, and their tokens, for that camp."""
    counts = SeedCounts()
    for record in records:
        seed_camps = {seed_tags[t] for t in record.hashtags if t in seed_tags}
        if len(seed_camps) != 1:
            continue
        camp = seed_camps.pop()
        counts.tweets[camp] += 1
        counts.tokens[camp].update(tokenize(record.text))
    return counts


def fit(
    counts: SeedCounts,
    seed_tags: dict[str, str] | None = None,
    smoothing: float = 1.0,
    decision_margin: float = 0.0,
) -> LexiconModel:
    """The model whose token weights fit ``counts``, which :func:`count_seeded` made with the same seeds.

    Token weights are additive-smoothed log-likelihood ratios: positive for
    tokens over-represented in a camp relative to the rest. A camp with
    zero pseudo-labeled tweets, or a smoothing that leaves a token weight
    no finite value, is a training error.
    """
    seeds = dict(DEFAULT_SEEDS if seed_tags is None else seed_tags)
    model = LexiconModel(seed_tags=seeds, smoothing=smoothing, decision_margin=decision_margin)
    camps = model.camps
    if not camps:
        raise TrainingError("seed set names no camps")
    for camp in camps:
        if counts.tweets[camp] == 0:
            raise TrainingError(f"camp {camp!r} has no seed-tagged tweets to learn from")
    token_counts = {camp: counts.tokens[camp] for camp in camps}

    vocab = set()
    for tokens in token_counts.values():
        vocab.update(tokens)
    v = len(vocab)
    totals = {camp: sum(token_counts[camp].values()) for camp in camps}
    grand_total = sum(totals.values())

    weights: dict[str, dict[str, float]] = {}
    for tok in vocab:
        per_camp = {}
        tok_total = sum(token_counts[camp][tok] for camp in camps)
        for camp in camps:
            inside = token_counts[camp][tok]
            outside = tok_total - inside
            n_inside = totals[camp]
            n_outside = grand_total - n_inside
            p_in = (inside + smoothing) / (n_inside + smoothing * v)
            p_out = (outside + smoothing) / (n_outside + smoothing * v)
            try:
                per_camp[camp] = math.log(p_in) - math.log(p_out)
            except ValueError:  # a probability of 0.0: smoothing * v overflowed, or smoothing underflowed
                raise TrainingError(f"smoothing {smoothing!r} leaves a token weight no finite value") from None
        weights[tok] = per_camp

    model.term_weights = weights
    return model


def train_from_seeds(
    records: Iterable[TweetRecord],
    seed_tags: dict[str, str] | None = None,
    smoothing: float = 1.0,
    decision_margin: float = 0.0,
) -> LexiconModel:
    """Fit token weights from seed-pseudo-labeled tweets: :func:`fit` of :func:`count_seeded`.

    Tweets carrying exactly one camp's seed tags become training data for
    that camp.
    """
    seeds = dict(DEFAULT_SEEDS if seed_tags is None else seed_tags)
    return fit(count_seeded(records, seeds), seeds, smoothing, decision_margin)


def load_seeds_file(path: str) -> dict[str, str]:
    """Read a seeds file: one ``camp tag`` pair per line; lines starting with '#' are comments.

    A malformed line raises :class:`ParseError`.
    """
    seeds: dict[str, str] = {}
    for line_no, line in iter_text_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'camp tag', got {line!r}", line_no)
        camp, tag = parts
        if camp.lower() not in CAMPS:
            raise ParseError(f"unknown camp {camp!r}, expected one of {', '.join(CAMPS)}", line_no)
        seeds[tag.lower().lstrip("#")] = camp.lower()
    return seeds
