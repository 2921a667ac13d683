"""Output checks of the electrend benchmark, independent of the program's code.

Everything here reads the program's outputs with plain ``json`` and ``csv``
and compares them with what the benchmark knows from making the inputs, or
with a brute-force oracle: per-user stance sums updated day by day as tweets
enter (and, for the trailing window, leave) the range, and category tallies
moved whenever a user's verdict changes.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from datetime import date, timedelta
from itertools import zip_longest
from pathlib import Path

from workloads import (
    CLEAN, CUMULATIVE, INPUT, INSTANT, LABELED, MODEL, STRATA, STRATUM_WEIGHTS, SWEEP, WEIGHTS,
    Expected, Workload, sweep_origins,
)

STANCES = {"pro_mp": 0, "pro_ff": 1, "pro_third": 2, "neutral": 2}  # stance -> mp / ff / other
CAMP_STANCE = {"ff": "pro_ff", "mp": "pro_mp", "third": "pro_third"}
# The seed hashtags synth puts on tweets, tag -> camp. A tweet carrying the
# tags of exactly one camp must get that camp's stance; of several, neutral.
SEED_TAGS = {
    "fuerzacristina": "ff", "nestorvuelva": "ff", "nestorpudo": "ff", "nuncamasmacri": "ff",
    "cambiemos": "mp", "mm2019": "mp", "lavagna": "third",
}
# Synth writes the camp of every tweet into its text as ``<camp>word<NN>``
# tokens. Among tweets without seed tags, at least this share must get the
# stance of the camp their text names (it is 0.99 to 1.0 at any size tried).
CAMP_WORD = re.compile(r"\b(ff|mp|third)word\d+\b")
TEXT_AGREEMENT = 0.95
MP, FF, UNDECIDED, UNCLASSIFIED = range(4)
COUNT_COLUMNS = ("n_mp", "n_ff", "n_undecided", "n_unclassified")
TOLERANCE = 1e-3  # weighted counts are printed with four decimals


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


# -- ingest, train, classify -------------------------------------------------


def check_ingest(wdir: Path, expected: Expected) -> list[str]:
    problems = []
    meta = _load_json(wdir / (CLEAN + ".meta.json"))
    rejects = meta["rejects"]
    if meta["records"] + sum(rejects.values()) != meta["input_lines"]:
        problems.append(f"accepted {meta['records']} + rejected {sum(rejects.values())} != {meta['input_lines']} lines")
    if meta["input_lines"] != expected.input_lines:
        problems.append(f"meta input_lines {meta['input_lines']} != {expected.input_lines} generated")
    if meta["records"] != expected.accepted:
        problems.append(f"meta records {meta['records']} != {expected.accepted} expected")
    if rejects != expected.rejects:
        problems.append(f"rejects {rejects} != injected {expected.rejects}")
    clean_lines = _count_lines(wdir / CLEAN)
    if clean_lines != expected.accepted:
        problems.append(f"clean corpus has {clean_lines} lines, expected {expected.accepted}")
    reasons: Counter = Counter()
    with open(wdir / (INPUT + ".rejects.txt"), encoding="utf-8") as fh:
        for line in fh:
            reasons[line.rstrip("\n").split("\t", 1)[1].split(":", 1)[0]] += 1
    if dict(reasons) != expected.rejects:
        problems.append(f"rejects sidecar {dict(reasons)} != injected {expected.rejects}")
    with open(wdir / (CLEAN + ".bots.csv"), encoding="utf-8", newline="") as fh:
        flagged = {row["user_id"] for row in csv.DictReader(fh) if row["is_bot"] == "true"}
    if flagged != expected.bots:
        problems.append(
            f"flagged bots differ from truth: {len(flagged - expected.bots)} extra, "
            f"{len(expected.bots - flagged)} missed"
        )
    return problems


def check_train(wdir: Path) -> list[str]:
    model = _load_json(wdir / MODEL)
    problems = []
    if model.get("format_version") != 1 or model.get("kind") != "stance-lexicon":
        problems.append("model is not a version-1 stance lexicon")
    if model.get("seed_tags") != SEED_TAGS:
        problems.append(f"model seed tags {model.get('seed_tags')} are not the default ones")
    if not model.get("term_weights"):
        problems.append("model has no term weights")
    return problems


def stance_tallies(path: Path) -> Counter:
    """Counts over a labeled corpus: seed-decided tweets and text-scored ones.

    ``seed`` tweets carry seed tags, ``seed_decided`` those of exactly one
    camp, ``seed_wrong`` those whose stance breaks the seed rule; ``text``
    tweets carry none and name one camp in their text, ``text_agree`` those
    labeled with it.
    """
    tally: Counter = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            tally["tweets"] += 1
            camps = {SEED_TAGS[t] for t in record["hashtags"] if t in SEED_TAGS}
            if camps:
                tally["seed"] += 1
                tally["seed_decided"] += len(camps) == 1
                want = CAMP_STANCE[camps.pop()] if len(camps) == 1 else "neutral"
                tally["seed_wrong"] += record["stance"] != want
                continue
            named = set(CAMP_WORD.findall(record["text"]))
            if len(named) == 1:
                tally["text"] += 1
                tally["text_agree"] += record["stance"] == CAMP_STANCE[named.pop()]
    return tally


def check_classify(wdir: Path) -> list[str]:
    """The labeled corpus is the clean corpus plus one stance per record, and the stances are right."""
    problems = []
    with open(wdir / CLEAN, encoding="utf-8") as a, open(wdir / LABELED, encoding="utf-8") as b:
        for n, (clean, labeled) in enumerate(zip_longest(a, b), start=1):
            if clean is None or labeled is None:
                problems.append(f"labeled corpus and clean corpus differ in length at line {n}")
                break
            record = json.loads(labeled)
            if record.pop("stance", None) not in STANCES or record != json.loads(clean):
                problems.append(f"labeled line {n} is not clean line {n} plus a stance")
                break
    if _load_json(wdir / (LABELED + ".meta.json")) != _load_json(wdir / (CLEAN + ".meta.json")):
        problems.append("labeled meta sidecar differs from the clean one")
    tally = stance_tallies(wdir / LABELED)
    if tally["seed_wrong"]:
        problems.append(f"{tally['seed_wrong']} of {tally['seed']} seed-tagged tweets break the seed rule")
    if tally["text"] and tally["text_agree"] < TEXT_AGREEMENT * tally["text"]:
        problems.append(f"only {tally['text_agree']} of {tally['text']} text-scored tweets get the camp their text names")
    return problems


# -- trend oracle --------------------------------------------------------------


def load_events(path: Path) -> tuple[list[list[tuple[str, int]]], int]:
    """Per-day ``(user, class)`` events of a labeled corpus, and its last day."""
    by_day: dict[int, list[tuple[str, int]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            by_day.setdefault(int(obj["t"]), []).append((obj["user"], STANCES[obj["stance"]]))
    n_days = max(by_day)
    return [by_day.get(d, []) for d in range(n_days + 1)], n_days


def _category(sums: list[int], cumulative: bool) -> int:
    mp, ff, other = sums
    if mp > ff:
        return MP
    if mp < ff:
        return FF
    if mp > 0:
        return UNDECIDED
    if cumulative and other > 0:
        return UNCLASSIFIED
    return -1


def oracle_rows(events, n_days: int, first_day: int, window: int | None, weight_of) -> list[tuple[int, list[float]]]:
    """(day, [n_mp, n_ff, n_undecided, n_unclassified]) for each day from ``first_day``.

    ``window=None`` is the cumulative estimator from ``first_day``; otherwise
    the trailing window of that many days. Counts are sums of user weights.
    """
    cumulative = window is None
    sums: dict[str, list[int]] = {}
    tallies = [Counter() for _ in range(4)]  # category -> weight -> users

    def move(user: str, cls: int, delta: int) -> None:
        s = sums.setdefault(user, [0, 0, 0])
        before = _category(s, cumulative)
        s[cls] += delta
        after = _category(s, cumulative)
        if before != after:
            weight = weight_of(user)
            if before >= 0:
                tallies[before][weight] -= 1
            if after >= 0:
                tallies[after][weight] += 1

    rows = []
    for day in range(first_day, n_days + 1):
        for user, cls in events[day]:
            move(user, cls, 1)
        if window is not None and day - window >= 1:
            for user, cls in events[day - window]:
                move(user, cls, -1)
        rows.append((day, [sum(w * n for w, n in t.items()) for t in tallies]))
    return rows


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _compare_counts(where: str, got: dict, want: list[float], cumulative: bool) -> str | None:
    values = [float(got[c]) for c in COUNT_COLUMNS]
    denominator = sum(want) if cumulative else sum(want[:3])
    if all(_same(v, w) for v, w in zip(values, want)) and _same(float(got["denominator"]), denominator):
        return None
    return f"{where}: counts {values} + denominator {got['denominator']}, oracle {want} + {denominator}"


def compare_series(path: Path, oracle: list[tuple[int, list[float]]], cumulative: bool) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["T"]) for r in rows] != [day for day, _ in oracle]:
        return [f"{path.name}: days {len(rows)} rows differ from the oracle's {len(oracle)}"]
    bad = [m for r, (day, want) in zip(rows, oracle)
           if (m := _compare_counts(f"{path.name} T={day}", r, want, cumulative))]
    return bad[:1] + ([f"{path.name}: {len(bad)} rows differ from the oracle"] if bad else [])


class TrendOracle:
    """Loads the labeled corpus once and checks every trend output against it."""

    def __init__(self, wdir: Path):
        self.wdir = wdir
        self.events, self.n_days = load_events(wdir / LABELED)
        self.meta = _load_json(wdir / (LABELED + ".meta.json"))

    def check_instant(self, window: int) -> list[str]:
        strata = {}
        with open(self.wdir / STRATA, encoding="utf-8") as fh:
            next(fh)
            for row in fh:
                user, stratum = row.strip().split(",")
                strata[user] = stratum
        weights = {}
        with open(self.wdir / WEIGHTS, encoding="utf-8") as fh:
            next(fh)
            for row in fh:
                stratum, weight = row.strip().split(",")
                weights[stratum] = float(weight)
        if weights != STRATUM_WEIGHTS:
            return [f"weights file {weights} is not the benchmark's {STRATUM_WEIGHTS}"]

        def weight_of(user: str) -> float:
            return weights.get(strata.get(user), 1.0)

        rows = oracle_rows(self.events, self.n_days, 1, window, weight_of)
        return compare_series(self.wdir / INSTANT, rows, cumulative=False)

    def check_cumulative(self) -> list[str]:
        rows = oracle_rows(self.events, self.n_days, 1, None, lambda _: 1)
        return compare_series(self.wdir / CUMULATIVE, rows, cumulative=True)

    def check_sweep(self) -> list[str]:
        sweep = self.wdir / SWEEP
        origin = date.fromisoformat(self.meta["origin_date"])
        origins = sweep_origins(int(self.meta["n_days"]))
        names = {f"trend_t0_{(origin + timedelta(days=t0 - 1)).isoformat()}.csv": t0 for t0 in origins}
        present = {p.name for p in sweep.iterdir() if not p.name.endswith(".manifest.json")}
        if present != set(names) | {"sweep_summary.csv"}:
            return [f"sweep directory holds {len(present)} files, expected {len(names) + 1}"]
        problems = []
        finals = {}
        for name, t0 in sorted(names.items(), key=lambda kv: kv[1]):
            rows = oracle_rows(self.events, self.n_days, t0, None, lambda _: 1)
            finals[t0] = rows[-1]
            problems += compare_series(sweep / name, rows, cumulative=True)
        with open(sweep / "sweep_summary.csv", encoding="utf-8", newline="") as fh:
            summary = list(csv.DictReader(fh))
        if [int(r["start_day"]) for r in summary] != origins:
            return problems + ["sweep summary rows do not match the origins"]
        for r in summary:
            day, want = finals[int(r["start_day"])]
            if int(r["final_day"]) != day:
                problems.append(f"sweep summary t0={r['start_day']}: final day {r['final_day']} != {day}")
            elif m := _compare_counts(f"sweep summary t0={r['start_day']}", r, want, cumulative=True):
                problems.append(m)
        return problems


def check_stages(w: Workload, wdir: Path, expected: Expected, stages) -> dict[str, list[str]]:
    """Problems in the outputs of each stage in ``stages``; an empty list is a pass."""
    found: dict[str, list[str]] = {}
    oracle = None
    for stage in stages:
        try:
            if stage == "ingest":
                found[stage] = check_ingest(wdir, expected)
            elif stage == "train":
                found[stage] = check_train(wdir)
            elif stage == "classify":
                found[stage] = check_classify(wdir)
            else:
                oracle = oracle or TrendOracle(wdir)
                if stage == "trend_instant":
                    found[stage] = oracle.check_instant(w.window)
                elif stage == "trend_cumulative":
                    found[stage] = oracle.check_cumulative()
                else:
                    found[stage] = oracle.check_sweep()
        except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            found[stage] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return found


def check_pinned(tree: dict[str, str], pinned: dict[str, str] | None) -> list[str]:
    """Files whose digest differs from the pinned one (None: no pins for this seed)."""
    if pinned is None:
        return []
    return sorted(rel for rel, digest in tree.items() if pinned.get(rel) != digest)


def output_counts(wdir: Path) -> dict[str, float]:
    """Sizes of the traced run's data, read from the CLI's outputs."""
    meta = _load_json(wdir / (CLEAN + ".meta.json"))
    rejects = meta["rejects"]
    query_in = meta["input_lines"] - rejects.get("parse", 0) - rejects.get("retweet", 0)
    with open(wdir / (CLEAN + ".bots.csv"), encoding="utf-8", newline="") as fh:
        verdicts = [row["is_bot"] == "true" for row in csv.DictReader(fh)]
    tally = stance_tallies(wdir / LABELED)
    points = null_points = 0
    for path in (wdir / INSTANT, wdir / CUMULATIVE, *sorted((wdir / SWEEP).glob("trend_t0_*.csv"))):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        points += len(rows)
        null_points += sum(1 for r in rows if r["pct_ff"] == "")
    return {
        "ingest.query_in": query_in,
        "ingest.query_out": query_in - rejects.get("no-query-match", 0),
        "ingest.parse_rejects": rejects.get("parse", 0),
        "botfilter.users": len(verdicts),
        "botfilter.flagged": sum(verdicts),
        "stance.seed_decided_share": tally["seed_decided"] / max(1, tally["tweets"]),
        "trend.points": points,
        "trend.null_points": null_points,
    }
