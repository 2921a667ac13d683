"""Self-test of the benchmark's output checks, on tiny inputs.

    python3 perfbench/selftest.py

For each workload at a tiny scale and a non-default seed, the whole CLI
chain must pass every output check. Then single outputs are corrupted (a
count bumped in a trend CSV, a line dropped from the clean corpus, a bot
verdict flipped, ...) and the check of the stage that wrote them must fail.
Digests pinned at one seed must not match another seed's outputs, though
that seed passes every other check. Finally ``BENCHMARK.json`` must list
exactly the metrics ``run.py`` reports. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
import sys
from pathlib import Path

from checks import SEED_TAGS, check_pinned
from run import END_TO_END, LAYER_METRICS, check_outputs
from workloads import (
    CHAIN, CLEAN, CUMULATIVE, INSTANT, LABELED, MODEL, ROOT, SWEEP, WORK, WORKLOADS, digest_tree, run_chain,
)

TINY = {
    "pipeline-50k": {"users": "60", "days": "20"},
    "ingest-noisy": {"users": "200", "days": "10"},  # one planted bot
    "trend-longrange": {"users": "150", "days": "60", "mean_rate": "0.3", "drift": "30:0.309,0.475,0.216"},
}
SEEDS = (5, 6)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_chain(name: str, seed: int):
    w = WORKLOADS[name].scaled(**TINY[name])
    wdir = WORK / f"selftest-{name}-{seed}"
    return w, wdir, run_chain(w, seed, wdir)


def failing(w, wdir, expected, seed: int) -> set[str]:
    """Stages whose runs the benchmark would count as failed ops."""
    verdicts = check_outputs(w, wdir, expected, (), CHAIN, digest_tree(wdir), seed)
    return {stage for stage in ("setup", *CHAIN) if verdicts.failed(stage)}


def corrupt(path: Path, edit) -> bytes:
    """Apply ``edit`` to the file's text; returns the original bytes."""
    original = path.read_bytes()
    path.write_bytes(edit(original.decode("utf-8")).encode("utf-8"))
    return original


def bump_count(text: str, row: int = 3, column: str = "n_mp") -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row][col] = str(float(rows[row][col]) + 1)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def drop_line(text: str, n: int = 7) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:n] + lines[n + 1:])


def flip_first_bot(text: str) -> str:
    return text.replace(",true,", ",false,", 1) if ",true," in text else text.replace(",false,", ",true,", 1)


def flip_seeded_stance(text: str) -> str:
    """Change the stance of the first tweet that carries a seed tag."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        record = json.loads(line)
        if any(tag in SEED_TAGS for tag in record["hashtags"]):
            record["stance"] = "neutral" if record["stance"] != "neutral" else "pro_mp"
            lines[i] = json.dumps(record, ensure_ascii=False) + "\n"
            break
    return "".join(lines)


def all_neutral(text: str) -> str:
    return re.sub(r'"stance": "pro_\w+"', '"stance": "neutral"', text)


def check_corruption(w, wdir, expected, rel: str, edit, stage: str, what: str) -> None:
    path = wdir / rel
    original = corrupt(path, edit)
    try:
        expect(stage in failing(w, wdir, expected, SEEDS[0]), f"{w.name}: {what} fails the {stage} check")
    finally:
        path.write_bytes(original)


def main() -> int:
    for name in TINY:
        chains = {seed: tiny_chain(name, seed) for seed in SEEDS}
        trees = {}
        for seed, (w, wdir, expected) in chains.items():
            expect(not failing(w, wdir, expected, seed), f"{name} seed {seed}: every output check passes")
            trees[seed] = digest_tree(wdir)
        first, second = SEEDS
        expect(bool(check_pinned(trees[second], trees[first])),
               f"{name}: seed {second} outputs differ from digests pinned at seed {first}")
        expect(not check_pinned(trees[first], trees[first]), f"{name}: digests pinned at seed {first} match it")

        w, wdir, expected = chains[first]
        sweep_csv = sorted((wdir / SWEEP).glob("trend_t0_*"))[1].name
        corruptions = (
            (CUMULATIVE, bump_count, "trend_cumulative", "a bumped count in the cumulative CSV"),
            (INSTANT, lambda t: bump_count(t, 5, "n_ff"), "trend_instant", "a bumped weighted count in the instant CSV"),
            (f"{SWEEP}/{sweep_csv}", lambda t: bump_count(t, 2, "n_unclassified"), "sweep", "a bumped count in a sweep CSV"),
            (f"{SWEEP}/sweep_summary.csv", lambda t: bump_count(t, 1, "n_undecided"), "sweep", "a bumped count in the sweep summary"),
            (CLEAN, drop_line, "ingest", "a line dropped from the clean corpus"),
            (LABELED, drop_line, "classify", "a line dropped from the labeled corpus"),
            (LABELED, flip_seeded_stance, "classify", "one seed-tagged tweet's stance changed"),
            (LABELED, all_neutral, "classify", "every stance made neutral"),
            (MODEL, lambda t: t.replace('"cambiemos": "mp"', '"cambiemos": "ff"'), "train", "a seed tag moved to another camp"),
            (CLEAN + ".bots.csv", flip_first_bot, "ingest", "a flipped bot verdict"),
            (CLEAN + ".meta.json", lambda t: t.replace('"input_lines": ', '"input_lines": 1'), "ingest",
             "a wrong line count in the meta sidecar"),
        )
        for rel, edit, stage, what in corruptions:
            check_corruption(w, wdir, expected, rel, edit, stage, what)
        for _, wdir, _ in chains.values():
            shutil.rmtree(wdir)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == LAYER_METRICS,
           "BENCHMARK.json per_layer matches run.py")
    expect({x["name"]: x["why"] for x in bench["workloads"]} == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json workloads match workloads.py")
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} expectation(s) not met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
