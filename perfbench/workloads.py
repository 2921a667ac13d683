"""Workloads of the electrend benchmark: inputs made from a seed, and CLI stages.

Every stage is one ``python -m electrend <subcommand>`` process started from
the checkout's ``src/``; the benchmark runs them one at a time (a closed loop
with one client) and times each from outside. Inputs come only from the
workload seed: ``synth --seed <seed>`` plus, for ``ingest-noisy``, noise lines
interleaved by a ``random.Random(seed)`` stream. The program sees only the
generated files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# File names inside a workload directory.
CORPUS = "corpus.jsonl"  # synth output
INPUT = "input.jsonl"  # what ingest reads: the corpus, or the corpus plus noise
CLEAN = "clean.jsonl"
MODEL = "model.json"
LABELED = "labeled.jsonl"
INSTANT = "instant.csv"
CUMULATIVE = "cumulative.csv"
SWEEP = "sweep"
STRATA = "strata.csv"
WEIGHTS = "weights.csv"
LOGS = "_logs"

# Every stage of the CLI chain, in order. A workload times a suffix or a
# prefix of it; the traced run runs all of it, so every layer metric is
# measured on every workload.
CHAIN = ("ingest", "train", "classify", "trend_instant", "trend_cumulative", "sweep")

STAGE_OUTPUTS = {
    "ingest": (CLEAN, CLEAN + ".meta.json", CLEAN + ".bots.csv", INPUT + ".rejects.txt"),
    "train": (MODEL,),
    "classify": (LABELED, LABELED + ".meta.json"),
    "trend_instant": (INSTANT,),
    "trend_cumulative": (CUMULATIVE,),
    "sweep": (SWEEP,),
}

# Demographic strata for the reweighted instant series: four strata with
# unequal weights, so weighted counts are fractional.
STRATUM_WEIGHTS = {"s0": 0.8, "s1": 1.25, "s2": 1.0, "s3": 0.6}

STAGE_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """Set-up could not produce the workload's inputs; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth_flags: tuple[str, ...]
    timed: tuple[str, ...]  # stages inside the timed region, in chain order
    noise: bool = False  # interleave off-topic, retweet and truncated lines
    drop_retweets: bool = False
    classify_workers: int = 1
    window: int = 14
    default_seed: int = 17

    @property
    def setup_stages(self) -> tuple[str, ...]:
        """Chain stages before the first timed one: untimed preparation."""
        return CHAIN[: CHAIN.index(self.timed[0])]

    def scaled(self, **synth_overrides: str) -> "Workload":
        """The same workload with some synth flags replaced (the self-test's tiny inputs)."""
        flags = list(self.synth_flags)
        for key, value in synth_overrides.items():
            flags[flags.index("--" + key.replace("_", "-")) + 1] = value
        return replace(self, synth_flags=tuple(flags))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-50k",
            why=(
                "clean corpus through ingest, train, serial classify and cumulative trend: decode and "
                "encode take half the time, start-up a fifth, estimator math under 3%"
            ),
            synth_flags=("--users", "1000", "--days", "60", "--mean-rate", "0.87"),
            timed=("ingest", "train", "classify", "trend_cumulative"),
        ),
        Workload(
            name="ingest-noisy",
            why=(
                "72% of lines rejected (bots, off-topic, retweets, truncated JSON): decode and the query "
                "filter take over half the time, trend none; classify runs a 2-process pool"
            ),
            synth_flags=(
                "--users", "1000", "--days", "60", "--mean-rate", "0.6",
                "--bot-fraction", "0.005", "--bot-rate", "150",
            ),
            timed=("ingest", "train", "classify"),
            noise=True,
            drop_retweets=True,
            classify_workers=2,
        ),
        Workload(
            name="trend-longrange",
            why=(
                "a sparse year of 3000 users: dense users x days planes, reweighting and a 53-origin sweep "
                "give the trend layer half the time, and the planes half the peak memory"
            ),
            synth_flags=(
                "--users", "3000", "--days", "365", "--mean-rate", "0.0167",
                "--drift", "183:0.309,0.475,0.216",
            ),
            timed=("trend_instant", "trend_cumulative", "sweep"),
        ),
    )
}


def sweep_origins(n_days: int) -> list[int]:
    """Weekly origin days 1, 8, 15, ... up to the last day."""
    return list(range(1, n_days + 1, 7))


def stage_argv(w: Workload, stage: str, wdir: Path, serial: bool = False) -> list[str]:
    """Arguments after ``python -m electrend`` for one stage of the chain.

    ``serial`` makes classify use one process, whatever the workload says.
    """
    if stage == "ingest":
        return ["ingest", INPUT, "-o", CLEAN] + (["--drop-retweets"] if w.drop_retweets else [])
    if stage == "train":
        return ["train", CLEAN, "-o", MODEL]
    if stage == "classify":
        return ["classify", CLEAN, "-o", LABELED, "--model", MODEL, "--workers", "1" if serial else str(w.classify_workers)]
    if stage == "trend_instant":
        return [
            "trend", LABELED, "-o", INSTANT, "--mode", "instant", "--window", str(w.window),
            "--strata-file", STRATA, "--weights-file", WEIGHTS,
        ]
    if stage == "trend_cumulative":
        return ["trend", LABELED, "-o", CUMULATIVE, "--mode", "cumulative", "--t0", "1"]
    if stage == "sweep":
        origins = sweep_origins(n_days_of(wdir))
        return ["sweep", LABELED, "-o", SWEEP, "--t0-list", ",".join(map(str, origins))]
    raise ValueError(f"unknown stage {stage!r}")


# -- processes --------------------------------------------------------------


def child_env(wdir: Path) -> dict[str, str]:
    """Environment of every stage process: the checkout's sources, temp files in the checkout."""
    tmp = wdir / LOGS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


@dataclass
class StageRun:
    stage: str
    wall_s: float
    rss_mb: float  # peak RSS of the process and every child it reaped
    rc: int


def run_cli(argv: list[str], wdir: Path, log_name: str, timeout: float = STAGE_TIMEOUT_S) -> StageRun:
    """Run ``python -m electrend <argv>`` in ``wdir`` and wait for it.

    ``os.wait4`` reaps the process itself so its rusage covers the pool
    workers it reaped; a timer kills it past ``timeout``.
    """
    env = child_env(wdir)
    with open(wdir / LOGS / f"{log_name}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "electrend", *argv],
            cwd=wdir, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(log_name, wall, usage.ru_maxrss / 1024.0, proc.returncode)


def log_tail(wdir: Path, log_name: str) -> str:
    try:
        lines = (wdir / LOGS / f"{log_name}.log").read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def remove_outputs(wdir: Path, stage: str) -> None:
    for rel in STAGE_OUTPUTS[stage]:
        path = wdir / rel
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


# -- digests ----------------------------------------------------------------


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(wdir: Path) -> dict[str, str]:
    """SHA-256 of every deterministic output: all files but manifests and logs."""
    out = {}
    for path in sorted(wdir.rglob("*")):
        rel = path.relative_to(wdir).as_posix()
        if not path.is_file() or rel.startswith(LOGS + "/"):
            continue
        if rel.endswith(".manifest.json"):  # carries a timestamp
            continue
        out[rel] = file_digest(path)
    return out


def producer(rel: str) -> str:
    """The chain stage that writes ``rel``, or "setup"."""
    for stage, outputs in STAGE_OUTPUTS.items():
        for out in outputs:
            if rel == out or rel.startswith(out + "/"):
                return stage
    return "setup"


# -- set-up -----------------------------------------------------------------

# Off-topic words share no substring with the default candidate queries.
_OFF_TOPIC = ("futbol", "lluvia", "partido", "cafe", "subte", "asado", "clima", "feriado",
              "river", "boca", "colectivo", "mate", "verano", "pizza", "tango")


@dataclass
class Expected:
    """What a correct ingest must report, known from how the inputs were made."""

    input_lines: int
    accepted: int
    rejects: dict[str, int]
    bots: set[str]


def _interleave_noise(corpus: Path, out: Path, seed: int, bots: set[str]) -> tuple[int, int, dict]:
    """Copy the corpus, adding off-topic lines, ``RT @`` copies and truncated lines.

    After each corpus line, independently: an off-topic line with
    probability 0.5, a retweet copy with 0.1, a truncated copy with 0.01.
    """
    rng = random.Random(seed)
    counts = {"no-query-match": 0, "retweet": 0, "parse": 0, "bot-user": 0}
    lines = accepted = 0
    with open(corpus, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            obj = json.loads(line)
            dst.write(line + "\n")
            lines += 1
            if obj["user"] in bots:
                counts["bot-user"] += 1
            else:
                accepted += 1
            if rng.random() < 0.5:
                words = " ".join(rng.choice(_OFF_TOPIC) for _ in range(4))
                noise = {"id": f"n{lines}", "user": f"v{rng.randrange(5000):05d}", "ts": obj["ts"],
                         "text": f"{words} {rng.randrange(100)}"}
                dst.write(json.dumps(noise, ensure_ascii=False) + "\n")
                counts["no-query-match"] += 1
                lines += 1
            if rng.random() < 0.1:
                rt = dict(obj, id=f"r{obj['id']}", text=f"RT @{obj['user']}: {obj['text']}")
                dst.write(json.dumps(rt, ensure_ascii=False) + "\n")
                counts["retweet"] += 1
                lines += 1
            if rng.random() < 0.01:
                # Cut before the closing brace: never valid JSON, never blank.
                dst.write(line[: rng.randrange(1, len(line) - 1)] + "\n")
                counts["parse"] += 1
                lines += 1
    return lines, accepted, {k: v for k, v in counts.items() if v}


def _read_truth(path: Path) -> tuple[list[str], set[str]]:
    users, bots = [], set()
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for row in fh:
            user, _, is_bot = row.strip().split(",")
            users.append(user)
            if is_bot == "true":
                bots.add(user)
    return users, bots


def _write_strata(users: list[str], wdir: Path, seed: int) -> None:
    rng = random.Random(f"strata-{seed}")
    names = sorted(STRATUM_WEIGHTS)
    with open(wdir / STRATA, "w", encoding="utf-8") as fh:
        fh.write("user_id,stratum\n")
        for user in users:
            fh.write(f"{user},{rng.choice(names)}\n")
    with open(wdir / WEIGHTS, "w", encoding="utf-8") as fh:
        fh.write("stratum,weight\n")
        for name in names:
            fh.write(f"{name},{STRATUM_WEIGHTS[name]}\n")


def set_up(w: Workload, seed: int, wdir: Path, run_setup_stages: bool = True,
           timeout: float = STAGE_TIMEOUT_S) -> Expected:
    """Make the workload's inputs in a fresh ``wdir``.

    With ``run_setup_stages``, also run the untimed chain stages that
    precede the timed ones (ingest, train and classify for trend-longrange).
    Each process is killed after ``timeout`` seconds.
    """
    if wdir.exists():
        shutil.rmtree(wdir)
    (wdir / LOGS).mkdir(parents=True)
    target = CORPUS if w.noise else INPUT
    r = run_cli(["synth", "-o", target, "--seed", str(seed), *w.synth_flags], wdir, "synth", timeout)
    if r.rc != 0:
        raise BenchError(f"synth exited {r.rc}: {log_tail(wdir, 'synth')}")
    users, bots = _read_truth(wdir / (target + ".truth.csv"))
    if w.noise:
        lines, accepted, rejects = _interleave_noise(wdir / CORPUS, wdir / INPUT, seed, bots)
    elif bots:
        raise BenchError("a workload without noise must have no planted bots")
    else:
        with open(wdir / INPUT, "rb") as fh:
            lines = accepted = sum(1 for line in fh if line.strip())
        rejects = {}
    expected = Expected(lines, accepted, rejects, bots)
    _write_strata(users, wdir, seed)
    if run_setup_stages:
        for stage in w.setup_stages:
            r = run_cli(stage_argv(w, stage, wdir), wdir, stage, timeout)
            if r.rc != 0:
                raise BenchError(f"set-up stage {stage} exited {r.rc}: {log_tail(wdir, stage)}")
    return expected


def n_days_of(wdir: Path) -> int:
    """Last day index of the clean corpus, from ingest's meta sidecar."""
    with open(wdir / (CLEAN + ".meta.json"), encoding="utf-8") as fh:
        return int(json.load(fh)["n_days"])


def run_chain(w: Workload, seed: int, wdir: Path) -> Expected:
    """Set up, then run the whole CLI chain once; any nonzero exit is a BenchError."""
    expected = set_up(w, seed, wdir, run_setup_stages=False)
    for stage in CHAIN:
        r = run_cli(stage_argv(w, stage, wdir), wdir, stage)
        if r.rc != 0:
            raise BenchError(f"{stage} exited {r.rc}: {log_tail(wdir, stage)}")
    return expected
