"""Command-line surface: wiring, exit codes, sidecars and manifests."""

import gzip
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import electrend
from electrend import hashtags, ingest, manifest
from electrend.botfilter import write_report_csv
from electrend.cli import _OUTPUTS, _build_parser, _load_table, _output_paths, main
from electrend.ingest import (
    IngestConfig,
    ingest_lines,
    iter_lines,
    parse_label,
    parse_record,
)
from electrend.manifest import rerun
from electrend.stance import DEFAULT_SEEDS
from electrend.synth import ElectorateSpec, ground_truth
from electrend.trend import TREND_CSV_COLUMNS, CounterTable, read_trend_csv, series, user_weights, write_trend_csv

SUBCOMMANDS = [
    "ingest",
    "train",
    "classify",
    "trend",
    "sweep",
    "hashtags",
    "synth",
    "validate",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small end-to-end run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    p = SimpleNamespace(
        root=root,
        raw=str(root / "raw.jsonl"),
        clean=str(root / "clean.jsonl"),
        model=str(root / "model.json"),
        labeled=str(root / "labeled.jsonl"),
        trend=str(root / "trend.csv"),
    )
    assert main([
        "synth", "-o", p.raw,
        "--users", "80", "--days", "12",
        "--mean-rate", "1.2", "--bot-fraction", "0.05",
        "--start-date", "2019-04-01", "--seed", "5",
    ]) == 0
    assert main(["ingest", p.raw, "-o", p.clean]) == 0
    assert main(["train", p.clean, "-o", p.model]) == 0
    assert main(["classify", p.clean, "-o", p.labeled, "--model", p.model, "--workers", "1"]) == 0
    assert main(["trend", p.labeled, "-o", p.trend, "--mode", "cumulative", "--t0", "1"]) == 0
    return p


def save_spec(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        spec.save(fh)


class TestHelpAndUsage:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_output(self, tmp_path):
        assert main(["ingest", str(tmp_path / "x.jsonl")]) == 2

    def test_bad_t0_token(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "t.csv"),
            "--mode", "cumulative", "--t0", "noonish",
        ])
        assert code == 2


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert main(["ingest", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "o")]) == 3

    def test_missing_input_directory_names_the_corpus(self, tmp_path):
        result = run_cli(["ingest", "nodir/raw.jsonl", "-o", "c.jsonl"], tmp_path)
        assert result.returncode == 3, result.stderr
        assert "cannot read corpus nodir/raw.jsonl: " in result.stderr
        assert "rejects" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_empty_corpus_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["ingest", str(empty), "-o", str(tmp_path / "o")]) == 4

    def test_malformed_line_is_a_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"user_id": "a"}\n')
        assert main(["train", str(bad), "-o", str(tmp_path / "m")]) == 4

    def test_unreadable_model(self, pipeline, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("{}")
        code = main([
            "classify", pipeline.clean, "-o", str(tmp_path / "out"),
            "--model", str(model), "--workers", "1",
        ])
        assert code == 4

    def test_smoothing_without_finite_weights(self, pipeline, tmp_path):
        shutil.copy(pipeline.clean, tmp_path / "clean.jsonl")
        result = run_cli(["train", "clean.jsonl", "-o", "m.json", "--smoothing", "1e308"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "training failed: smoothing 1e+308 leaves a token weight no finite value" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.jsonl"]

    def test_seeds_without_a_camp(self, pipeline, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("ff yosigo\nmp mm2019\n")
        code = main([
            "train", pipeline.clean, "-o", str(tmp_path / "m"),
            "--seeds", str(seeds),
        ])
        assert code == 4

    def test_seeds_with_an_unknown_camp(self, pipeline, tmp_path):
        (tmp_path / "seeds.txt").write_text("ff fuerzacristina\ngreen #verde\n")
        result = run_cli(["train", pipeline.clean, "-o", "m.json", "--seeds", "seeds.txt"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "seeds.txt:2: unknown camp 'green'" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seeds.txt"]

    @pytest.mark.parametrize(
        "model",
        ["[1,2]", '{"format_version": 1, "seed_tags": {"a": "ff"}, "term_weights": {"x": 5}}',
         '{"format_version": 1, "seed_tags": {"a": "ff"}, "term_weights": {"x": {"ff": NaN}}}',
         '{"format_version": 1, "seed_tags": [1, 2]}', '{"format_version": 1, "seed_tags": {"a": "ff"}, "smoothing": null}'],
        ids=["list", "number-weights", "nan-weight", "seed-tags-list", "null-smoothing"],
    )
    def test_malformed_model_file(self, model, pipeline, tmp_path):
        (tmp_path / "model.json").write_text(model)
        result = run_cli(["classify", pipeline.clean, "-o", "out.jsonl", "--model", "model.json", "--workers", "1"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "bad model model.json: " in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_queries_file_without_queries(self, pipeline, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("# comments only\n")
        code = main(["ingest", pipeline.raw, "-o", str(tmp_path / "o"), "--queries-file", str(queries)])
        assert code == 4

    def test_bad_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"spec_version": 1, "n_users": -3, "n_days": 0}')
        assert main(["synth", "-o", str(tmp_path / "c"), "--spec", str(spec)]) == 4

    def test_bad_drift_flag(self, tmp_path):
        code = main([
            "synth", "-o", str(tmp_path / "c"),
            "--users", "5", "--days", "5", "--drift", "3:bogus",
        ])
        assert code == 2


def run_cli(argv, cwd, max_file_bytes=None, max_memory_bytes=None):
    """``python -m electrend`` in a fresh process; ``max_file_bytes`` caps every file it writes, ``max_memory_bytes`` its address space."""

    def cap_sizes():
        if max_file_bytes:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # an oversize write fails with EFBIG instead
            resource.setrlimit(resource.RLIMIT_FSIZE, (max_file_bytes, max_file_bytes))
        if max_memory_bytes:
            resource.setrlimit(resource.RLIMIT_AS, (max_memory_bytes, max_memory_bytes))

    src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "electrend", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_sizes if max_file_bytes or max_memory_bytes else None,
    )


class TestFailedRuns:
    """A stage that fails part-way exits with its documented code and leaves nothing behind."""

    STAGES = ("ingest", "train", "classify", "trend")

    @staticmethod
    def stage_input(stage, pipeline):
        inputs = {"ingest": pipeline.raw, "train": pipeline.clean, "classify": pipeline.clean}
        return inputs.get(stage, pipeline.labeled)

    @staticmethod
    def stage_argv(stage, corpus, pipeline):
        extra = {
            "classify": ["--model", pipeline.model, "--workers", "1"], "trend": ["--mode", "cumulative"],
            "sweep": ["--t0-list", "1,2"],
        }
        return [stage, corpus, "-o", "out", *extra.get(stage, [])]

    @pytest.mark.parametrize("stage", STAGES + ("sweep",))
    def test_output_write_fails_midway(self, stage, pipeline, tmp_path):
        shutil.copy(self.stage_input(stage, pipeline), tmp_path / "in.jsonl")
        result = run_cli(self.stage_argv(stage, "in.jsonl", pipeline), tmp_path, max_file_bytes=256)
        assert result.returncode == 3, result.stderr
        assert "File too large: 'out" in result.stderr  # an output, from -o on, not a temp file
        assert ".tmp" not in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("stage", STAGES)
    def test_truncated_gzip_input(self, stage, pipeline, tmp_path):
        with open(self.stage_input(stage, pipeline), "rb") as fh:
            packed = gzip.compress(fh.read())
        assert len(packed) > 3000
        (tmp_path / "in.jsonl.gz").write_bytes(packed[:3000])
        result = run_cli(self.stage_argv(stage, "in.jsonl.gz", pipeline), tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl.gz"]

    def test_ingest_accepting_no_record(self, pipeline, tmp_path):
        shutil.copy(pipeline.raw, tmp_path / "raw.jsonl")
        result = run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl", "--origin-date", "2030-01-01"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        meta = json.loads(Path(pipeline.clean + ".meta.json").read_text())
        rejects = {**meta["rejects"], "before-origin": meta["records"]}
        counts = ", ".join(f"{k}={v}" for k, v in sorted(rejects.items()))
        assert f"raw.jsonl: no record accepted ({counts})" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.jsonl"]

    @pytest.mark.parametrize("content", ["", "\n  \n\t\n"], ids=["empty", "blank-only"])
    def test_corpus_without_records(self, content, pipeline, tmp_path):
        (tmp_path / "in.jsonl").write_text(content)
        runs = [
            ["train"],
            ["classify", "--model", pipeline.model, "--workers", "1"],
            ["classify", "--model", pipeline.model, "--workers", "2"],
            ["trend", "--mode", "cumulative"],
        ]
        for stage, *extra in runs:
            result = run_cli([stage, "in.jsonl", "-o", "out", *extra], tmp_path)
            assert result.returncode == 4, (stage, extra, result.stderr)
            assert "Traceback" not in result.stderr
            assert "corpus in.jsonl contains no records" in result.stderr
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"], (stage, extra)


class TestFailedStageWritesNothing:
    """A stage whose last output cannot be written exits 3 and leaves none of its outputs.

    The files of an earlier run with other flags stay as they were.
    """

    CASES = {
        "ingest": (["ingest", "raw.jsonl", "-o", "clean.jsonl"], ["--origin-date", "2019-03-01"], ["--bot-report", "nodir/b.csv"]),
        "hashtags": (["hashtags", "labeled.jsonl", "-o", "net"], ["--dedup-users"], ["--clouds", "nodir/c.csv"]),
        "synth": (["synth", "-o", "raw.jsonl", "--users", "20", "--days", "4"], ["--seed", "4"], ["--truth", "nodir/t.csv"]),
    }

    @staticmethod
    def files(root):
        return {p.name: p.read_bytes() for p in root.iterdir()}

    @pytest.mark.parametrize("stage", CASES)
    def test_exits_3_and_leaves_earlier_files(self, stage, pipeline, tmp_path):
        argv, earlier, bad = self.CASES[stage]
        if stage != "synth":
            shutil.copy(pipeline.raw if stage == "ingest" else pipeline.labeled, tmp_path / argv[1])

        def fails_leaving(expected):
            result = run_cli(argv + bad, tmp_path)
            assert result.returncode == 3, result.stderr
            assert "Traceback" not in result.stderr
            assert f"No such file or directory: '{bad[1]}'" in result.stderr  # the output, not its temp file
            assert ".tmp" not in result.stderr
            assert self.files(tmp_path) == expected

        fails_leaving(self.files(tmp_path))  # the inputs alone
        assert run_cli(argv + earlier, tmp_path).returncode == 0
        fails_leaving(self.files(tmp_path))  # and the earlier run's files, byte for byte

    @pytest.mark.parametrize("argv, labels", [
        (["ingest", "raw.jsonl", "-o", "same.jsonl", "--bot-report", "same.jsonl"], ("clean_corpus", "bot_report")),
        (["ingest", "raw.jsonl", "-o", "c.jsonl", "--no-bot-filter", "--bot-report", "./raw.jsonl.rejects.txt"], ("rejects", "bot_report")),
        (["hashtags", "raw.jsonl", "-o", "net", "--graphml", "net.txt", "--dot", "net.txt"], ("graphml", "dot")),
        (["hashtags", "raw.jsonl", "-o", "net", "--clouds", "net.manifest.json"], ("clouds", "manifest")),
        (["synth", "-o", "x.jsonl", "--users", "5", "--days", "2", "--truth", "x.jsonl.spec.json"], ("truth", "spec_echo")),
    ], ids=["ingest", "ingest-unwritten-output", "hashtags", "manifest", "synth"])
    def test_two_outputs_on_one_path_exit_2(self, argv, labels, pipeline, tmp_path):
        shutil.copy(pipeline.raw, tmp_path / "raw.jsonl")
        result = run_cli(argv, tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"outputs {labels[0]} and {labels[1]} share the path" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.jsonl"]


class TestBadCalendar:
    """A malformed date or day offset is a usage error and a damaged meta sidecar a data error; neither leaves output."""

    @pytest.mark.parametrize("stage", ("ingest", "trend", "sweep"))
    def test_malformed_origin_date_exits_2(self, stage, pipeline, tmp_path):
        shutil.copy(pipeline.raw if stage == "ingest" else pipeline.labeled, tmp_path / "in.jsonl")
        extra = ["--t0-list", "1"] if stage == "sweep" else []
        for bad in ("bogus", "2019-13-01"):
            result = run_cli([stage, "in.jsonl", "-o", "out", "--origin-date", bad, *extra], tmp_path)
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert f"--origin-date: {bad!r} is not a calendar date" in result.stderr
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_malformed_start_date_exits_2(self, tmp_path):
        for bad in ("bogus", "2019-13-01"):
            result = run_cli(["synth", "-o", "c.jsonl", "--users", "5", "--days", "3", "--start-date", bad], tmp_path)
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert f"--start-date: {bad!r} is not a calendar date" in result.stderr
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e12", "-24.5", "x"])
    def test_bad_day_offset_exits_2(self, bad, pipeline, tmp_path):
        shutil.copy(pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli(["ingest", "in.jsonl", "-o", "out", f"--day-offset-hours={bad}"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"--day-offset-hours: {bad!r} is not a number of hours in [-24, 24]" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("stage", ("classify", "trend", "sweep"))
    @pytest.mark.parametrize(
        "sidecar", ["{bad", '["x"]', '{"origin_date": "2019-02-30"}'], ids=["not-json", "not-an-object", "bad-date"]
    )
    def test_damaged_meta_sidecar_exits_4(self, stage, sidecar, pipeline, tmp_path):
        shutil.copy(pipeline.clean if stage == "classify" else pipeline.labeled, tmp_path / "in.jsonl")
        (tmp_path / "in.jsonl.meta.json").write_text(sidecar)
        extra = {"classify": ["--model", pipeline.model, "--workers", "1"], "sweep": ["--t0-list", "1"]}
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "bad meta in.jsonl.meta.json: " in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "in.jsonl.meta.json"]


    @pytest.mark.parametrize("stage", ("classify", "trend", "sweep"))
    def test_unreadable_meta_sidecar_exits_3(self, stage, pipeline, tmp_path):
        shutil.copy(pipeline.clean if stage == "classify" else pipeline.labeled, tmp_path / "in.jsonl")
        (tmp_path / "in.jsonl.meta.json").mkdir()
        extra = {"classify": ["--model", pipeline.model, "--workers", "1"], "sweep": ["--t0-list", "1"]}
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        assert "cannot read meta in.jsonl.meta.json: " in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "in.jsonl.meta.json"]

    @pytest.mark.parametrize("stage", ("classify", "trend", "sweep"))
    def test_other_meta_version_exits_4(self, stage, pipeline, tmp_path):
        shutil.copy(pipeline.clean if stage == "classify" else pipeline.labeled, tmp_path / "in.jsonl")
        meta = json.loads(Path(pipeline.labeled + ".meta.json").read_text())
        (tmp_path / "in.jsonl.meta.json").write_text(json.dumps({**meta, "meta_version": 2}))
        extra = {"classify": ["--model", pipeline.model, "--workers", "1"], "sweep": ["--t0-list", "1"]}
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "bad meta in.jsonl.meta.json: meta_version is not 1" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "in.jsonl.meta.json"]


class TestNonPositiveCounts:
    """A --window, --top-k or --workers below 1 is a usage error that leaves no output."""

    STAGES = {"--window": ["trend", "--mode", "instant"], "--top-k": ["hashtags"], "--workers": ["classify", "--model", "m.json"]}

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--window", "0"), ("--window", "-3"), ("--window", "x"), ("--top-k", "-2"), ("--top-k", "0"),
            ("--workers", "-3"), ("--workers", "0"),
        ],
    )
    def test_exits_2(self, flag, bad, pipeline, tmp_path):
        shutil.copy(pipeline.labeled, tmp_path / "in.jsonl")
        stage = self.STAGES[flag]
        result = run_cli([stage[0], "in.jsonl", "-o", "out", *stage[1:], flag, bad], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"{flag}: {bad!r} is not a positive integer" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestNegativeMinCount:
    """A hashtags --min-count below 0 is a usage error that leaves no output; 0 keeps every tag."""

    @pytest.mark.parametrize("bad", ["-5", "-1"])
    def test_exits_2(self, bad, pipeline, tmp_path):
        shutil.copy(pipeline.labeled, tmp_path / "in.jsonl")
        result = run_cli(["hashtags", "in.jsonl", "-o", "out", "--min-count", bad], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"--min-count: {bad!r} is not a non-negative integer" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_zero_is_accepted(self, pipeline, tmp_path):
        assert main(["hashtags", pipeline.labeled, "-o", str(tmp_path / "net"), "--min-count", "0"]) == 0


class TestBadFloatFlags:
    """A --bot-* or --margin value that is not a finite number >= 0, or a --smoothing not > 0, is a usage error."""

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--bot-threshold", "nan"), ("--bot-threshold", "-0.1"), ("--bot-rate-cap", "nan"),
            ("--bot-rate-cap", "inf"), ("--bot-dup-cap", "-1"), ("--bot-gap-floor", "x"),
            ("--smoothing", "0"), ("--smoothing", "-1"), ("--smoothing", "nan"), ("--smoothing", "inf"),
            ("--margin", "-1"), ("--margin", "nan"),
        ],
    )
    def test_exits_2(self, flag, bad, pipeline, tmp_path):
        stage = "train" if flag in ("--smoothing", "--margin") else "ingest"
        shutil.copy(pipeline.clean if stage == "train" else pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli([stage, "in.jsonl", "-o", "out", f"{flag}={bad}"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        what = "a finite number > 0" if flag == "--smoothing" else "a finite number >= 0"
        assert f"{flag}: {bad!r} is not {what}" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestNonUtf8Input:
    """One undecodable byte: ingest rejects the line, every other stage exits 4."""

    STAGES = ("train", "classify", "trend", "sweep", "hashtags")

    @staticmethod
    def corrupt_third_line(src, dst):
        with open(src, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[2] = lines[2].replace(b'"text": "', b'"text": "caf\xe9 ', 1)
        assert b"\xe9" in lines[2]
        dst.write_bytes(b"\n".join(lines))

    def test_ingest_counts_a_parse_reject(self, pipeline, tmp_path):
        self.corrupt_third_line(pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli(["ingest", "in.jsonl", "-o", "clean.jsonl"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        rejects = (tmp_path / "in.jsonl.rejects.txt").read_text().splitlines()
        assert "3\tparse: invalid UTF-8" in rejects
        meta = json.loads((tmp_path / "clean.jsonl.meta.json").read_text())
        assert meta["records"] + sum(meta["rejects"].values()) == meta["input_lines"]
        assert meta["rejects"]["parse"] == 1

    @pytest.mark.parametrize("stage", STAGES)
    def test_other_stages_exit_4_with_the_line(self, stage, pipeline, tmp_path):
        corpus = pipeline.clean if stage in ("train", "classify") else pipeline.labeled
        self.corrupt_third_line(corpus, tmp_path / "in.jsonl")
        extra = {
            "classify": ["--model", pipeline.model, "--workers", "1"],
            "trend": ["--mode", "cumulative"],
            "sweep": ["--t0-list", "1,3"],
        }
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:3: invalid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on integer digits")
class TestIntegerPastTheDigitLimit:
    """A JSON integer longer than int() may convert: ingest rejects the line, every other stage exits 4."""

    @staticmethod
    def widen_third_line(src, dst):
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = '{"n": ' + "7" * (sys.get_int_max_str_digits() + 1) + ", " + lines[2][1:]
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_ingest_counts_a_parse_reject(self, pipeline, tmp_path):
        self.widen_third_line(pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli(["ingest", "in.jsonl", "-o", "clean.jsonl"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert (tmp_path / "in.jsonl.rejects.txt").read_text().splitlines()[0] == "3\tparse: invalid JSON (integer too long)"

    @pytest.mark.parametrize("stage", TestNonUtf8Input.STAGES)
    def test_other_stages_exit_4_with_the_line(self, stage, pipeline, tmp_path):
        self.widen_third_line(pipeline.clean if stage in ("train", "classify") else pipeline.labeled, tmp_path / "in.jsonl")
        extra = {"classify": ["--model", pipeline.model], "sweep": ["--t0-list", "1,3"]}
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:3: invalid JSON (integer too long)" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestMalformedFields:
    """Well-formed JSON with a bad field: ingest counts a parse reject, other stages exit 4."""

    CASES = {
        "lone-surrogate-escape": ("text", "macri \udce9"),
        "hashtags-number": ("hashtags", 5),
        "hashtags-string": ("hashtags", "abc"),
        "hashtags-null-element": ("hashtags", ["ok", None]),
        "t-string": ("t", "x"),
        "t-float": ("t", 1.7),
        "t-bool": ("t", True),
        "ts-before-calendar": ("ts", "0001-01-01T00:00:00+05:00"),
        "ts-last-day": ("ts", "9999-12-31T23:00:00"),
    }

    @staticmethod
    def corrupt_third_line(src, dst, key, value):
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        obj = json.loads(lines[2])
        obj[key] = value
        lines[2] = json.dumps(obj)  # ASCII-only: a lone surrogate stays an escape
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parse_reject_or_exit_4(self, case, pipeline, tmp_path):
        key, value = self.CASES[case]
        self.corrupt_third_line(pipeline.raw, tmp_path / "raw.jsonl", key, value)
        result = run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert (tmp_path / "raw.jsonl.rejects.txt").read_text().splitlines()[0].startswith("3\tparse: ")

        self.corrupt_third_line(pipeline.labeled, tmp_path / "in.jsonl", key, value)
        for argv in (["train", "in.jsonl", "-o", "m.json"], ["trend", "in.jsonl", "-o", "t.csv"]):
            result = run_cli(argv, tmp_path)
            assert result.returncode == 4, result.stderr
            assert "in.jsonl:3: " in result.stderr
            assert "Traceback" not in result.stderr
            assert not (tmp_path / argv[3]).exists()

    @pytest.mark.parametrize("ts, hours", [("9999-12-31T23:00:00", "3"), ("0001-01-01T01:00:00", "-3")])
    def test_day_offset_cannot_leave_the_calendar(self, ts, hours, pipeline, tmp_path):
        self.corrupt_third_line(pipeline.raw, tmp_path / "raw.jsonl", "ts", ts)
        result = run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl", "--day-offset-hours", hours], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        rejects = (tmp_path / "raw.jsonl.rejects.txt").read_text().splitlines()
        assert rejects[0] == f"3\tparse: timestamp {ts!r} out of range"


class TestLabeledLineChecks:
    """A labeled line the estimators cannot place is a data error naming its line."""

    CASES = {
        "t-zero": ({"t": 0}, "day index must be >= 1, got 0"),
        "t-negative": ({"t": -4}, "day index must be >= 1, got -4"),
        "t-past-calendar": ({"t": 10**20}, "day index must be <= 3652059, got 100000000000000000000"),
        "t-huge": ({"t": 3_000_000_000}, "day index must be <= 3652059, got 3000000000"),
        "no-stance": ({"stance": None}, "no stance label; run the classify subcommand first"),
        "no-t": ({"t": None}, "no day index 't'; run the ingest subcommand first"),
    }
    STAGES = {
        "trend-instant": ["trend", "in.jsonl", "-o", "out", "--mode", "instant"],
        "trend-cumulative": ["trend", "in.jsonl", "-o", "out", "--mode", "cumulative"],
        "sweep": ["sweep", "in.jsonl", "-o", "out", "--t0-list", "1,3"],
    }

    @staticmethod
    def change_third_line(src, dst, fields):
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        obj = json.loads(lines[2])
        for key, value in fields.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        lines[2] = json.dumps(obj)
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_4_naming_the_line(self, stage, case, pipeline, tmp_path):
        fields, message = self.CASES[case]
        self.change_third_line(pipeline.labeled, tmp_path / "in.jsonl", fields)
        result = run_cli(self.STAGES[stage], tmp_path)
        assert result.returncode == 4, result.stderr
        assert f"in.jsonl:3: {message}" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_day_index_past_the_origin_calendar(self, pipeline, tmp_path):
        # day 3652059 is 9999-12-31 from 0001-01-01, and beyond the calendar from 2019-03-01
        self.change_third_line(pipeline.labeled, tmp_path / "in.jsonl", {"t": 3652059})
        result = run_cli(["trend", "in.jsonl", "-o", "out", "--origin-date", "2019-03-01"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:3: day index must be <= 2914941, got 3652059" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("t", [0, -4])
    def test_ingest_recomputes_such_t(self, t, pipeline, tmp_path):
        self.change_third_line(pipeline.raw, tmp_path / "raw.jsonl", {"t": t})
        assert run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl"], tmp_path).returncode == 0
        for produced, expected in (("clean.jsonl", pipeline.clean), ("raw.jsonl.rejects.txt", pipeline.raw + ".rejects.txt")):
            assert (tmp_path / produced).read_bytes() == Path(expected).read_bytes()


@st.composite
def labeled_lines(draw):
    """Labeled corpus lines as classify writes them, with UTC offsets that move days across midnight."""
    lines = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        minutes = draw(st.integers(min_value=0, max_value=20 * 24 * 60))
        zone = draw(st.sampled_from(["Z", "+05:00", "-03:00"]))
        ts = (datetime(2019, 3, 10) + timedelta(minutes=minutes)).isoformat() + zone
        obj = {"id": str(i), "user": draw(st.sampled_from(["ana", "bo", "ü", "z9"])), "ts": ts, "text": "x"}
        obj["t"] = draw(st.integers(min_value=1, max_value=30))
        obj["stance"] = draw(st.sampled_from(["pro_mp", "pro_ff", "pro_third", "neutral"]))
        lines.append(json.dumps(obj, ensure_ascii=False))
    return lines


class TestCorpusReader:
    @settings(max_examples=150, deadline=None)
    @given(lines=labeled_lines(), flag=st.none() | st.dates(date(2019, 3, 1), date(2019, 3, 31)))
    def test_columns_equal_per_line_add(self, lines, flag):
        labels = [parse_label(line) for line in lines]
        expected = CounterTable(labels)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "labeled.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            table, origin, meta = _load_table(path, flag)
        assert origin == flag and meta is None  # no meta sidecar: only the flag dates the rows
        assert table.users == expected.users
        assert table.n_days == expected.n_days
        assert table.to_sparse() == expected.to_sparse()

    def test_train_on_an_empty_corpus(self, tmp_path):
        (tmp_path / "in.jsonl").write_text("\n\n")
        result = run_cli(["train", "in.jsonl", "-o", "m.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "corpus in.jsonl contains no records" in result.stderr
        assert "training failed" not in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_train_parse_error_after_seed_lines(self, pipeline, tmp_path):
        with open(pipeline.clean, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        seeded = sum('"mm2019"' in line or '"fuerzacristina"' in line for line in lines[:599])
        assert seeded > 10
        lines[599] = lines[599][:40]
        (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli(["train", "in.jsonl", "-o", "model.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:600: invalid JSON" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


def start_stage(argv, cwd, cpus=2):
    """``python -m electrend <argv>`` in a new session, seeing ``cpus`` usable CPUs whatever the machine has."""
    script = (
        "import os, sys\n"
        f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        "from electrend.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", script, *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )


def children(pid):
    """The child processes of ``pid``; skips the test where the platform does not list them."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return fh.read().split()
    except FileNotFoundError:
        pytest.skip("no /proc child list on this platform")


def kill_when(proc, ready, what):
    """SIGKILL ``proc`` alone once ``ready()`` holds; its pool workers must then end by themselves."""
    deadline = time.monotonic() + 60
    try:
        while not ready():
            assert proc.poll() is None, f"the stage ended before {what}"
            assert time.monotonic() < deadline
            time.sleep(0.001)
    finally:
        proc.kill()
        proc.wait(timeout=60)


def assert_no_survivor(proc):
    """No process of ``proc``'s session is left a few seconds after it died."""
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, "a process of the killed stage is still running"
        time.sleep(0.05)


def non_empty(path):
    return path.exists() and path.stat().st_size > 0


def vocabulary_corpus(n_lines):
    """Seed-tagged lines for every camp with eight new words each: a large model, slow to save."""
    tags = ["fuerzacristina", "cambiemos", "lavagna"]
    lines = []
    for i in range(n_lines):
        text = f"#{tags[i % 3]} " + " ".join(f"w{i}x{j}" for j in range(8))
        lines.append(json.dumps({"id": str(i), "user": f"u{i % 50}", "ts": "2019-03-01T12:00:00+00:00", "text": text}))
    return "\n".join(lines) + "\n"


class TestKilledRun:
    def test_rerun_after_sigkill_leaves_no_temp_file(self, pipeline, tmp_path):
        with open(pipeline.clean, encoding="utf-8") as fh:
            (tmp_path / "in.jsonl").write_text(fh.read() * 30, encoding="utf-8")
        argv = ["classify", "in.jsonl", "-o", "out.jsonl", "--model", pipeline.model, "--workers", "1"]
        proc = start_stage(argv, tmp_path)
        temp = tmp_path / f"out.jsonl.tmp{proc.pid}"
        kill_when(proc, lambda: non_empty(temp), "it could be killed")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", temp.name]
        assert_no_survivor(proc)

        result = run_cli(argv, tmp_path)
        assert result.returncode == 0, result.stderr
        assert not list(tmp_path.glob("*.tmp*"))
        assert (tmp_path / "out.jsonl").stat().st_size > 0

    def test_synth_killed_writing_leaves_no_corpus_and_no_truth(self, tmp_path):
        argv = ["synth", "-o", "out.jsonl", "--users", "600", "--days", "30", "--seed", "3"]
        proc = start_stage(argv, tmp_path)
        temp = tmp_path / f"out.jsonl.tmp{proc.pid}"
        kill_when(proc, lambda: non_empty(temp), "it wrote")
        assert sorted(p.name for p in tmp_path.iterdir()) == [temp.name]  # no corpus, no truth file
        assert_no_survivor(proc)

        result = run_cli(argv, tmp_path)
        assert result.returncode == 0, result.stderr
        assert not list(tmp_path.glob("*.tmp*"))
        assert (tmp_path / "out.jsonl").stat().st_size > 0
        assert (tmp_path / "out.jsonl.truth.csv").stat().st_size > 0

    @pytest.mark.parametrize("stage, moment", [
        ("ingest", "writing"), ("train", "counting"), ("train", "writing"), ("classify", "writing"),
    ])
    def test_pooled_stage_killed_leaves_no_process_and_no_target(self, stage, moment, pipeline, tmp_path):
        if stage == "ingest":  # an off-topic line after each: rejects are written while the pool runs
            with open(pipeline.raw, encoding="utf-8") as fh:
                lines = fh.read().splitlines() * 8
            off_topic = '{"id": "x", "user": "v", "ts": "2019-04-02T10:00:00", "text": "lluvia y cafe"}'
            (tmp_path / "in.jsonl").write_text("".join(f"{line}\n{off_topic}\n" for line in lines), encoding="utf-8")
            argv, target, temp_of = ["ingest", "in.jsonl", "-o", "out.jsonl"], "out.jsonl", "in.jsonl.rejects.txt"
        elif stage == "train":
            (tmp_path / "in.jsonl").write_text(vocabulary_corpus(4500), encoding="utf-8")
            argv, target, temp_of = ["train", "in.jsonl", "-o", "model.json"], "model.json", "model.json"
        else:
            with open(pipeline.clean, encoding="utf-8") as fh:
                (tmp_path / "in.jsonl").write_text(fh.read() * 30, encoding="utf-8")
            argv = ["classify", "in.jsonl", "-o", "out.jsonl", "--model", pipeline.model, "--workers", "2"]
            target, temp_of = "out.jsonl", "out.jsonl"
        proc = start_stage(argv, tmp_path)
        temp = tmp_path / f"{temp_of}.tmp{proc.pid}"
        if moment == "counting":
            kill_when(proc, lambda: children(proc.pid), "its pool started")
        else:
            kill_when(proc, lambda: non_empty(temp) and (stage == "train" or children(proc.pid)), "it wrote")
        assert not (tmp_path / target).exists()
        assert_no_survivor(proc)

        result = run_cli(argv, tmp_path)
        assert result.returncode == 0, result.stderr
        assert not list(tmp_path.glob("*.tmp*"))
        assert (tmp_path / target).stat().st_size > 0


class TestSideFiles:
    """A side file with a byte that is not UTF-8 is a data error naming its line."""

    @pytest.mark.parametrize("flag", ["--strata-file", "--weights-file", "--queries-file", "--seeds"])
    def test_non_utf8_side_file_exits_4(self, flag, pipeline, tmp_path):
        users = sorted({json.loads(line)["user"] for line in Path(pipeline.labeled).read_text().splitlines()})
        files = {
            "--strata-file": ("user_id,stratum\n" + "".join(f"{u},A\n" for u in users)).encode(),
            "--weights-file": b"stratum,weight\nA,1.0\n",
            "--queries-file": b"macri\nkirchner\n",
            "--seeds": b"ff fuerzacristina\nmp mm2019\n",
        }
        files[flag] = files[flag].split(b"\n")[0] + b"\ncaf\xe9\n"
        stage = {"--queries-file": ["ingest", pipeline.raw], "--seeds": ["train", pipeline.clean]}
        argv = [*stage.get(flag, ["trend", pipeline.labeled]), "-o", "out"]
        for name in (flag,) if flag in stage else ("--strata-file", "--weights-file"):
            (tmp_path / f"{name[2:]}.txt").write_bytes(files[name])
            argv += [name, f"{name[2:]}.txt"]
        result = run_cli(argv, tmp_path)
        assert result.returncode == 4, result.stderr
        assert f"{flag[2:]}.txt:2: invalid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()


class TestInputFaults:
    """Every input a stage reads, missing, a directory or of bad content, under the one read rule.

    A missing file or a directory cannot be read: exit 3, naming the input's
    manifest label and path. Bad content is a data error: exit 4, naming the
    label and path, or the path and line of a malformed line. Each leaves
    only its inputs behind and prints no traceback.
    """

    # label -> (argv, with {} for the input's path; the file the input is read from; bad content; its message)
    INPUTS = {
        "model": (["classify", "in.jsonl", "--model", "{}", "--workers", "1"], "m.json", "not json",
                  "bad model m.json: Expecting value: line 1 column 1 (char 0)"),
        "seeds": (["train", "in.jsonl", "--seeds", "{}"], "s.txt", "ff\n", "s.txt:1: expected 'camp tag', got 'ff'"),
        "queries": (["ingest", "in.jsonl", "--queries-file", "{}"], "q.txt", "# none\n",
                    "bad queries q.txt: query set must contain at least one query"),
        "strata": (["trend", "in.jsonl", "--weights-file", "w.csv", "--strata-file", "{}"], "st.csv", "u1,A,B\n",
                   "st.csv:1: expected 'user_id,stratum'"),
        "weights": (["trend", "in.jsonl", "--strata-file", "st.csv", "--weights-file", "{}"], "w.csv", "A,heavy\n",
                    "bad weights w.csv: could not convert string to float: 'heavy'"),
        "spec": (["synth", "--spec", "{}"], "sp.json", '{"spec_version": 2}', "bad spec sp.json: unsupported spec version: 2"),
        "meta": (["trend", "in.jsonl"], "in.jsonl.meta.json", '["x"]', "bad meta in.jsonl.meta.json: not a JSON object"),
    }
    # A missing meta sidecar is no fault: the corpus then has no calendar. "nested" is JSON nested too deeply.
    CASES = [(label, fault) for label, (_, name, *_) in INPUTS.items() for fault in ("missing", "directory", "bad", "nested")
             if (label, fault) != ("meta", "missing") and (fault != "nested" or name.endswith(".json"))]

    def run(self, label, content, pipeline, tmp_path, name=None):
        """The stage that reads input ``label`` from ``name`` holding ``content``: bytes, None for no file, or a directory."""
        argv, default, *_ = self.INPUTS[label]
        name = name or default
        stage = argv[0]
        corpus = {"ingest": pipeline.raw, "train": pipeline.clean, "classify": pipeline.clean}.get(stage, pipeline.labeled)
        if stage != "synth":
            shutil.copy(corpus, tmp_path / "in.jsonl")
        if stage == "trend":
            (tmp_path / "w.csv").write_text("stratum,weight\nA,2\n")
            (tmp_path / "st.csv").write_text("user_id,stratum\nu000001,A\n")
        (tmp_path / name).unlink(missing_ok=True)
        if content is dir:
            (tmp_path / name).mkdir()
        elif content is not None:
            (tmp_path / name).write_bytes(content)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        result = run_cli([arg.format(name) for arg in argv] + ["-o", "out"], tmp_path)
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        return result

    @pytest.mark.parametrize("label, fault", CASES, ids=[f"{label}-{fault}" for label, fault in CASES])
    def test_exit_code_names_the_input(self, label, fault, pipeline, tmp_path):
        _, name, bad, message = self.INPUTS[label]
        content = {"missing": None, "directory": dir, "bad": bad.encode(), "nested": b"[" * 100_000}[fault]
        result = self.run(label, content, pipeline, tmp_path)
        assert result.returncode == (3 if fault in ("missing", "directory") else 4), result.stderr
        if fault == "bad":
            assert result.stderr == f"ERROR electrend: {message}\n"
        elif fault == "nested":
            assert result.stderr.startswith(f"ERROR electrend: bad {label} {name}: maximum recursion depth exceeded")
        else:
            assert f"ERROR electrend: cannot read {label} {name}: [Errno {21 if fault == 'directory' else 2}] " in result.stderr

    @pytest.mark.parametrize(
        "label, content, key",
        [("spec", '{"spec_version": 1, "n_users": 3, "n_days": 4}', "mix"),
         ("model", '{"format_version": 1, "term_weights": {}}', "seed_tags")],
        ids=["spec", "model"],
    )
    def test_a_missing_key_is_named(self, label, content, key, pipeline, tmp_path):
        name = self.INPUTS[label][1]
        result = self.run(label, content.encode(), pipeline, tmp_path)
        assert result.returncode == 4, result.stderr
        assert result.stderr == f"ERROR electrend: bad {label} {name}: missing key '{key}'\n"

    def test_damaged_gzip_model_exits_3(self, pipeline, tmp_path):
        packed = gzip.compress(Path(pipeline.model).read_bytes())
        result = self.run("model", packed[: len(packed) // 2], pipeline, tmp_path, name="m.json.gz")
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("ERROR electrend: cannot read model m.json.gz: Compressed file ended")


class TestStartup:
    def test_ingest_train_classify_never_import_numpy(self, pipeline, tmp_path):
        script = (
            "import sys\n"
            "from electrend.cli import main\n"
            f"assert main(['ingest', {pipeline.raw!r}, '-o', 'clean.jsonl']) == 0\n"
            "assert main(['train', 'clean.jsonl', '-o', 'model.json']) == 0\n"
            "assert main(['classify', 'clean.jsonl', '-o', 'labeled.jsonl', '--model', 'model.json', '--workers', '1']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "labeled.jsonl").stat().st_size > 0

    def test_every_public_name_resolves(self):
        assert isinstance(electrend.__version__, str) and electrend.__version__
        modules = [m.name for m in pkgutil.iter_modules(electrend.__path__) if not m.name.startswith("_")]
        assert modules
        for module in modules:
            mod = importlib.import_module(f"electrend.{module}")
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, f"{module}.{name}"
        with pytest.raises(AttributeError):
            electrend.no_such_name


class TestClassifyWorkers:
    def test_default_is_the_usable_cpu_count(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out = tmp_path / "labeled.jsonl"
        assert main(["classify", pipeline.clean, "-o", str(out), "--model", pipeline.model]) == 0
        run = json.loads((tmp_path / "labeled.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert run["parameters"]["workers"] == 1
        assert out.read_bytes() == Path(pipeline.labeled).read_bytes()

    def test_parse_error_inside_a_worker(self, pipeline, tmp_path):
        with open(pipeline.clean, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[700] = lines[700][:30]
        (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli(["classify", "in.jsonl", "-o", "out.jsonl", "--model", pipeline.model, "--workers", "2"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:701: invalid JSON" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestPooledStages:
    """``train`` and ``classify`` map line chunks over worker processes; neither changes their outputs or errors."""

    @pytest.mark.parametrize("chunk, workers", [(3, 1), (5, 2), (7, 3), (512, 2)])
    def test_train_model_does_not_depend_on_chunks_or_workers(self, chunk, workers, pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_LINES", chunk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        model = tmp_path / "model.json"
        assert main(["train", pipeline.clean, "-o", str(model)]) == 0
        assert model.read_bytes() == Path(pipeline.model).read_bytes()

    @pytest.mark.parametrize("stage", ["train", "classify"])
    def test_the_first_bad_line_names_the_error(self, stage, pipeline, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(ingest, "CHUNK_LINES", 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with open(pipeline.clean, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[12] = lines[12][:30]  # line 13, in the third chunk
        lines[1] = '{"id": "2", "user": "u", "ts": "2019-04-01"}'  # line 2, in the first
        corpus = tmp_path / "in.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        extra = ["--model", pipeline.model, "--workers", "2"] if stage == "classify" else []
        assert main([stage, str(corpus), "-o", str(tmp_path / "out"), *extra]) == 4
        assert f"{corpus}:2: missing required field 'text'" in caplog.text
        assert ":13:" not in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_classify_replaces_a_stance(self, pipeline, tmp_path):
        with open(pipeline.labeled, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        relabeled = []
        for i, line in enumerate(want):
            obj = json.loads(line)
            obj["stance"] = [None, "pro_ff", "bogus"][i % 3]
            if i % 4 == 0:
                del obj["stance"]
            relabeled.append(json.dumps(obj, ensure_ascii=False))
        (tmp_path / "in.jsonl").write_text("\n".join(relabeled) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["classify", str(tmp_path / "in.jsonl"), "-o", str(out), "--model", pipeline.model, "--workers", "2"]) == 0
        got = out.read_text(encoding="utf-8").splitlines()
        assert got == want
        for line in got:
            assert [k for k, _ in json.loads(line, object_pairs_hook=list)].count("stance") == 1

    def test_labeled_line_is_the_input_line_plus_stance(self, pipeline, tmp_path):
        lines = [
            # hand-written: keys in another order, a hashtag in capitals, "stance" only as a value
            '{"text": "Macri y #Cambiemos", "ts": "2019-04-02T10:00:00Z", "id": 7, "user": "stance", "t": 2,'
            ' "hashtags": ["#Cambiemos"]}',
            '{"id": "8", "user": "u", "ts": "2019-04-02T11:00:00+00:00", "text": "dijo \\"stance\\"", "t": 2}',
        ]
        (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["classify", str(tmp_path / "in.jsonl"), "-o", str(out), "--model", pipeline.model, "--workers", "1"]) == 0
        got = out.read_text(encoding="utf-8").splitlines()
        assert [line[: len(inp) - 1] for line, inp in zip(got, lines)] == [inp[:-1] for inp in lines]
        for inp, line in zip(lines, got):
            record = parse_record(line)
            assert line == f'{inp[:-1]}, "stance": "{record.stance}"}}'
            assert replace(record, stance=None) == parse_record(inp)
        assert parse_record(got[0]).hashtags == ["cambiemos"]
        assert parse_record(got[0]).stance == "pro_mp"


class TestIngestSidecars:
    def test_accounting_and_meta(self, pipeline):
        meta = json.loads(Path(pipeline.clean + ".meta.json").read_text())
        assert meta["origin_date"] == "2019-04-01"
        assert meta["n_days"] == 12
        assert meta["records"] + sum(meta["rejects"].values()) == meta["input_lines"]
        n_clean = sum(1 for _ in Path(pipeline.clean).read_text().splitlines())
        assert n_clean == meta["records"]

    def test_rejects_sidecar_lists_bot_lines(self, pipeline):
        rejects = Path(pipeline.raw + ".rejects.txt").read_text().splitlines()
        assert rejects, "the planted bots should have been rejected"
        line_no, reason = rejects[0].split("\t")
        assert line_no.isdigit()
        assert reason

    def test_bot_report_flags_the_planted_bots(self, pipeline):
        rows = Path(pipeline.clean + ".bots.csv").read_text().splitlines()
        assert rows[0].startswith("user_id,")
        flagged = {r.split(",")[0] for r in rows[1:]}
        truth = ground_truth(
            ElectorateSpec(
                n_users=80, n_days=12, mean_rate=1.2, bot_fraction=0.05,
                start_date=__import__("datetime").date(2019, 4, 1), rng_seed=5,
            )
        )
        planted = {u for u, b in truth.is_bot.items() if b}
        assert planted <= flagged

    def test_manifest_records_argv_and_hashes(self, pipeline):
        man = json.loads(Path(pipeline.clean + ".manifest.json").read_text())
        assert man["subcommand"] == "ingest"
        assert pipeline.raw in man["argv"]
        digest = hashlib.sha256(Path(pipeline.raw).read_bytes()).hexdigest()
        assert man["inputs"]["corpus"]["sha256"] == digest
        assert any(o.endswith("clean.jsonl") for o in man["outputs"].values())

    def test_bot_rate_rule_counts_pipeline_days(self, tmp_path):
        # 80 tweets 3 minutes apart from 22:00 UTC: 40 per UTC day, 80 in one day at UTC-3
        start = datetime(2019, 8, 10, 22, tzinfo=timezone.utc)
        raw = tmp_path / "night.jsonl"
        with raw.open("w") as fh:
            for i in range(80):
                ts = (start + timedelta(minutes=3 * i)).isoformat()
                fh.write(json.dumps({"id": str(i), "user": "owl", "ts": ts, "text": f"macri dato {i}"}) + "\n")
        clean = str(tmp_path / "clean.jsonl")

        def via_cli(offset):
            assert main(["ingest", str(raw), "-o", clean, "--day-offset-hours", str(offset)]) == 0
            return Path(clean + ".bots.csv").read_text().splitlines()

        def via_library(offset):
            config = IngestConfig(day_offset_hours=offset)
            result = ingest_lines(iter_lines(str(raw)), config, io.StringIO(), io.StringIO())
            report = io.StringIO()
            write_report_csv(result.verdicts, report)
            return report.getvalue().splitlines()

        for run in (via_cli, via_library):
            for offset, rules in ((0, ""), (-3, "rate")):
                rows = run(offset)
                assert rows[1].split(",") == ["owl", "0.3333" if rules else "0.0000", "false", rules]


@pytest.fixture(scope="module")
def every_stage(tmp_path_factory):
    """Each file-writing subcommand run once in a fresh directory: the directory and each run's manifest."""
    root = tmp_path_factory.mktemp("stages")
    f = lambda name: str(root / name)
    runs = {
        "synth": ["synth", "-o", f("raw.jsonl"), "--users", "60", "--days", "10", "--bot-fraction", "0.05", "--seed", "11"],
        "ingest": ["ingest", f("raw.jsonl"), "-o", f("clean.jsonl")],
        "train": ["train", f("clean.jsonl"), "-o", f("model.json")],
        "classify": ["classify", f("clean.jsonl"), "-o", f("labeled.jsonl"), "--model", f("model.json"), "--workers", "1"],
        "trend-cumulative": ["trend", f("labeled.jsonl"), "-o", f("cumulative.csv"), "--mode", "cumulative", "--t0", "2"],
        "trend-instant": ["trend", f("labeled.jsonl"), "-o", f("instant.csv"), "--window", "3"],
        "sweep": ["sweep", f("labeled.jsonl"), "-o", f("sweep"), "--t0-list", "1,2019-03-04"],
        "hashtags": ["hashtags", f("labeled.jsonl"), "-o", f("net"), "--min-count", "2"],
    }
    for argv in runs.values():
        assert main(argv) == 0, argv
    manifests = {name: argv[argv.index("-o") + 1] + ".manifest.json" for name, argv in runs.items()}
    manifests["sweep"] = f("sweep/sweep.manifest.json")
    return root, manifests


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header: str) -> list[list[str]]:
    """The stripped cells of each row of the README table under the ``header`` line, in order."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = takewhile(lambda line: line.startswith("|"), lines[lines.index(header) + 2 :])
    return [[cell.strip() for cell in row.split("|")[1:-1]] for row in rows]


class TestManifests:
    def test_every_output_is_listed_once(self, every_stage):
        root, manifests = every_stage
        listed = Counter()
        for path in manifests.values():
            with open(path, encoding="utf-8") as fh:
                listed.update(json.load(fh)["outputs"].values())
        assert [path for path, n in listed.items() if n > 1] == []
        written = {str(p) for p in root.rglob("*") if p.is_file() and not p.name.endswith(".manifest.json")}
        assert set(listed) == written

    @pytest.mark.parametrize("stage", [
        "ingest", "train", "classify", "trend-cumulative", "trend-instant", "sweep", "hashtags", "synth",
    ])
    def test_manifest_rerun_is_byte_identical(self, stage, every_stage, monkeypatch):
        # rerun starts `python -m electrend`: let it import this checkout, as run_cli does
        monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__))))
        path = every_stage[1][stage]
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        before = {out: Path(out).read_bytes() for out in run["outputs"].values()}
        assert rerun(path) == 0
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["created_utc"] != run["created_utc"]  # the stage did run again
        assert {out: Path(out).read_bytes() for out in before} == before

    def test_every_manifest_records_the_stage_peak_rss(self, every_stage):
        for stage, path in every_stage[1].items():
            with open(path, encoding="utf-8") as fh:
                profile = json.load(fh)["profile"]
            assert list(profile) == ["peak_rss_mb"], stage
            assert 1 < profile["peak_rss_mb"] < 4096, stage

    def test_peak_rss_without_proc_comes_from_getrusage(self, monkeypatch):
        from_proc = manifest.peak_rss_mb()
        real_open = open

        def no_proc(path, *args, **kwargs):
            if str(path).startswith("/proc/"):
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", no_proc)
        assert manifest.peak_rss_mb() == pytest.approx(from_proc, rel=0.1)

    def test_log_line_shows_the_metrics(self, tmp_path, caplog):
        def shown(value):
            if isinstance(value, float):
                return f"{value:.2f}"
            if isinstance(value, dict):
                return ",".join(f"{k}:{shown(v)}" for k, v in sorted(value.items())) or "none"
            return "n/a" if value is None else str(value)

        f = lambda name: str(tmp_path / name)
        runs = [
            ["synth", "-o", f("raw.jsonl"), "--users", "40", "--days", "8", "--bot-fraction", "0.05", "--seed", "3"],
            ["ingest", f("raw.jsonl"), "-o", f("clean.jsonl")],
            ["train", f("clean.jsonl"), "-o", f("model.json")],
            ["classify", f("clean.jsonl"), "-o", f("labeled.jsonl"), "--model", f("model.json"), "--workers", "1"],
            ["trend", f("labeled.jsonl"), "-o", f("cumulative.csv"), "--mode", "cumulative"],
            ["trend", f("labeled.jsonl"), "-o", f("instant.csv"), "--window", "1", "--exclude-undecided"],
            ["sweep", f("labeled.jsonl"), "-o", f("sweep"), "--t0-list", "1,3"],
            ["hashtags", f("labeled.jsonl"), "-o", f("net"), "--min-count", "2"],
        ]
        # each stage's keys, as the README's metrics table documents them
        documented = {stage.strip("`"): set(re.findall(r"`(\w+)`", keys)) for stage, keys in readme_table("| stage | metrics |")}
        assert set(documented) == {argv[0] for argv in runs}
        caplog.set_level("INFO", logger="electrend")
        lines = []
        for argv in runs:
            caplog.clear()
            assert main(argv) == 0, argv
            output = argv[argv.index("-o") + 1]
            path = os.path.join(output, "sweep.manifest.json") if argv[0] == "sweep" else output + ".manifest.json"
            run = json.loads(Path(path).read_text())
            metrics = run["metrics"]
            assert set(metrics) == documented[argv[0]], argv
            assert not set(metrics) & set(run["parameters"]), argv
            lines += [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
            assert lines[-1:] == [f"{argv[0]}: " + " ".join(f"{k}={shown(v)}" for k, v in sorted(metrics.items()))]
        assert len(lines) == len(runs)
        assert "pct_others=n/a" in lines[5]  # a blank percentage

    def test_every_input_is_listed(self, every_stage, tmp_path):
        root, manifests = every_stage
        at = lambda name: str(root / name)
        labeled = {"corpus": at("labeled.jsonl"), "meta": at("labeled.jsonl.meta.json")}
        expected = {
            "synth": {},
            "ingest": {"corpus": at("raw.jsonl")},
            "train": {"corpus": at("clean.jsonl")},
            "classify": {"corpus": at("clean.jsonl"), "meta": at("clean.jsonl.meta.json"), "model": at("model.json")},
            "trend-cumulative": labeled,
            "trend-instant": labeled,
            "sweep": labeled,
            "hashtags": {"corpus": at("labeled.jsonl")},
        }
        cases = [(manifests[stage], inputs) for stage, inputs in expected.items()]

        # Each side file, in a directory of its own: every_stage holds only the stages' own files.
        at = lambda name: str(tmp_path / name)
        shutil.copy(root / "labeled.jsonl", at("labeled.jsonl"))
        save_spec(ElectorateSpec(n_users=30, n_days=5, rng_seed=2), at("s.json"))
        (tmp_path / "queries.txt").write_text("".join(q + "\n" for q in ingest.DEFAULT_QUERY_STRINGS))
        (tmp_path / "seeds.txt").write_text("".join(f"{camp} {tag}\n" for tag, camp in DEFAULT_SEEDS.items()))
        users = sorted({json.loads(line)["user"] for line in Path(at("labeled.jsonl")).read_text().splitlines()})
        (tmp_path / "strata.csv").write_text("".join(f"{u},{'A' if i % 2 else 'B'}\n" for i, u in enumerate(users)))
        (tmp_path / "weights.csv").write_text("A,0.7\nB,1.3\n")
        origin = ["--origin-date", "2019-03-01"]  # so trend and sweep read no meta sidecar
        runs = [
            (["synth", "-o", at("raw.jsonl"), "--spec", at("s.json")], {"spec": at("s.json")}),
            (["ingest", at("raw.jsonl"), "-o", at("clean.jsonl"), "--queries-file", at("queries.txt")],
             {"corpus": at("raw.jsonl"), "queries": at("queries.txt")}),
            (["train", at("clean.jsonl"), "-o", at("model.json"), "--seeds", at("seeds.txt")],
             {"corpus": at("clean.jsonl"), "seeds": at("seeds.txt")}),
            (["trend", at("labeled.jsonl"), "-o", at("w.csv"), *origin,
              "--strata-file", at("strata.csv"), "--weights-file", at("weights.csv")],
             {"corpus": at("labeled.jsonl"), "strata": at("strata.csv"), "weights": at("weights.csv")}),
            (["sweep", at("labeled.jsonl"), "-o", at("sweep"), "--t0-list", "1", *origin], {"corpus": at("labeled.jsonl")}),
        ]
        for argv, inputs in runs:
            assert main(argv) == 0, argv
            output = argv[argv.index("-o") + 1]
            cases.append((os.path.join(output, "sweep.manifest.json") if argv[0] == "sweep" else output + ".manifest.json", inputs))

        for path, inputs in cases:
            with open(path, encoding="utf-8") as fh:
                listed = json.load(fh)["inputs"]
            assert {label: entry["path"] for label, entry in listed.items()} == inputs, path
            for entry in listed.values():
                assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()


class TestDocumentedFiles:
    """The README's table of the files each stage writes, and its CSV headers, are what the code writes."""

    # Each stage's required arguments, so that the parser takes the stage.
    ARGV = {
        "ingest": ["<input>"], "train": ["<input>"], "classify": ["<input>", "--model", "m"], "trend": ["<input>"],
        "sweep": ["<input>", "--t0-list", "1"], "hashtags": ["<input>"], "synth": [],
    }

    @classmethod
    def rows(cls):
        """(stage, label, default path, flag) of each row of the table, in order."""
        return [tuple(cell.strip("`") for cell in row[:4]) for row in readme_table("| stage | label | default path | moved by | holds |")]

    def test_table_is_the_cli_table(self):
        parser = _build_parser()
        rows = [row for row in self.rows() if "<" not in row[1]]  # sweep's per-origin CSVs take their path from the run
        assert [row[:2] for row in rows] == [(stage, label) for stage, outputs in _OUTPUTS.items() for label in outputs]
        for stage, label, path, flag in rows:
            args = parser.parse_args([stage, *self.ARGV[stage], "-o", "<output>"])
            assert _output_paths(args)[label] == path, (stage, label)
            assert hasattr(args, label) == bool(flag), (stage, label)  # a flag moves an output only by its name
            if flag:
                args = parser.parse_args([stage, *self.ARGV[stage], "-o", "<output>", flag, "elsewhere"])
                assert _output_paths(args)[label] == "elsewhere", (stage, label)

    def test_table_is_what_each_stage_wrote(self, every_stage):
        parser = _build_parser()
        for manifest_path in every_stage[1].values():
            run = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
            args = parser.parse_args(run["argv"])
            known = {"output": args.output, "input": getattr(args, "input", None)}

            def pattern(cell):  # <output> and <input> as the run had them; any other <name> stands for any text
                parts = re.split(r"<(\w+)>", cell)
                return "".join(
                    (re.escape(known[part]) if part in known else ".+") if i % 2 else re.escape(part)
                    for i, part in enumerate(parts)
                )

            rows = [(pattern(label), pattern(path)) for stage, label, path, _ in self.rows() if stage == args.subcommand]
            written = {**run["outputs"], "manifest": manifest_path}
            for label, path in written.items():
                matches = [row for row in rows if re.fullmatch(row[0], label) and re.fullmatch(row[1], path)]
                assert len(matches) == 1, (label, path)
            for row in rows:  # each stage of the run writes every file it can
                assert any(re.fullmatch(row[0], label) and re.fullmatch(row[1], path) for label, path in written.items()), row

    def test_csv_headers(self, every_stage):
        root = every_stage[0]
        text = README.read_text(encoding="utf-8")
        trend_header = re.search(r"A trend CSV has the header\s+`([^`]+)`", text).group(1)
        assert trend_header == ",".join(TREND_CSV_COLUMNS)
        assert (root / "cumulative.csv").read_text().splitlines()[0] == trend_header
        summary_header = re.search(r"The sweep summary has\s+the header\s+`([^`]+)`", text).group(1)
        assert (root / "sweep" / "sweep_summary.csv").read_text().splitlines()[0] == summary_header


class TestFaultWalk:
    """Every corpus-reading stage against every unreadable or empty corpus.

    Each exits with its documented code, names the corpus, prints no
    traceback and leaves only its inputs behind.
    """

    STAGES = {
        "ingest": ("raw", []),
        "train": ("clean", []),
        "classify-workers-1": ("clean", ["--model", "model.json", "--workers", "1"]),
        "classify-workers-2": ("clean", ["--model", "model.json", "--workers", "2"]),
        "trend": ("labeled", ["--mode", "cumulative"]),
        "sweep": ("labeled", ["--t0-list", "1"]),
        "hashtags": ("labeled", []),
    }
    # "no-output-dir": a malformed corpus (blank-only for ingest, which rejects a malformed line) and -o in a
    # missing directory, which the stage finds before it reads the corpus.
    FAULTS = {"missing": 3, "directory": 3, "blank-only": 4, "truncated-gz": 3, "not-gzip": 3, "no-output-dir": 3}

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("stage", STAGES)
    def test_documented_exit_code_and_no_output(self, stage, fault, pipeline, tmp_path):
        source, extra = self.STAGES[stage]
        with open(getattr(pipeline, source), "rb") as fh:
            text = fh.read()
        name = "in.jsonl.gz" if fault in ("truncated-gz", "not-gzip") else "in.jsonl"
        corpus = tmp_path / name
        if fault == "directory":
            corpus.mkdir()
        elif fault == "blank-only":
            corpus.write_text("\n  \n\t\n")
        elif fault == "truncated-gz":
            packed = gzip.compress(text)
            assert len(packed) > 3000
            corpus.write_bytes(packed[:3000])
        elif fault == "not-gzip":
            corpus.write_bytes(text)
        elif fault == "no-output-dir":
            corpus.write_text("\n  \n\t\n" if stage == "ingest" else text.decode() + "{not json\n")
        if "--model" in extra:
            shutil.copy(pipeline.model, tmp_path / "model.json")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        output = "nodir/out" if fault == "no-output-dir" else "out"

        result = run_cli([stage.split("-")[0], name, "-o", output, *extra], tmp_path)
        assert result.returncode == self.FAULTS[fault], result.stderr
        assert "Traceback" not in result.stderr
        assert (f"No such file or directory: '{output}" if fault == "no-output-dir" else name) in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("argv", [
        ["ingest", "in.jsonl", "-o", "out", "--bot-report", "nodir/b.csv"],
        ["ingest", "in.jsonl", "-o", "out", "--no-bot-filter", "--bot-report", "nodir/b.csv"],  # a report not written
        ["synth", "-o", "out", "--users", "0", "--days", "3", "--truth", "nodir/t.csv"],
        ["hashtags", "in.jsonl", "-o", "out", "--graphml", "nodir/g.graphml"],
        ["hashtags", "in.jsonl", "-o", "out", "--dot", "nodir/g.dot"],
        ["hashtags", "in.jsonl", "-o", "out", "--clouds", "nodir/c.csv"],
    ], ids=["bot-report", "bot-report-unwritten", "truth", "graphml", "dot", "clouds"])
    def test_side_output_in_a_missing_directory(self, argv, tmp_path):
        (tmp_path / "in.jsonl").write_text("\n  \n")  # any work on it is a data error; so is synth's spec
        result = run_cli(argv, tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        assert f"No such file or directory: '{argv[-1]}'" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_sweep_makes_its_directory_but_not_its_parent(self, pipeline, tmp_path):
        shutil.copy(pipeline.labeled, tmp_path / "in.jsonl")
        assert run_cli(["sweep", "in.jsonl", "-o", "new", "--t0-list", "1"], tmp_path).returncode == 0
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == [
            "sweep.manifest.json", "sweep_summary.csv", "trend_t0_day001.csv",
        ]
        assert run_cli(["sweep", "in.jsonl", "-o", "slash/", "--t0-list", "1"], tmp_path).returncode == 0
        assert (tmp_path / "new" / "sweep_summary.csv").read_bytes() == (tmp_path / "slash" / "sweep_summary.csv").read_bytes()
        shutil.rmtree(tmp_path / "slash")
        result = run_cli(["sweep", "in.jsonl", "-o", "failed", "--t0-list", "99"], tmp_path)  # past the corpus
        assert result.returncode == 2, result.stderr
        result = run_cli(["sweep", "in.jsonl", "-o", "a/b", "--t0-list", "1"], tmp_path)
        assert result.returncode == 3, result.stderr
        assert "No such file or directory: 'a/b'" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "new"]


class TestClassifyAndTrend:
    def test_worker_count_does_not_change_output(self, pipeline, tmp_path, monkeypatch):
        two = tmp_path / "labeled2.jsonl"
        for chunk, workers in ((512, 2), (3, 2), (5, 3), (7, 1)):
            monkeypatch.setattr(ingest, "CHUNK_LINES", chunk)
            code = main([
                "classify", pipeline.clean, "-o", str(two),
                "--model", pipeline.model, "--workers", str(workers),
            ])
            assert code == 0
            assert two.read_bytes() == Path(pipeline.labeled).read_bytes(), (chunk, workers)

    def test_meta_sidecar_travels_with_classify(self, pipeline):
        src = json.loads(Path(pipeline.clean + ".meta.json").read_text())
        dst = json.loads(Path(pipeline.labeled + ".meta.json").read_text())
        assert dst["origin_date"] == src["origin_date"]

    def test_t0_accepts_date_or_day_index(self, pipeline, tmp_path):
        by_date = tmp_path / "bydate.csv"
        code = main([
            "trend", pipeline.labeled, "-o", str(by_date),
            "--mode", "cumulative", "--t0", "2019-04-01",
        ])
        assert code == 0
        assert by_date.read_bytes() == Path(pipeline.trend).read_bytes()

    def test_trend_csv_has_dates(self, pipeline):
        lines = Path(pipeline.trend).read_text().splitlines()
        assert lines[0].split(",")[:3] == ["date", "T", "n_mp"]
        assert lines[1].split(",")[0] == "2019-04-01"
        assert len(lines) == 13

    def test_sweep_outputs(self, pipeline, tmp_path):
        outdir = tmp_path / "sweep"
        code = main([
            "sweep", pipeline.labeled, "-o", str(outdir), "--t0-list", "1,2019-04-05",
        ])
        assert code == 0
        per_t0 = sorted(f.name for f in outdir.glob("trend_t0_*.csv"))
        assert per_t0 == ["trend_t0_2019-04-01.csv", "trend_t0_2019-04-05.csv"]
        summary = (outdir / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("t0,start_day,final_day")
        assert len(summary) == 3
        for line in summary[1:]:  # the final row of the origin's own CSV, from T on
            fields = line.split(",")
            final_row = (outdir / f"trend_t0_{fields[0]}.csv").read_text().splitlines()[-1]
            assert fields[2:] == final_row.split(",")[1:]
        man = json.loads((outdir / "sweep.manifest.json").read_text())
        assert "spread_pct_ff" in man["metrics"]

    def test_window_past_the_corpus_equals_the_corpus_length(self, pipeline, tmp_path):
        def instant(window):
            out = tmp_path / f"w{window}.csv"
            assert main(["trend", pipeline.labeled, "-o", str(out), "--mode", "instant", "--window", window]) == 0
            return out.read_bytes()

        assert instant("4611686018427387904") == instant("100000000000000000000000") == instant("12")

    def test_trend_t0_beyond_corpus_rejected(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "t.csv"), "--mode", "cumulative", "--t0", "13",
        ])
        assert code == 2

    def write_strata(self, pipeline, tmp_path, weight="2.5"):
        users = sorted({json.loads(line)["user"] for line in Path(pipeline.labeled).read_text().splitlines()})
        strata = tmp_path / "users.csv"
        strata.write_text("user_id,stratum\n" + "".join(f"{u},{'A' if i % 3 else 'B'}\n" for i, u in enumerate(users)))
        weights = tmp_path / "strata.csv"
        weights.write_text(f"stratum,weight\nA,0.7\nB,{weight}\n")
        return ["--strata-file", str(strata), "--weights-file", str(weights)]

    def test_weighted_instant_honours_exclude_undecided(self, pipeline, tmp_path):
        out = tmp_path / "w.csv"
        code = main([
            "trend", pipeline.labeled, "-o", str(out), "--mode", "instant", "--window", "3",
            "--exclude-undecided", *self.write_strata(pipeline, tmp_path),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = read_trend_csv(fh)
        assert any(r["n_undecided"] > 0 for r in rows)
        for r in rows:
            assert r["pct_others"] is None
            assert r["denominator"] == pytest.approx(r["n_mp"] + r["n_ff"])

    def test_negative_weight_is_a_data_error(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "w.csv"), "--mode", "cumulative",
            *self.write_strata(pipeline, tmp_path, weight="-1"),
        ])
        assert code == 4
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_is_a_data_error(self, weight, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "w.csv"), "--mode", "cumulative",
            *self.write_strata(pipeline, tmp_path, weight=weight),
        ])
        assert code == 4
        assert not (tmp_path / "w.csv").exists()

    def test_header_after_comments_and_blank_lines(self, pipeline, tmp_path):
        flags = self.write_strata(pipeline, tmp_path)
        argv = ["trend", pipeline.labeled, "--mode", "cumulative"]
        assert main([*argv, "-o", str(tmp_path / "plain.csv"), *flags]) == 0
        for path in flags[1::2]:
            with open(path, encoding="utf-8") as fh:
                body = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# exported 2019-08-11\n\n" + body)
        assert main([*argv, "-o", str(tmp_path / "commented.csv"), *flags]) == 0
        assert (tmp_path / "commented.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_sweep_t0_beyond_corpus_rejected(self, pipeline, tmp_path):
        code = main([
            "sweep", pipeline.labeled, "-o", str(tmp_path / "s"), "--t0-list", "1,400",
        ])
        assert code == 2


class TestOneRowFormat:
    """Every trend CSV the CLI writes has the bytes of the library's writer."""

    def test_sweep_csvs_equal_single_trend_runs(self, pipeline, tmp_path):
        outdir = tmp_path / "sweep"
        assert main(["sweep", pipeline.labeled, "-o", str(outdir), "--t0-list", "12,4,2019-04-07,1,4"]) == 0
        for t0 in (1, 4, 7, 12):
            single = tmp_path / f"trend_{t0}.csv"
            assert main(["trend", pipeline.labeled, "-o", str(single), "--mode", "cumulative", "--t0", str(t0)]) == 0
            day = date(2019, 4, 1) + timedelta(days=t0 - 1)
            assert (outdir / f"trend_t0_{day.isoformat()}.csv").read_bytes() == single.read_bytes(), t0

    def test_weighted_instant_equals_the_library_writer(self, tmp_path):
        tweets = [
            ("a", 1, "pro_mp"), ("b", 1, "pro_ff"),  # weights 0.7 and 2: a fractional and an integral count
            ("c", 2, "pro_mp"), ("c", 2, "pro_ff"),  # Undecided, left out of the denominator
            ("b", 6, "pro_mp"),  # days 4 and 5 see nobody in their 2-day window
        ]
        corpus = tmp_path / "labeled.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": str(i), "user": user, "ts": f"2019-04-0{day}T12:00:00+00:00", "text": "x",
                        "hashtags": [], "t": day, "stance": stance}) + "\n"
            for i, (user, day, stance) in enumerate(tweets)
        ), encoding="utf-8")
        strata = {"a": "A", "b": "B", "c": "A"}
        (tmp_path / "users.csv").write_text("user_id,stratum\n" + "".join(f"{u},{s}\n" for u, s in strata.items()))
        (tmp_path / "strata.csv").write_text("stratum,weight\nA,0.7\nB,2\n")
        out = tmp_path / "w.csv"
        assert main([
            "trend", str(corpus), "-o", str(out), "--mode", "instant", "--window", "2", "--exclude-undecided",
            "--origin-date", "2019-04-01",
            "--strata-file", str(tmp_path / "users.csv"), "--weights-file", str(tmp_path / "strata.csv"),
        ]) == 0

        table = CounterTable(tweets)
        weights = user_weights(table.users, {"A": 0.7, "B": 2.0}, strata)
        columns = series(table, "instant", window=2, origin_date=date(2019, 4, 1), weights=weights, include_undecided=False)
        expected = io.StringIO(newline="")
        write_trend_csv(columns, expected)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[1] == "2019-04-01,1,0.7000,2,0,0,74.0741,25.9259,,2.7000"
        assert lines[4] == "2019-04-04,4,0,0,0,0,,,,0"
        assert lines[6] == "2019-04-06,6,2,0,0,0,0.0000,100.0000,,2"


class TestHashtagsCommand:
    def test_labeled_input_gets_clouds(self, pipeline, tmp_path):
        base = str(tmp_path / "net")
        code = main([
            "hashtags", pipeline.labeled, "-o", base, "--min-count", "2",
        ])
        assert code == 0
        root = ET.parse(base + ".graphml").getroot()
        assert len(root.findall(".//{http://graphml.graphdrawing.org/xmlns}node")) > 0
        assert "graph hashtags {" in Path(base + ".dot").read_text()
        clouds = Path(base + ".clouds.csv").read_text().splitlines()
        assert clouds[0] == "camp,rank,tag,count"
        assert len(clouds) > 1

    @pytest.mark.parametrize("dedup", [False, True])
    def test_one_pass_equals_the_two_pass_library_result(self, dedup, pipeline, tmp_path):
        base = str(tmp_path / "net")
        flags = ["--dedup-users"] if dedup else []
        assert main(["hashtags", pipeline.labeled, "-o", base, "--min-count", "2", "--top-k", "5", *flags]) == 0
        with open(pipeline.labeled, encoding="utf-8") as fh:
            records = [parse_record(line) for line in fh]
        counts = hashtags.TagCounts(records, dedup)
        graph = counts.graph(2)
        partition = hashtags.partition_graph(graph)
        clouds = counts.clouds()
        for suffix, write in (
            (".graphml", lambda fh: hashtags.write_graphml(graph, fh, partition)),
            (".dot", lambda fh: hashtags.write_dot(graph, fh, partition)),
            (".clouds.csv", lambda fh: hashtags.write_clouds_csv(clouds, fh, top_k=5)),
        ):
            expected = io.StringIO()
            write(expected)
            with open(base + suffix, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("utf-8"), suffix

    def test_unlabeled_input_skips_clouds(self, pipeline, tmp_path):
        base = str(tmp_path / "net")
        assert main(["hashtags", pipeline.clean, "-o", base, "--min-count", "2"]) == 0
        assert not (tmp_path / "net.clouds.csv").exists()


class TestSynthCommand:
    @pytest.mark.parametrize(
        "flags, reason",
        [(["--mean-rate", "1e12"], r"user u000000 expects [0-9.e+]+ tweets over 5 days, more than the 1000000 a user may have"),
         (["--bot-fraction", "0.5", "--bot-rate", "100000000000"],
          "bot_rate must be at most 1000000, the tweets a user may have over a run"),
         (["--bot-fraction", "0.5", "--bot-rate", "1" + "0" * 400],
          "bot_rate must be at most 1000000, the tweets a user may have over a run")],
        ids=["rate", "bot-rate", "bot-rate-past-a-float"],
    )
    def test_a_user_past_the_tweet_cap_exits_4(self, flags, reason, tmp_path):
        # under an address-space limit, so that a run which tries to draw such a corpus fails at once
        argv = ["synth", "-o", "c.jsonl", "--users", "3", "--days", "5", *flags]
        result = run_cli(argv, tmp_path, max_memory_bytes=512 << 20)
        assert result.returncode == 4, result.stderr
        assert re.fullmatch(f"ERROR electrend: invalid electorate spec: {reason}\n", result.stderr)
        assert not list(tmp_path.iterdir())

    def test_spec_file_round_trip(self, tmp_path):
        spec = ElectorateSpec(n_users=12, n_days=4, rng_seed=77)
        spec_path = tmp_path / "in.spec.json"
        save_spec(spec, spec_path)
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "-o", str(corpus), "--spec", str(spec_path)]) == 0
        echo = json.loads(Path(str(corpus) + ".spec.json").read_text())
        assert ElectorateSpec.from_dict(echo) == spec
        truth_lines = Path(str(corpus) + ".truth.csv").read_text().splitlines()
        assert len(truth_lines) == 13

    def test_inline_drift_flag(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        code = main([
            "synth", "-o", str(corpus),
            "--users", "6", "--days", "9",
            "--drift", "4:0.2,0.6,0.2;7:0.1,0.8,0.1",
        ])
        assert code == 0
        echo = json.loads(Path(str(corpus) + ".spec.json").read_text())
        assert echo["drift"] == {"4": [0.2, 0.6, 0.2], "7": [0.1, 0.8, 0.1]}

    def test_gzip_output_matches_plain(self, tmp_path):
        plain = tmp_path / "a.jsonl"
        packed = tmp_path / "b.jsonl.gz"
        for path in (plain, packed):
            assert main([
                "synth", "-o", str(path), "--users", "15", "--days", "4", "--seed", "9",
            ]) == 0
        with gzip.open(packed, "rb") as fh:
            assert fh.read() == plain.read_bytes()

    def test_gzip_output_is_reproducible(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            result = run_cli(["synth", "-o", "s.jsonl.gz", "--users", "5", "--days", "3", "--seed", "1"], tmp_path / name)
            assert result.returncode == 0, result.stderr
            digests.append(hashlib.sha256((tmp_path / name / "s.jsonl.gz").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "flags",
        [["--users", "0"], ["--users", "5", "--mean-rate", "nan"], ["--users", "5", "--mean-rate", "inf"],
         ["--users", "5", "--rate-shape", "nan"], ["--users", "20", "--mix", "1,nan,0"],
         ["--users", "20", "--drift", "2:1,nan,0"], ["--users", "20", "--bot-fraction", "0.1", "--bot-rate", "-1"],
         ["--users", "5", "--seed", "-1"], ["--users", "5", "--crosstalk", "nan"], ["--users", "5", "--seed-rate", "inf"],
         ["--users", "20", "--bot-fraction", "nan"], ["--users", "5", "--mean-rate", "1e309"],
         ["--users", "3", "--start-date", "9999-12-30", "--mean-rate", "2"], ["--users", "5", "--start-date", "9999-12-29"],
         ["--users", "5", "--start-date", "0001-01-01"], ["--users", "3", "--mean-rate", "1e308"],
         ["--users", "3", "--mean-rate", "1e300", "--rate-shape", "1e-10"]],
        ids=["no-users", "nan-rate", "inf-rate", "nan-shape", "nan-mix", "nan-drift", "negative-bot-rate", "negative-seed",
             "nan-crosstalk", "inf-seed-rate", "nan-bot-fraction", "overflow-rate",
             "past-the-calendar", "calendar-last-day", "calendar-first-day", "rate-past-poisson", "rate-nan-from-scale"],
    )
    def test_bad_spec_flags_exit_4(self, flags, tmp_path):
        result = run_cli(["synth", "-o", "c.jsonl", "--days", "3", *flags], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "invalid electorate spec: " in result.stderr
        assert not list(tmp_path.iterdir())

    def test_spec_file_without_users_exits_4(self, tmp_path):
        save_spec(ElectorateSpec(n_users=0, n_days=3), tmp_path / "s.json")
        result = run_cli(["synth", "-o", "c.jsonl", "--spec", "s.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "invalid electorate spec: need n_users >= 1" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("seed", [-1, True], ids=["negative", "bool"])
    def test_spec_file_with_a_bad_seed_exits_4(self, seed, tmp_path):
        spec = ElectorateSpec(n_users=5, n_days=3).to_dict()
        spec["rng_seed"] = seed
        (tmp_path / "s.json").write_text(json.dumps(spec))
        result = run_cli(["synth", "-o", "c.jsonl", "--spec", "s.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "bad spec s.json: rng_seed must be an integer >= 0" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_gzip_corpus_accepted_downstream(self, tmp_path):
        packed = tmp_path / "c.jsonl.gz"
        clean = tmp_path / "clean.jsonl.gz"
        assert main([
            "synth", "-o", str(packed), "--users", "30", "--days", "6", "--seed", "9",
        ]) == 0
        assert main(["ingest", str(packed), "-o", str(clean)]) == 0
        with gzip.open(clean, "rt") as fh:
            assert sum(1 for _ in fh) > 0


class TestValidateCommand:
    def test_small_spec_passes(self, tmp_path, capsys):
        spec = ElectorateSpec(n_users=2500, n_days=30, mean_rate=0.6, rng_seed=20190811)
        spec_path = tmp_path / "v.spec.json"
        save_spec(spec, spec_path)
        code = main([
            "validate", "--spec", str(spec_path),
            "--workdir", str(tmp_path / "work"), "--tolerance", "4.0",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS oracle-equivalence-instant" in out
        assert "PASS ground-truth-recovery" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "x"])
    def test_tolerance_is_a_finite_number(self, tolerance, tmp_path, capsys):
        work = tmp_path / "work"
        assert main(["validate", "--workdir", str(work), f"--tolerance={tolerance}"]) == 2
        assert f"{tolerance!r} is not a finite number" in capsys.readouterr().err
        assert not work.exists()

    @pytest.mark.parametrize(
        "n_users, tolerance, code",
        [(400, "100", 0), (400, "-1", 1), (0, "100", 1)],
        ids=["pass", "failed-check", "failed-step"],
    )
    def test_temp_workdir_is_removed(self, n_users, tolerance, code, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "v.spec.json"
        save_spec(ElectorateSpec(n_users=n_users, n_days=8, mean_rate=1.0, rng_seed=3), spec_path)
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        assert main(["validate", "--spec", str(spec_path), "--tolerance", tolerance]) == code
        assert not list(temp.iterdir())
        assert "(workdir " not in capsys.readouterr().out
