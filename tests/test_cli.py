"""Command-line surface: wiring, exit codes, sidecars and manifests."""

import gzip
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

import electrend
from electrend.cli import main
from electrend.manifest import rerun
from electrend.synth import ElectorateSpec, ground_truth
from electrend.trend import read_trend_csv

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

    def test_seeds_without_a_camp(self, pipeline, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("ff yosigo\nmp mm2019\n")
        code = main([
            "train", pipeline.clean, "-o", str(tmp_path / "m"),
            "--seeds", str(seeds),
        ])
        assert code == 4

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


def run_cli(argv, cwd, max_file_bytes=None):
    """``python -m electrend`` in a fresh process; ``max_file_bytes`` caps every file it writes."""

    def cap_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # an oversize write fails with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (max_file_bytes, max_file_bytes))

    src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "electrend", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_file_size if max_file_bytes else None,
    )


class TestFailedRuns:
    """A stage that fails part-way exits with its documented code and leaves nothing behind."""

    STAGES = ("ingest", "train", "classify", "trend")

    @staticmethod
    def stage_input(stage, pipeline):
        inputs = {"ingest": pipeline.raw, "train": pipeline.clean, "classify": pipeline.clean, "trend": pipeline.labeled}
        return inputs[stage]

    @staticmethod
    def stage_argv(stage, corpus, pipeline):
        extra = {"classify": ["--model", pipeline.model, "--workers", "1"], "trend": ["--mode", "cumulative"]}
        return [stage, corpus, "-o", "out", *extra.get(stage, [])]

    @pytest.mark.parametrize("stage", STAGES)
    def test_output_write_fails_midway(self, stage, pipeline, tmp_path):
        shutil.copy(self.stage_input(stage, pipeline), tmp_path / "in.jsonl")
        result = run_cli(self.stage_argv(stage, "in.jsonl", pipeline), tmp_path, max_file_bytes=256)
        assert result.returncode == 3, result.stderr
        assert "File too large" in result.stderr
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


class TestIngestSidecars:
    def test_accounting_and_meta(self, pipeline):
        meta = json.load(open(pipeline.clean + ".meta.json"))
        assert meta["origin_date"] == "2019-04-01"
        assert meta["n_days"] == 12
        assert meta["records"] + sum(meta["rejects"].values()) == meta["input_lines"]
        n_clean = sum(1 for _ in open(pipeline.clean))
        assert n_clean == meta["records"]

    def test_rejects_sidecar_lists_bot_lines(self, pipeline):
        rejects = open(pipeline.raw + ".rejects.txt").read().splitlines()
        assert rejects, "the planted bots should have been rejected"
        line_no, reason = rejects[0].split("\t")
        assert line_no.isdigit()
        assert reason

    def test_bot_report_flags_the_planted_bots(self, pipeline):
        rows = open(pipeline.clean + ".bots.csv").read().splitlines()
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
        man = json.load(open(pipeline.clean + ".manifest.json"))
        assert man["subcommand"] == "ingest"
        assert pipeline.raw in man["argv"]
        digest = hashlib.sha256(open(pipeline.raw, "rb").read()).hexdigest()
        assert man["inputs"]["corpus"]["sha256"] == digest
        assert any(o.endswith("clean.jsonl") for o in man["outputs"].values())

    def test_manifest_rerun_is_byte_identical(self, pipeline):
        before = open(pipeline.clean, "rb").read()
        assert rerun(pipeline.clean + ".manifest.json") == 0
        assert open(pipeline.clean, "rb").read() == before

    def test_bot_rate_rule_counts_pipeline_days(self, tmp_path):
        # 80 tweets 3 minutes apart from 22:00 UTC: 40 per UTC day, 80 in one day at UTC-3
        start = datetime(2019, 8, 10, 22, tzinfo=timezone.utc)
        raw = tmp_path / "night.jsonl"
        with raw.open("w") as fh:
            for i in range(80):
                ts = (start + timedelta(minutes=3 * i)).isoformat()
                fh.write(json.dumps({"id": str(i), "user": "owl", "ts": ts, "text": f"macri dato {i}"}) + "\n")
        clean = str(tmp_path / "clean.jsonl")
        for offset, rules in (("0", ""), ("-3", "rate")):
            assert main(["ingest", str(raw), "-o", clean, "--day-offset-hours", offset]) == 0
            rows = open(clean + ".bots.csv").read().splitlines()
            assert rows[1].split(",") == ["owl", "0.3333" if rules else "0.0000", "false", rules]


class TestClassifyAndTrend:
    def test_worker_count_does_not_change_output(self, pipeline, tmp_path):
        two = tmp_path / "labeled2.jsonl"
        code = main([
            "classify", pipeline.clean, "-o", str(two),
            "--model", pipeline.model, "--workers", "2",
        ])
        assert code == 0
        assert two.read_bytes() == open(pipeline.labeled, "rb").read()

    def test_meta_sidecar_travels_with_classify(self, pipeline):
        src = json.load(open(pipeline.clean + ".meta.json"))
        dst = json.load(open(pipeline.labeled + ".meta.json"))
        assert dst["origin_date"] == src["origin_date"]

    def test_t0_accepts_date_or_day_index(self, pipeline, tmp_path):
        by_date = tmp_path / "bydate.csv"
        code = main([
            "trend", pipeline.labeled, "-o", str(by_date),
            "--mode", "cumulative", "--t0", "2019-04-01",
        ])
        assert code == 0
        assert by_date.read_bytes() == open(pipeline.trend, "rb").read()

    def test_trend_csv_has_dates(self, pipeline):
        lines = open(pipeline.trend).read().splitlines()
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
        man = json.load(open(outdir / "sweep.manifest.json"))
        assert "spread_pct_ff" in man["parameters"]

    def test_trend_t0_beyond_corpus_rejected(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "t.csv"), "--mode", "cumulative", "--t0", "13",
        ])
        assert code == 2

    def write_strata(self, pipeline, tmp_path, weight="2.5"):
        users = sorted({json.loads(line)["user"] for line in open(pipeline.labeled)})
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

    def test_sweep_t0_beyond_corpus_rejected(self, pipeline, tmp_path):
        code = main([
            "sweep", pipeline.labeled, "-o", str(tmp_path / "s"), "--t0-list", "1,400",
        ])
        assert code == 2


class TestHashtagsCommand:
    def test_labeled_input_gets_clouds(self, pipeline, tmp_path):
        base = str(tmp_path / "net")
        code = main([
            "hashtags", pipeline.labeled, "-o", base, "--min-count", "2",
        ])
        assert code == 0
        root = ET.parse(base + ".graphml").getroot()
        assert len(root.findall(".//{http://graphml.graphdrawing.org/xmlns}node")) > 0
        assert "graph hashtags {" in open(base + ".dot").read()
        clouds = open(base + ".clouds.csv").read().splitlines()
        assert clouds[0] == "camp,rank,tag,count"
        assert len(clouds) > 1

    def test_unlabeled_input_skips_clouds(self, pipeline, tmp_path):
        base = str(tmp_path / "net")
        assert main(["hashtags", pipeline.clean, "-o", base, "--min-count", "2"]) == 0
        assert not (tmp_path / "net.clouds.csv").exists()


class TestSynthCommand:
    def test_spec_file_round_trip(self, tmp_path):
        spec = ElectorateSpec(n_users=12, n_days=4, rng_seed=77)
        spec_path = tmp_path / "in.spec.json"
        spec.save(str(spec_path))
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "-o", str(corpus), "--spec", str(spec_path)]) == 0
        echo = json.load(open(str(corpus) + ".spec.json"))
        assert ElectorateSpec.from_dict(echo) == spec
        truth_lines = open(str(corpus) + ".truth.csv").read().splitlines()
        assert len(truth_lines) == 13

    def test_inline_drift_flag(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        code = main([
            "synth", "-o", str(corpus),
            "--users", "6", "--days", "9",
            "--drift", "4:0.2,0.6,0.2;7:0.1,0.8,0.1",
        ])
        assert code == 0
        echo = json.load(open(str(corpus) + ".spec.json"))
        assert echo["drift"] == {"4": [0.2, 0.6, 0.2], "7": [0.1, 0.8, 0.1]}

    def test_gzip_output_matches_plain(self, tmp_path):
        plain = tmp_path / "a.jsonl"
        packed = tmp_path / "b.jsonl.gz"
        for path in (plain, packed):
            assert main([
                "synth", "-o", str(path), "--users", "15", "--days", "4", "--seed", "9",
            ]) == 0
        assert gzip.open(packed, "rb").read() == plain.read_bytes()

    def test_gzip_output_is_reproducible(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            result = run_cli(["synth", "-o", "s.jsonl.gz", "--users", "5", "--days", "3", "--seed", "1"], tmp_path / name)
            assert result.returncode == 0, result.stderr
            digests.append(hashlib.sha256((tmp_path / name / "s.jsonl.gz").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

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
        spec.save(str(spec_path))
        code = main([
            "validate", "--spec", str(spec_path),
            "--workdir", str(tmp_path / "work"), "--tolerance", "4.0",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS oracle-equivalence-instant" in out
        assert "PASS ground-truth-recovery" in out
        assert "FAIL" not in out
