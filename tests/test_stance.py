"""Seed lexicon, tokenizer, training and classification."""

import math

import pytest
from hypothesis import given, strategies as st

from electrend.ingest import AtomicFiles
from electrend.stance import (
    CANDIDATE_HANDLES,
    DEFAULT_SEEDS,
    LexiconModel,
    Stance,
    TrainingError,
    SeedCounts,
    classify_tweet,
    count_seeded,
    fit,
    load_seeds_file,
    tokenize,
    train_from_seeds,
)
from conftest import rec


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Vamos Macri!") == ["vamos", "macri"]

    def test_strips_urls(self):
        assert tokenize("mira https://t.co/abc123 esto") == ["mira", "esto"]

    def test_drops_mentions_keeps_candidate_handles(self):
        assert tokenize("@pepito hola @mauriciomacri") == ["hola", "mauriciomacri"]
        assert "cfkargentina" in CANDIDATE_HANDLES

    def test_hashtags_contribute_tokens(self):
        assert tokenize("#Cambiemos siempre") == ["cambiemos", "siempre"]


class TestSeeds:
    def test_default_seed_assignments(self):
        assert DEFAULT_SEEDS["fuerzacristina"] == "ff"
        assert DEFAULT_SEEDS["nestorvuelva"] == "ff"
        assert DEFAULT_SEEDS["nestorpudo"] == "ff"
        assert DEFAULT_SEEDS["nuncamasmacri"] == "ff"
        assert DEFAULT_SEEDS["cambiemos"] == "mp"
        assert DEFAULT_SEEDS["mm2019"] == "mp"
        assert DEFAULT_SEEDS["lavagna"] == "third"

    def test_seeds_file_round_trip(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# comment line\nff fuerzacristina\nmp #cambiemos\nthird lavagna\n")
        seeds = load_seeds_file(str(path))
        assert seeds == {"fuerzacristina": "ff", "cambiemos": "mp", "lavagna": "third"}

    def test_seeds_file_bad_line(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("ff one two\n")
        with pytest.raises(ValueError):
            load_seeds_file(str(path))

    def test_seeds_file_unknown_camp_names_the_line(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("ff fuerzacristina\ngreen #verde\n")
        with pytest.raises(ValueError, match=r"seeds.txt:2: unknown camp 'green'"):
            load_seeds_file(str(path))


class TestClassifyTweet:
    def test_single_ff_seed_wins(self):
        model = LexiconModel(seed_tags=dict(DEFAULT_SEEDS))
        assert classify_tweet(rec(text="#nuncamasmacri"), model) is Stance.PRO_FF

    def test_conflicting_seeds_neutral(self):
        model = LexiconModel(seed_tags=dict(DEFAULT_SEEDS))
        r = rec(text="#cambiemos y #fuerzacristina")
        assert classify_tweet(r, model) is Stance.NEUTRAL

    def test_seed_dominance_overrides_weights(self):
        # learned weights point hard at MP, seed tag must still win
        model = LexiconModel(
            seed_tags=dict(DEFAULT_SEEDS),
            term_weights={"nuncamasmacri": {"ff": -9.0, "mp": 9.0, "third": 0.0}},
        )
        assert classify_tweet(rec(text="#nuncamasmacri"), model) is Stance.PRO_FF

    def test_margin_scores_example(self):
        # scores (FF 2.0, MP 0.1, Third 0.0) with margin 0.5: gap 1.9 > 0.5
        model = LexiconModel(
            seed_tags=dict(DEFAULT_SEEDS),
            term_weights={"verdura": {"ff": 2.0, "mp": 0.1, "third": 0.0}},
            decision_margin=0.5,
        )
        assert classify_tweet(rec(text="verdura sin etiquetas"), model) is Stance.PRO_FF

    def test_margin_blocks_close_call(self):
        model = LexiconModel(
            seed_tags=dict(DEFAULT_SEEDS),
            term_weights={"verdura": {"ff": 0.4, "mp": 0.1, "third": 0.0}},
            decision_margin=0.5,
        )
        assert classify_tweet(rec(text="verdura"), model) is Stance.NEUTRAL

    def test_no_tokens_no_seeds_neutral(self):
        model = LexiconModel(seed_tags=dict(DEFAULT_SEEDS))
        assert classify_tweet(rec(text="..."), model) is Stance.NEUTRAL


def seeded_corpus():
    """Hand-rolled corpus where camps use disjoint vocabularies."""
    corpus = []
    for i in range(30):
        corpus.append(rec(user=f"f{i}", text=f"#fuerzacristina patria grande {i % 3}"))
        corpus.append(rec(user=f"m{i}", text=f"#cambiemos cambio futuro {i % 3}"))
        corpus.append(rec(user=f"t{i}", text=f"#lavagna consenso federal {i % 3}"))
    return corpus


class TestTraining:
    def test_full_seed_coverage_trains(self):
        model = train_from_seeds(seeded_corpus())
        assert set(model.camps) == {"ff", "mp", "third"}
        assert model.term_weights

    def test_ff_only_token_gets_positive_ff_weight(self):
        model = train_from_seeds(seeded_corpus())
        assert model.term_weights["patria"]["ff"] > 0
        assert model.term_weights["patria"]["mp"] < 0

    def test_empty_camp_is_training_error(self):
        corpus = [rec(text="#fuerzacristina"), rec(text="#cambiemos")]
        with pytest.raises(TrainingError, match="third"):
            train_from_seeds(corpus)

    @pytest.mark.parametrize("smoothing", [1e308, 5e-324], ids=["overflow", "underflow"])
    def test_smoothing_without_finite_weights_is_training_error(self, smoothing):
        counts = count_seeded(seeded_corpus(), DEFAULT_SEEDS)
        with pytest.raises(TrainingError, match="no finite value"):
            fit(counts, smoothing=smoothing)
        weights = fit(counts, smoothing=1e300).term_weights
        assert all(math.isfinite(w) for per_camp in weights.values() for w in per_camp.values())

    def test_counts_of_parts_add_up_to_the_same_model(self):
        corpus = seeded_corpus() + [rec(text="#cambiemos #fuerzacristina ruido"), rec(text="sin semilla")]
        counts = SeedCounts()
        for start in range(0, len(corpus), 7):
            counts.update(count_seeded(corpus[start:start + 7], DEFAULT_SEEDS))
        assert counts == count_seeded(corpus, DEFAULT_SEEDS)
        assert counts.tweets == {"ff": 30, "mp": 30, "third": 30}
        assert fit(counts, smoothing=0.5).to_dict() == train_from_seeds(corpus, smoothing=0.5).to_dict()

    def test_learned_weights_classify_unseeded_text(self):
        model = train_from_seeds(seeded_corpus())
        assert classify_tweet(rec(text="patria grande"), model) is Stance.PRO_FF
        assert classify_tweet(rec(text="cambio futuro"), model) is Stance.PRO_MP
        assert classify_tweet(rec(text="consenso federal"), model) is Stance.PRO_THIRD

    def test_model_round_trip(self, tmp_path):
        model = train_from_seeds(seeded_corpus())
        probe = [
            rec(text="patria"),
            rec(text="cambio futuro"),
            rec(text="#lavagna"),
            rec(text="sin palabras conocidas"),
        ]
        before = [classify_tweet(r, model) for r in probe]
        for name in ("model.json", "model.json.gz"):
            path = str(tmp_path / name)
            with AtomicFiles() as files, files.open(path) as fh:
                model.save(fh)
            loaded = LexiconModel.load(path)
            after = [classify_tweet(r, loaded) for r in probe]
            assert before == after
            assert loaded.to_dict() == model.to_dict()

    def test_unsupported_model_version_rejected(self):
        with pytest.raises(ValueError):
            LexiconModel.from_dict({"format_version": 99, "seed_tags": {}})

    @pytest.mark.parametrize(
        "weights",
        [{"x": 5}, {"x": {"ff": float("nan")}}, {"x": {"ff": "1"}}, {"x": {"ff": True}}, {"x": {"ff": 10**400}}, [1]],
        ids=["number", "nan", "string", "bool", "huge-int", "list"],
    )
    def test_malformed_model_rejected(self, weights):
        with pytest.raises(ValueError, match="term_weights"):
            LexiconModel.from_dict({"format_version": 1, "seed_tags": {"a": "ff"}, "term_weights": weights})
        with pytest.raises(ValueError, match="not a JSON object"):
            LexiconModel.from_dict([1, 2])


class TestClassifyCorpus:
    def test_seed_only_corpus_matches_seed_camps(self):
        model = train_from_seeds(seeded_corpus())
        corpus = [rec(text="#fuerzacristina"), rec(text="#cambiemos"), rec(text="#lavagna")]
        labels = [classify_tweet(r, model) for r in corpus]
        assert labels == [Stance.PRO_FF, Stance.PRO_MP, Stance.PRO_THIRD]

    def test_label_totality_and_determinism(self):
        model = train_from_seeds(seeded_corpus())
        corpus = seeded_corpus() + [rec(text="nada")]
        labels1 = [classify_tweet(r, model) for r in corpus]
        labels2 = [classify_tweet(r, model) for r in corpus]
        assert all(isinstance(label, Stance) for label in labels1)
        assert labels1 == labels2

    @given(text=st.text(max_size=50))
    def test_classifier_total_on_arbitrary_text(self, text):
        model = LexiconModel(
            seed_tags=dict(DEFAULT_SEEDS),
            term_weights={"x": {"ff": 1.0, "mp": 0.0, "third": 0.0}},
        )
        label = classify_tweet(rec(text=text or "y", tags=[]), model)
        assert isinstance(label, Stance)


class TestScores:
    def test_scores_sum_token_weights(self):
        model = LexiconModel(
            seed_tags=dict(DEFAULT_SEEDS),
            term_weights={
                "a": {"ff": 1.0, "mp": -1.0, "third": 0.0},
                "b": {"ff": 0.5, "mp": 2.0, "third": 0.0},
            },
        )
        scores = model.scores(["a", "b", "desconocida"])
        assert scores["ff"] == pytest.approx(1.5)
        assert scores["mp"] == pytest.approx(1.0)
        assert scores["third"] == pytest.approx(0.0)

    def test_weight_symmetry_on_balanced_corpus(self):
        # a token used equally by two camps should carry near-zero net weight
        corpus = []
        for i in range(20):
            corpus.append(rec(text=f"#fuerzacristina comun{i % 2}"))
            corpus.append(rec(text=f"#cambiemos comun{i % 2}"))
            corpus.append(rec(text=f"#lavagna comun{i % 2}"))
        model = train_from_seeds(corpus)
        w = model.term_weights["comun0"]
        assert math.isclose(w["ff"], w["mp"], abs_tol=1e-9)
