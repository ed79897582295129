import numpy as np
import pytest

import oracles
from textclf.corpus import build_vocabulary
from textclf.embeddings import (
    CooccurrenceTable,
    EmbeddingModel,
    GloveEmbedding,
    NegativeSampler,
    SkipGramEmbedding,
    SubwordEmbedding,
    TrainSpec,
    build_cooccurrence,
    build_negative_sampler,
    load_word_vectors,
    nearest_neighbors,
    save_word_vectors,
    sgns_pair_step,
    subword_ngrams,
    train_glove,
    train_sgns,
    train_subword_sgns,
    vector,
)
from textclf.pipeline import TokenizedDocument


def docs_from(rows):
    return [TokenizedDocument(str(i), tuple(r), None) for i, r in enumerate(rows)]


class TestNegativeSampler:
    def test_symmetric(self):
        s = build_negative_sampler({1: 1, 2: 1}, power=0.75)
        assert abs(s.probabilities[1] - 0.5) < 1e-12
        assert abs(s.probabilities[2] - 0.5) < 1e-12

    def test_power_smoothing(self):
        s = build_negative_sampler({1: 16, 2: 1}, power=0.75)
        assert abs(s.probabilities[1] - 8 / 9) < 1e-12

    def test_single_token(self):
        s = build_negative_sampler({1: 5}, power=0.4)
        assert s.probabilities[1] == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            build_negative_sampler({1: 0, 2: 0})

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        freq = rng.integers(1, 100, size=30)
        freq = np.concatenate([[0], freq])
        s = NegativeSampler(freq, power=0.75)
        assert abs(s.probabilities.sum() - 1.0) < 1e-9
        assert s.probabilities[0] == 0.0

    def test_empirical_distribution_within_three_se(self):
        freq = {i: f for i, f in enumerate([0, 50, 20, 10, 5, 2, 1], start=0)}
        freq.pop(0)
        s = NegativeSampler(freq, power=0.75, seed=123)
        n = 1_000_000
        draws = s.draw(n)
        counts = np.bincount(draws, minlength=7)
        assert counts[0] == 0
        for i in range(1, 7):
            p = s.probabilities[i]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[i] / n - p) <= 3 * se, f"id {i}"

    def test_draw_excluding(self):
        s = NegativeSampler({1: 1, 2: 1}, seed=0)
        for _ in range(50):
            assert 2 not in s.draw_excluding(2, 5)

    def test_draw_excluding_never_returns_fewer_than_k(self):
        s = NegativeSampler(np.array([0, 5]), seed=0)
        with pytest.raises(ValueError, match="id 1"):
            s.draw_excluding(1, 3)
        assert len(s.draw_excluding(2, 3)) == 3
        assert len(s.draw_excluding(1, 0)) == 0

    def test_draw_excluding_stream_is_the_first_non_excluded_draw(self):
        # each slot takes the first draw that is not the excluded id, so the
        # same seed drawn without exclusion gives the sequence with 2s dropped
        plain = NegativeSampler({1: 1, 2: 3, 3: 1}, seed=7).draw(200)
        excluding = NegativeSampler({1: 1, 2: 3, 3: 1}, seed=7)
        expected = plain[plain != 2]
        got = np.concatenate([excluding.draw_excluding(2, 4) for _ in range(len(expected) // 4)])
        np.testing.assert_array_equal(got, expected[: len(got)])


class TestSgnsPairStep:
    def _model(self, dim=8, v=4):
        vocab = build_vocabulary(docs_from([[f"w{i}" for i in range(v)]]), 1)
        rng = np.random.default_rng(0)
        vin = rng.uniform(-0.1, 0.1, size=(v + 1, dim)).astype(np.float32)
        vin[0] = 0
        vout = rng.uniform(-0.1, 0.1, size=(v + 1, dim)).astype(np.float32)
        return EmbeddingModel(kind="sgns", dim=dim, vocab=vocab, input_vectors=vin,
                              output_vectors=vout)

    def test_zero_vectors_loss(self):
        model = self._model()
        model.input_vectors[:] = 0
        model.output_vectors[:] = 0
        loss = sgns_pair_step(1, 2, [3, 4, 3, 4, 3], model, lr=0.1)
        assert abs(loss - 6 * np.log(2)) < 1e-6
        # output vectors were zero, so the center vector gradient was zero
        np.testing.assert_allclose(model.input_vectors[1], 0.0)

    def test_negative_equal_to_context_rejected(self):
        model = self._model()
        with pytest.raises(ValueError):
            sgns_pair_step(1, 2, [2, 3], model, lr=0.1)

    def test_updates_touch_only_involved_rows(self):
        model = self._model()
        before = model.input_vectors.copy(), model.output_vectors.copy()
        sgns_pair_step(1, 2, [3], model, lr=0.5)
        vin_changed = np.flatnonzero(np.any(model.input_vectors != before[0], axis=1))
        vout_changed = np.flatnonzero(np.any(model.output_vectors != before[1], axis=1))
        assert vin_changed.tolist() == [1]
        assert set(vout_changed.tolist()) == {2, 3}


class TestTrainSgns:
    def test_two_cluster_separation(self, two_cluster_docs):
        docs, cluster_a, cluster_b = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=24, window=5, negatives=5, epochs=5,
                         learning_rate=0.05, seed=1)
        model = train_sgns(docs, vocab, spec)

        def mean_cos(xs, ys, same):
            vals = []
            for i, a in enumerate(xs):
                for j, b in enumerate(ys):
                    if same and j <= i:
                        continue
                    va, vb = vector(model, a), vector(model, b)
                    vals.append(float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))))
            return float(np.mean(vals))

        within = (mean_cos(cluster_a, cluster_a, True) + mean_cos(cluster_b, cluster_b, True)) / 2
        cross = mean_cos(cluster_a, cluster_b, False)
        assert within > cross + 0.2

    def test_zero_epochs_keeps_initialization(self, two_cluster_docs):
        docs, _, _ = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=8, epochs=0, seed=3)
        model = train_sgns(docs, vocab, spec)
        rng = np.random.default_rng(3)
        expected = rng.uniform(-0.5 / 8, 0.5 / 8, size=(len(vocab) + 1, 8)).astype(np.float32)
        expected[0] = 0
        np.testing.assert_array_equal(model.input_vectors, expected)
        np.testing.assert_array_equal(model.output_vectors, 0.0)

    def test_seed_reproducibility(self, two_cluster_docs):
        docs, _, _ = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=8, epochs=2, negatives=3, seed=11)
        a = train_sgns(docs, vocab, spec)
        b = train_sgns(docs, vocab, spec)
        np.testing.assert_array_equal(a.input_vectors, b.input_vectors)
        np.testing.assert_array_equal(a.output_vectors, b.output_vectors)
        assert a.epoch_losses == b.epoch_losses

    def test_epoch_loss_non_increasing_at_small_lr(self, two_cluster_docs):
        docs, _, _ = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=16, window=4, negatives=5, epochs=5,
                         learning_rate=0.02, seed=2)
        model = train_sgns(docs, vocab, spec)
        diffs = np.diff(model.epoch_losses)
        assert np.all(diffs <= 1e-3), model.epoch_losses

    def test_empty_corpus_rejected(self):
        vocab = build_vocabulary(docs_from([["a"]]), 1)
        with pytest.raises(ValueError):
            train_sgns(docs_from([["zzz"]]), vocab, TrainSpec(dim=4, epochs=1))

    def test_pad_row_stays_zero(self, two_cluster_docs):
        docs, _, _ = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        model = train_sgns(docs, vocab, TrainSpec(dim=8, epochs=1, seed=0))
        np.testing.assert_array_equal(model.input_vectors[0], 0.0)


class TestSkipGramFit:
    @pytest.mark.parametrize("train", [train_sgns, train_subword_sgns])
    def test_stops_at_first_non_finite_epoch(self, two_cluster_docs, train):
        docs, _, _ = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=8, epochs=5, learning_rate=1e30, bucket_count=512)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=r"epoch 1\b"):
            train(docs, vocab, spec)

    def test_one_pair_step_and_one_negative_draw_per_pair(self, two_cluster_docs, monkeypatch):
        import textclf.embeddings as emb

        calls = {"sgns": 0, "subword": 0, "draws": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(emb, "sgns_pair_step", counting("sgns", emb.sgns_pair_step))
        monkeypatch.setattr(emb, "subword_pair_loss_and_grads",
                            counting("subword", emb.subword_pair_loss_and_grads))
        monkeypatch.setattr(NegativeSampler, "draw_excluding",
                            counting("draws", NegativeSampler.draw_excluding))
        docs, _, _ = two_cluster_docs
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=6, window=3, negatives=2, epochs=2, seed=4, bucket_count=256)
        train_sgns(docs, vocab, spec)
        sgns_draws, calls["draws"] = calls["draws"], 0
        train_subword_sgns(docs, vocab, spec)
        assert calls["sgns"] == calls["subword"] == sgns_draws == calls["draws"] > 0


class TestCooccurrence:
    def test_bare_token_lists_count_like_documents(self):
        rows = [["a", "b", "c", "a"], ["c", "c", "b"], []]
        assert build_cooccurrence(rows, 2).counts == build_cooccurrence(docs_from(rows), 2).counts

    def test_hand_enumeration(self):
        docs = docs_from([["a", "b", "a"]])
        cooc = build_cooccurrence(docs, 1)
        vocab = cooc.vocab
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        assert cooc.counts[(a, b)] == 2
        assert cooc.counts[(b, a)] == 2
        assert (a, a) not in cooc.counts  # the two a's sit 2 apart, window is 1
        # oracle re-derivation
        expected = oracles.brute_window_pairs(["a", "b", "a"], 1)
        got = {(vocab.id_to_token[i], vocab.id_to_token[j]): c
               for (i, j), c in cooc.counts.items()}
        assert got == expected

    def test_single_token_doc_empty(self):
        assert len(build_cooccurrence(docs_from([["a"]]), 3)) == 0

    def test_window_spanning_doc_counts_all_ordered_pairs(self):
        tokens = ["a", "b", "c", "d"]
        cooc = build_cooccurrence(docs_from([tokens]), 10)
        expected = oracles.brute_window_pairs(tokens, 10)
        vocab = cooc.vocab
        got = {(vocab.id_to_token[i], vocab.id_to_token[j]): c
               for (i, j), c in cooc.counts.items()}
        assert got == expected

    def test_symmetry(self):
        docs = docs_from([["a", "b", "c", "a", "b"]])
        cooc = build_cooccurrence(docs, 2)
        for (i, j), c in cooc.counts.items():
            assert cooc.counts[(j, i)] == c


class TestTrainGlove:
    def test_already_fitted_table_is_noop(self):
        # build counts so the seeded initialization satisfies the log fit
        # exactly: training then has (near-)zero residuals and moves nothing
        from textclf.base import check_random_state, derive_seed
        from textclf.embeddings import _init_input_table

        docs = docs_from([["a", "b"] * 5])
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=4, epochs=3, learning_rate=0.05, seed=0)
        w = _init_input_table(3, 4, check_random_state(0))
        wt = _init_input_table(3, 4, check_random_state(derive_seed(0, "glove-out")))
        counts = {
            (1, 2): float(np.exp(np.float64(w[1] @ wt[2]))),
            (2, 1): float(np.exp(np.float64(w[2] @ wt[1]))),
        }
        cooc = CooccurrenceTable(counts=counts, window=1, symmetric=False, vocab=vocab)
        model = train_glove(cooc, spec)
        assert all(loss < 1e-12 for loss in model.epoch_losses)
        np.testing.assert_allclose(model.input_vectors, w, atol=1e-10)

    def test_exact_zero_loss_at_optimum(self):
        docs = docs_from([["a", "b"]])
        vocab = build_vocabulary(docs, 1)
        cooc = CooccurrenceTable(counts={(1, 2): 1.0}, window=1, symmetric=True,
                                 vocab=vocab)
        from textclf.embeddings import glove_pair_loss_and_grads

        loss, dwi, dwj, dbi, dbj = glove_pair_loss_and_grads(
            np.zeros(4), np.zeros(4), 0.0, 0.0, np.log(1.0), 0.1
        )
        assert loss == 0.0
        np.testing.assert_allclose(dwi, 0.0)
        assert dbi == 0.0

    def test_loss_non_increasing_small_lr(self):
        rng = np.random.default_rng(0)
        tokens = [f"t{i}" for i in range(10)]
        rows = [list(rng.choice(tokens, size=12)) for _ in range(12)]
        docs = docs_from(rows)
        vocab = build_vocabulary(docs, 1)
        cooc = build_cooccurrence(docs, 3, vocab)
        assert len(cooc) >= 50
        spec = TrainSpec(dim=8, epochs=8, learning_rate=0.01, seed=4)
        model = train_glove(cooc, spec)
        diffs = np.diff(model.epoch_losses)
        assert np.all(diffs <= 1e-6), model.epoch_losses

    def test_nonpositive_count_rejected(self):
        docs = docs_from([["a", "b"]])
        vocab = build_vocabulary(docs, 1)
        cooc = CooccurrenceTable(counts={(1, 2): 0.0}, window=1, symmetric=True,
                                 vocab=vocab)
        with pytest.raises(ValueError):
            train_glove(cooc, TrainSpec(dim=4, epochs=1))

    def test_deterministic(self):
        docs = docs_from([["a", "b", "c", "a"]])
        vocab = build_vocabulary(docs, 1)
        cooc = build_cooccurrence(docs, 2, vocab)
        spec = TrainSpec(dim=4, epochs=2, seed=5)
        a = train_glove(cooc, spec)
        b = train_glove(cooc, spec)
        np.testing.assert_array_equal(a.input_vectors, b.input_vectors)


class TestSubwordNgrams:
    def test_cat_trigrams(self):
        ids = subword_ngrams("cat", 3, 3, 2**16)
        # <ca, cat, at>, plus the whole wrapped word
        assert len(ids) == 4

    def test_short_word_only_whole_entry(self):
        ids = subword_ngrams("ab", 5, 6, 2**16)
        assert len(ids) == 1

    def test_deterministic(self):
        assert subword_ngrams("word", 3, 5, 4096) == subword_ngrams("word", 3, 5, 4096)

    def test_ids_within_bucket_range(self):
        ids = subword_ngrams("running", 2, 4, 97)
        assert all(0 <= i < 97 for i in ids)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            subword_ngrams("", 3, 3, 10)


@pytest.fixture(scope="module")
def family_model():
    rng = np.random.default_rng(3)
    fam = ["running", "runner", "runs"]
    others = ["jumped", "walked", "swimming", "flying", "table", "chair"]
    docs = docs_from([list(rng.choice(fam + others, size=12)) for _ in range(60)])
    vocab = build_vocabulary(docs, 1)
    spec = TrainSpec(dim=24, window=3, negatives=5, epochs=3, learning_rate=0.05,
                     seed=4, nmin=3, nmax=5, bucket_count=2**14)
    return train_subword_sgns(docs, vocab, spec)


class TestTrainSubword:

    def test_unseen_variant_resolves_to_family(self, family_model):
        q = vector(family_model, "runnest", oov_strategy="subword")
        assert np.linalg.norm(q) > 0
        top = nearest_neighbors(family_model, "runnest", 1)[0][0]
        assert top in {"running", "runner", "runs"}

    def test_composition_matches_training_representation(self, family_model):
        # stored row was materialized from the same composition
        for word in ("running", "table"):
            np.testing.assert_array_equal(
                vector(family_model, word, oov_strategy="subword"),
                family_model.input_vectors[family_model.vocab.token_to_id[word]],
            )

    def test_deterministic(self):
        docs = docs_from([["aa", "ab", "ba"] * 4])
        vocab = build_vocabulary(docs, 1)
        spec = TrainSpec(dim=6, epochs=1, negatives=2, seed=9, nmin=2, nmax=3,
                         bucket_count=512)
        a = train_subword_sgns(docs, vocab, spec)
        b = train_subword_sgns(docs, vocab, spec)
        np.testing.assert_array_equal(a.input_vectors, b.input_vectors)
        np.testing.assert_array_equal(a.bucket_vectors, b.bucket_vectors)


@pytest.fixture(scope="module")
def model():
    docs = docs_from([["alpha", "beta", "gamma"] * 3])
    vocab = build_vocabulary(docs, 1)
    return train_sgns(docs, vocab, TrainSpec(dim=10, epochs=1, negatives=2, seed=0))


class TestVectorLookup:

    def test_in_vocab_returns_stored_row(self, model):
        for strategy in ("error", "uniform", "random_invocab"):
            np.testing.assert_array_equal(
                vector(model, "alpha", strategy),
                model.input_vectors[model.vocab.token_to_id["alpha"]],
            )

    def test_error_strategy_raises(self, model):
        with pytest.raises(KeyError):
            vector(model, "missing", "error")

    def test_uniform_strategy_bounds(self, model):
        v = vector(model, "missing", "uniform")
        bound = 0.5 / model.dim
        assert np.all(v > -bound) and np.all(v < bound)

    def test_uniform_deterministic_per_word(self, model):
        np.testing.assert_array_equal(
            vector(model, "missing", "uniform"), vector(model, "missing", "uniform")
        )
        assert not np.array_equal(
            vector(model, "missing", "uniform"), vector(model, "other", "uniform")
        )

    def test_random_invocab_returns_existing_row(self, model):
        v = vector(model, "missing", "random_invocab")
        table = model.input_vectors[1:]
        assert any(np.array_equal(v, row) for row in table)

    def test_subword_strategy_needs_subword_model(self, model):
        with pytest.raises(ValueError):
            vector(model, "missing", "subword")

    def test_unknown_strategy(self, model):
        with pytest.raises(ValueError):
            vector(model, "alpha", "nope")


class TestNearestNeighbors:
    def _model(self, table, names):
        vocab = build_vocabulary(docs_from([names]), 1)
        ordered = np.zeros((len(names) + 1, table.shape[1]), dtype=np.float32)
        for name, row in zip(names, table):
            ordered[vocab.token_to_id[name]] = row
        return EmbeddingModel(kind="sgns", dim=table.shape[1], vocab=vocab,
                              input_vectors=ordered)

    def test_two_word_model(self):
        model = self._model(np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"])
        assert nearest_neighbors(model, "a", 1)[0][0] == "b"

    def test_identical_vector_ranks_first(self):
        model = self._model(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), ["a", "b", "c"]
        )
        name, cos = nearest_neighbors(model, "a", 1)[0]
        assert name == "b" and abs(cos - 1.0) < 1e-6

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(0)
        names = [f"w{i}" for i in range(10)]
        table = rng.normal(size=(10, 6)).astype(np.float32)
        model = self._model(table, names)
        got = nearest_neighbors(model, "w0", 9)
        query = model.input_vectors[model.vocab.token_to_id["w0"]]
        rows = [model.input_vectors[model.vocab.token_to_id[n]] for n in names[1:]]
        expected = oracles.brute_cosine_ranking(query, rows, names[1:])
        assert [n for n, _ in got] == [n for n, _ in expected]
        np.testing.assert_allclose([c for _, c in got], [c for _, c in expected],
                                   atol=1e-6)

    def test_oversized_k_truncates(self):
        model = self._model(np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"])
        assert len(nearest_neighbors(model, "a", 10)) == 1

    def test_zero_vector_ranks_last(self):
        model = self._model(
            np.array([[1.0, 0.0], [0.5, 0.1], [0.0, 0.0]]), ["a", "b", "zero"]
        )
        names = [n for n, _ in nearest_neighbors(model, "a", 2)]
        assert names[-1] == "zero"


class TestVectorFile:
    def test_roundtrip_exact(self, tmp_path):
        docs = docs_from([["one", "two", "three"] * 2])
        vocab = build_vocabulary(docs, 1)
        model = train_sgns(docs, vocab, TrainSpec(dim=7, epochs=1, negatives=2, seed=2))
        path = tmp_path / "vectors.txt"
        save_word_vectors(model, path)
        loaded = load_word_vectors(path)
        assert loaded.vocab.tokens == model.vocab.tokens
        np.testing.assert_array_equal(loaded.input_vectors, model.input_vectors)

    def test_header_format(self, tmp_path):
        docs = docs_from([["x", "y"]])
        vocab = build_vocabulary(docs, 1)
        model = train_sgns(docs, vocab, TrainSpec(dim=3, epochs=0, seed=0))
        path = tmp_path / "v.txt"
        save_word_vectors(model, path)
        first = path.read_text().splitlines()[0]
        assert first == "2 3"

    def test_reader_skips_pad_row(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\n<pad> 0.0 0.0\naa 1.0 2.0\nbb 3.0 4.0\n", encoding="utf-8")
        model = load_word_vectors(path)
        assert model.vocab.tokens == ["aa", "bb"]
        np.testing.assert_array_equal(model.input_vectors[1], [1.0, 2.0])

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 3\naa 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_word_vectors(path)


class TestEstimators:
    @pytest.mark.parametrize("estimator", [
        SkipGramEmbedding(dim=6, epochs=2, negatives=2, seed=5),
        SubwordEmbedding(dim=6, epochs=2, negatives=2, nmin=2, nmax=3, bucket_count=256, seed=5),
        GloveEmbedding(dim=6, epochs=2, seed=5),
    ], ids=["sgns", "subword", "glove"])
    def test_bare_token_lists_train_like_documents(self, two_cluster_docs, estimator):
        docs, _, _ = two_cluster_docs
        bare = estimator.fit([list(d.tokens) for d in docs]).model_
        wrapped = estimator.fit(docs).model_
        assert bare.vocab.tokens == wrapped.vocab.tokens
        for name in ("input_vectors", "output_vectors", "bucket_vectors"):
            a, b = getattr(bare, name), getattr(wrapped, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert bare.epoch_losses == wrapped.epoch_losses

    def test_skipgram_estimator(self, two_cluster_docs):
        docs, cluster_a, _ = two_cluster_docs
        est = SkipGramEmbedding(dim=8, epochs=1, negatives=2, seed=0)
        est.fit(docs)
        assert est.model_.kind == "sgns"
        assert est.vector(cluster_a[0]).shape == (8,)
        assert est.get_params()["dim"] == 8

    def test_glove_estimator(self, two_cluster_docs):
        docs, _, _ = two_cluster_docs
        est = GloveEmbedding(dim=6, epochs=2, seed=0)
        est.fit(docs)
        assert est.model_.kind == "glove"
        assert len(est.model_.epoch_losses) == 2

    def test_subword_estimator_handles_oov(self, two_cluster_docs):
        docs, _, _ = two_cluster_docs
        est = SubwordEmbedding(dim=6, epochs=1, negatives=2, nmin=2, nmax=3,
                               bucket_count=1024, seed=0)
        est.fit(docs)
        assert np.linalg.norm(est.vector("alphaqq", oov_strategy="subword")) > 0
