import numpy as np
import pytest

import oracles
from textclf.corpus import LabeledDataset, generate_synthetic_corpus
from textclf.eval import (
    EvalReport,
    calibration_curve,
    confusion_matrix,
    cross_validate,
    cross_validate_ensemble,
    learning_curve,
    macro_prf,
    mcc,
    random_search,
    roc_auc,
)
from textclf.model import FastTextClassifier
from textclf.pipeline import TokenizedDocument


class TestConfusionMatrix:
    def test_perfect_is_diagonal(self):
        m = confusion_matrix(["a", "b", "a"], ["a", "b", "a"], ["a", "b"])
        assert m.tolist() == [[2, 0], [0, 1]]

    def test_hand_counts(self):
        m = confusion_matrix(["A", "A", "B"], ["A", "B", "B"], ["A", "B"])
        assert m.tolist() == [[1, 1], [0, 1]]

    def test_row_sums_are_gold_counts(self):
        rng = np.random.default_rng(0)
        gold = rng.choice(["x", "y", "z"], size=50).tolist()
        pred = rng.choice(["x", "y", "z"], size=50).tolist()
        m = confusion_matrix(gold, pred, ["x", "y", "z"])
        assert m.sum() == 50
        for i, cls in enumerate(["x", "y", "z"]):
            assert m[i].sum() == gold.count(cls)

    def test_unknown_label_named(self):
        with pytest.raises(ValueError, match="'q'"):
            confusion_matrix(["q"], ["a"], ["a"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(["a"], ["a", "a"], ["a"])


class TestMacroPrf:
    def test_perfect(self):
        m = confusion_matrix(["a", "b"], ["a", "b"], ["a", "b"])
        p, r, f1, per_class = macro_prf(m)
        assert p == r == f1 == 1.0

    def test_hand_example_two_thirds(self):
        m = confusion_matrix(["A", "A", "B"], ["A", "B", "B"], ["A", "B"])
        p, r, f1, _ = macro_prf(m)
        assert abs(f1 - 2 / 3) < 1e-12

    def test_absent_class_contributes_zero(self):
        m = confusion_matrix(["a", "a"], ["a", "a"], ["a", "ghost"])
        p, r, f1, per_class = macro_prf(m)
        assert per_class[1] == (0.0, 0.0, 0.0)
        assert abs(f1 - 0.5) < 1e-12

    def test_matches_bruteforce_on_100_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n_classes = int(rng.integers(2, 5))
            classes = [f"c{i}" for i in range(n_classes)]
            n = int(rng.integers(1, 40))
            gold = rng.choice(classes, size=n).tolist()
            pred = rng.choice(classes, size=n).tolist()
            m = confusion_matrix(gold, pred, classes)
            got = macro_prf(m)
            expected = oracles.brute_macro_prf(gold, pred, classes)
            for g, e in zip(got[:3], expected[:3]):
                assert abs(g - e) <= 1e-12, trial

    def test_macro_f1_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gold = rng.choice(["a", "b"], size=10).tolist()
            pred = rng.choice(["a", "b"], size=10).tolist()
            _, _, f1, _ = macro_prf(confusion_matrix(gold, pred, ["a", "b"]))
            assert 0.0 <= f1 <= 1.0


class TestMcc:
    def test_perfect_and_inverted(self):
        perfect = confusion_matrix([0, 1], [0, 1], [0, 1])
        inverted = confusion_matrix([0, 1], [1, 0], [0, 1])
        assert mcc(perfect) == 1.0
        assert mcc(inverted) == -1.0

    def test_hand_value(self):
        # tp=6 tn=3 fp=1 fn=2 -> 16 / sqrt(1120)
        m = np.array([[3, 1], [2, 6]])
        assert abs(mcc(m) - 16 / np.sqrt(1120)) < 1e-12
        assert abs(mcc(m) - 0.4781) < 1e-4

    def test_single_class_prediction_zero(self):
        m = confusion_matrix([0, 1, 1], [1, 1, 1], [0, 1])
        assert mcc(m) == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            mcc(np.zeros((3, 3)))

    def test_matches_bruteforce_on_100_random_instances(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(2, 40))
            gold = rng.integers(0, 2, size=n).tolist()
            pred = rng.integers(0, 2, size=n).tolist()
            m = confusion_matrix(gold, pred, [0, 1])
            assert abs(mcc(m) - oracles.brute_mcc(gold, pred)) <= 1e-12, trial

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = rng.integers(0, 10, size=(2, 2))
            assert -1.0 <= mcc(m) <= 1.0


class TestRocAuc:
    def test_scores_equal_labels(self):
        _, auc = roc_auc([1.0, 0.0, 1.0, 0.0], [1, 0, 1, 0])
        assert auc == 1.0

    def test_all_equal_scores_half(self):
        _, auc = roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert abs(auc - 0.5) < 1e-12

    def test_hand_value(self):
        _, auc = roc_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
        assert abs(auc - 0.75) < 1e-12
        assert abs(oracles.brute_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) - 0.75) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.5, 0.6], [1, 1])

    def test_nan_score_rejected(self):
        # NaN never equals itself, so its tie group would never end
        with pytest.raises(ValueError, match="NaN"):
            roc_auc([0.2, float("nan"), 0.7], [0, 1, 1])

    def test_matches_pairwise_enumeration_on_100_random_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(100):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            _, auc = roc_auc(scores, labels)
            expected = oracles.brute_auc(scores.tolist(), labels.tolist())
            assert abs(auc - expected) <= 1e-12, trial

    def test_curve_monotone_from_origin_to_corner(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        curve, _ = roc_auc(rng.random(30), labels)
        xs = [p[0] for p in curve.points]
        assert xs == sorted(xs)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(12)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        _, base = roc_auc(scores, labels)
        _, affine = roc_auc(2.0 * scores + 1.0, labels)
        _, cubed = roc_auc(scores**3, labels)
        assert abs(base - affine) < 1e-12
        assert abs(base - cubed) < 1e-12


class TestCalibrationCurve:
    def test_single_bin_point(self):
        probs = [0.7] * 10
        labels = [1] * 7 + [0] * 3
        curve = calibration_curve(probs, labels)
        assert len(curve.points) == 1
        x, y, count = curve.points[0]
        assert abs(x - 0.7) < 1e-12 and abs(y - 0.7) < 1e-12 and count == 10

    def test_p_one_all_positive(self):
        curve = calibration_curve([1.0, 1.0], [1, 1])
        assert curve.points == [(1.0, 1.0, 2)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            calibration_curve([1.2], [1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            calibration_curve([0.2, float("nan"), 0.9], [0, 1, 1])

    def test_bernoulli_draws_near_diagonal(self):
        rng = np.random.default_rng(13)
        probs = rng.random(10_000)
        labels = (rng.random(10_000) < probs).astype(int)
        curve = calibration_curve(probs, labels, bins=10)
        for x, y, count in curve.points:
            assert abs(y - x) < 0.05

    def test_empty_bins_omitted(self):
        curve = calibration_curve([0.05, 0.95], [0, 1], bins=10)
        assert len(curve.points) == 2


def _easy_dataset(n_per_class=30, classes=2, seed=0):
    return generate_synthetic_corpus(classes=classes, docs_per_class=n_per_class,
                                     vocab_per_class=10, shared_vocab=3, doc_len=10,
                                     seed=seed)


def _fast_trainer():
    return FastTextClassifier(dim=12, epochs=8, learning_rate=0.2, seed=0)


class _TokenVote:
    """Scores class c of a document by how often its tokens carried label c
    in training, plus ``prior``.  The arithmetic is exact, so a column's
    values do not depend on the order of ``classes_``."""

    def __init__(self, prior=1):
        self.prior = prior

    def fit(self, docs, labels):
        self.classes_ = sorted(set(labels))
        self.counts_ = {}
        for doc, label in zip(docs, labels):
            for token in doc:
                self.counts_.setdefault(token, {}).setdefault(label, 0)
                self.counts_[token][label] += 1
        return self

    def predict_proba(self, docs):
        votes = np.array([[self.prior + sum(self.counts_.get(t, {}).get(c, 0) for t in doc)
                           for c in self.classes_] for doc in docs], dtype=np.float64)
        return votes / votes.sum(axis=1, keepdims=True)

    def predict(self, docs):
        return [self.classes_[i] for i in np.argmax(self.predict_proba(docs), axis=1)]


def _reversed_classes(ds):
    """``ds`` with its classes renamed so that ``classes`` runs opposite to
    sorted order, and the renaming.  The splits match those of ``ds``,
    because they follow the position of each class in ``classes``."""
    names = {c: "zyxw"[i] for i, c in enumerate(ds.classes)}
    docs = [TokenizedDocument(d.id, d.tokens, names[d.label]) for d in ds.documents]
    renamed = LabeledDataset(docs, [names[c] for c in ds.classes])
    assert renamed.classes == sorted(renamed.classes, reverse=True)
    return renamed, names


def _with_class_names(report, names):
    """``report`` as a dict, with each class renamed by ``names``."""
    out = report.to_dict()
    out["classes"] = [names[c] for c in out["classes"]]
    if out["roc"] is not None and "per_class" in out["roc"]:
        out["roc"]["per_class"] = {names[c]: v for c, v in out["roc"]["per_class"].items()}
    return out


class TestClassOrder:
    # probability columns follow model.classes_ (sorted); reports follow
    # dataset.classes, whatever its order

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_cross_validate_matches_sorted_run(self, n_classes):
        ds = _easy_dataset(15, classes=n_classes, seed=3)
        renamed, names = _reversed_classes(ds)
        sorted_run = cross_validate(_TokenVote, ds, k=3, seed=0)
        reversed_run = cross_validate(_TokenVote, renamed, k=3, seed=0)
        assert sorted_run.fold_metrics["macro_f1"] == [1.0] * 3
        assert reversed_run.roc is not None
        if n_classes == 2:
            assert reversed_run.holdout_metrics["auc"] == sorted_run.holdout_metrics["auc"]
            assert reversed_run.fold_metrics["auc"] == sorted_run.fold_metrics["auc"]
            assert reversed_run.calibration == sorted_run.calibration
        assert _with_class_names(sorted_run, names) == reversed_run.to_dict()

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_ensemble_matches_sorted_run(self, n_classes):
        ds = _easy_dataset(15, classes=n_classes, seed=3)
        renamed, names = _reversed_classes(ds)
        trainers = {f"vote{prior}": (lambda prior=prior: _TokenVote(prior))
                    for prior in (1, 10, 100)}
        sorted_run = cross_validate_ensemble(trainers, ds, k=3, seed=0, top=2)
        reversed_run = cross_validate_ensemble(trainers, renamed, k=3, seed=0, top=2)
        assert sorted_run.holdout_metrics["macro_f1"] == 1.0
        assert (reversed_run.fold_metrics["ensemble_macro_f1"]
                == sorted_run.fold_metrics["ensemble_macro_f1"])
        assert reversed_run.holdout_metrics["macro_f1"] == sorted_run.holdout_metrics["macro_f1"]
        assert _with_class_names(sorted_run, names) == reversed_run.to_dict()

    def test_model_without_a_dataset_class_is_named(self):
        ds = _easy_dataset(10, classes=3)

        class Blind(_TokenVote):
            def fit(self, docs, labels):
                super().fit(docs, labels)
                self.classes_ = self.classes_[:2]
                return self

        with pytest.raises(ValueError, match="classc"):
            cross_validate(Blind, ds, k=2, seed=0)


class TestCrossValidate:
    def test_split_arithmetic(self):
        ds = _easy_dataset(50)  # 100 docs total
        report = cross_validate(_fast_trainer, ds, k=5, seed=0)
        folds = np.array(report.fold_assignment)
        assert len(folds) == 80
        counts = np.bincount(folds, minlength=5)
        assert counts.tolist() == [16] * 5
        assert sum(sum(row) for row in report.confusion) == 20

    def test_same_seed_identical_report(self):
        ds = _easy_dataset(20)
        a = cross_validate(_fast_trainer, ds, k=4, seed=3)
        b = cross_validate(_fast_trainer, ds, k=4, seed=3)
        assert a.to_json() == b.to_json()

    def test_learnable_dataset_high_f1(self):
        ds = _easy_dataset(30, classes=3, seed=2)
        report = cross_validate(_fast_trainer, ds, k=5, seed=1)
        assert report.holdout_metrics["macro_f1"] >= 0.95
        assert report.fold_summary["macro_f1"]["mean"] >= 0.95

    def test_binary_report_has_mcc_auc_calibration(self):
        ds = _easy_dataset(30, classes=2, seed=4)
        report = cross_validate(_fast_trainer, ds, k=4, seed=2)
        assert "mcc" in report.holdout_metrics
        assert "auc" in report.holdout_metrics
        assert report.roc is not None and "points" in report.roc
        assert report.calibration is not None

    def test_multiclass_one_vs_rest_roc(self):
        ds = _easy_dataset(20, classes=3, seed=5)
        report = cross_validate(_fast_trainer, ds, k=4, seed=2)
        assert report.roc is not None
        assert set(report.roc["per_class"]) == set(ds.classes)
        assert "macro_auc" in report.roc

    def test_fold_and_holdout_disjoint(self):
        # leakage guard: a validation document never trains its own fold,
        # and hold-out documents never enter cross-validation
        seen = {"train": [], "valid": []}

        class Spy(FastTextClassifier):
            def fit(self, docs, labels, valid=None):
                seen["train"].append({tuple(d) for d in docs})
                return super().fit(docs, labels, valid)

            def predict_proba(self, docs):
                seen["valid"].append({tuple(d) for d in docs})
                return super().predict_proba(docs)

        ds = _easy_dataset(15)
        cross_validate(lambda: Spy(dim=8, epochs=2, seed=0), ds, k=3, seed=0)
        # the last fit is the final refit; pair the first k fits with scored splits
        for fit_docs, val_docs in zip(seen["train"][:3], seen["valid"][:3]):
            assert not fit_docs & val_docs
        holdout_docs = seen["valid"][-1]
        for fit_docs in seen["train"][:3]:
            assert not holdout_docs & fit_docs

    @pytest.mark.parametrize("classes", [2, 3])
    def test_one_inference_pass_per_split(self, classes):
        # each fold and the hold-out run predict_proba once; labels are its argmax
        calls = []

        class Counting(FastTextClassifier):
            def predict(self, docs):
                raise AssertionError("labels come from the predict_proba pass")

            def predict_proba(self, docs):
                calls.append(len(docs))
                return super().predict_proba(docs)

        ds = _easy_dataset(15, classes=classes)
        report = cross_validate(lambda: Counting(dim=8, epochs=2, seed=0), ds, k=3, seed=0)
        assert len(calls) == 3 + 1
        assert sum(calls) == len(ds.documents)
        assert sum(sum(row) for row in report.confusion) == calls[-1]

    def test_report_roundtrip(self, tmp_path):
        ds = _easy_dataset(20)
        report = cross_validate(_fast_trainer, ds, k=4, seed=0)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = EvalReport.load(path)
        assert loaded.to_json() == report.to_json()


class TestCrossValidateEnsemble:
    def test_top3_selection_and_metrics(self):
        ds = _easy_dataset(25, classes=2, seed=6)
        trainers = {
            "fast": _fast_trainer,
            "slow": lambda: FastTextClassifier(dim=4, epochs=1, learning_rate=0.01, seed=1),
            "mid": lambda: FastTextClassifier(dim=8, epochs=4, learning_rate=0.1, seed=2),
            "tiny": lambda: FastTextClassifier(dim=2, epochs=1, learning_rate=0.005, seed=3),
        }
        report = cross_validate_ensemble(trainers, ds, k=3, seed=0, top=3)
        assert len(report.config["ensemble_members"]) == 3
        assert set(report.config["member_mean_f1"]) == set(trainers)
        assert "macro_f1" in report.holdout_metrics
        # per-fold membership: top three by that fold's validation score
        assert len(report.config["fold_members"]) == 3
        assert all(len(members) == 3 for members in report.config["fold_members"])
        assert len(report.fold_metrics["ensemble_macro_f1"]) == 3


    def test_one_inference_pass_per_member_and_split(self):
        # each member runs predict_proba once per fold, each final member once
        # on the hold-out; fold and hold-out ensembles average those passes
        calls = {}

        def counting(name, dim):
            class Counting(FastTextClassifier):
                def predict(self, docs):
                    raise AssertionError("labels come from the predict_proba pass")

                def predict_proba(self, docs):
                    calls.setdefault(name, []).append(len(docs))
                    return super().predict_proba(docs)

            return lambda: Counting(dim=dim, epochs=2, seed=0)

        ds = _easy_dataset(15, classes=3)
        trainers = {name: counting(name, dim) for name, dim in
                    (("a", 4), ("b", 8), ("c", 12))}
        report = cross_validate_ensemble(trainers, ds, k=3, seed=0, top=2)
        final = report.config["ensemble_members"]
        assert {name: len(sizes) for name, sizes in calls.items()} == {
            name: 3 + (name in final) for name in trainers}
        n_holdout = sum(sum(row) for row in report.confusion)
        for name, sizes in calls.items():
            assert sum(sizes[:3]) == len(ds.documents) - n_holdout
            assert sizes[3:] == ([n_holdout] if name in final else [])


class TestCrossValidateErrors:
    def test_stratification_failure_propagates(self):
        from textclf.corpus import StratificationError
        from textclf.pipeline import TokenizedDocument

        docs = [TokenizedDocument(str(i), ("t",), "a") for i in range(20)]
        docs += [TokenizedDocument("x" + str(i), ("u",), "b") for i in range(3)]
        ds = LabeledDataset(docs)
        with pytest.raises(StratificationError):
            cross_validate(_fast_trainer, ds, k=5, seed=0)


class TestLearningCurve:
    def test_shapes_and_fraction_validation(self):
        ds = _easy_dataset(20)
        curve = learning_curve(_fast_trainer, ds, [0.25, 0.5, 1.0], seed=0)
        assert len(curve.train_scores) == 3
        assert len(curve.valid_scores) == 3
        with pytest.raises(ValueError):
            learning_curve(_fast_trainer, ds, [0.5, 0.25], seed=0)
        with pytest.raises(ValueError):
            learning_curve(_fast_trainer, ds, [0.0, 1.0], seed=0)

    def test_small_fraction_trains_at_least_as_well(self):
        # high-capacity model overfits small subsets at least as tightly
        ds = _easy_dataset(40, seed=7)
        curve = learning_curve(_fast_trainer, ds, [0.25, 1.0], seed=1)
        assert curve.train_scores[0] >= curve.train_scores[1] - 0.02

    def test_fraction_too_small_for_class(self):
        ds = _easy_dataset(5)
        with pytest.raises(ValueError):
            learning_curve(_fast_trainer, ds, [0.05], seed=0)

    def test_full_fraction_equals_direct_run(self):
        from textclf.corpus import stratified_holdout

        ds = _easy_dataset(15, seed=9)
        curve = learning_curve(_fast_trainer, ds, [1.0], seed=2)
        train_idx, valid_idx = stratified_holdout(ds, 0.2, seed=2)
        model = _fast_trainer()
        model.fit([ds.documents[i].tokens for i in train_idx],
                  [ds.documents[i].label for i in train_idx])
        pred = model.predict([ds.documents[i].tokens for i in valid_idx])
        matrix = confusion_matrix([ds.documents[i].label for i in valid_idx], pred,
                                  ds.classes)
        assert abs(curve.valid_scores[0] - macro_prf(matrix)[2]) < 1e-12


class TestRandomSearch:
    def test_single_trial_returns_sample(self):
        best, log = random_search({"lr": (0.1, 0.2)}, 1, lambda cfg: cfg["lr"], seed=0)
        assert len(log) == 1
        assert best == log[0][0]
        assert 0.1 <= best["lr"] <= 0.2

    def test_same_seed_identical_trials(self):
        space = {"lr": (0.0, 1.0), "units": [8, 16, 32], "depth": (1, 4)}
        _, log_a = random_search(space, 6, lambda cfg: 0.0, seed=5)
        _, log_b = random_search(space, 6, lambda cfg: 0.0, seed=5)
        assert [cfg for cfg, _ in log_a] == [cfg for cfg, _ in log_b]

    def test_selects_working_configuration(self):
        ds = _easy_dataset(15)
        docs = [d.tokens for d in ds.documents]
        labels = [d.label for d in ds.documents]

        def objective(cfg):
            clf = FastTextClassifier(dim=8, epochs=4, learning_rate=cfg["lr"], seed=0)
            clf.fit(docs, labels)
            pred = clf.predict(docs)
            m = confusion_matrix(labels, pred, ds.classes)
            return macro_prf(m)[2]

        best, log = random_search({"lr": [0.0, 0.05]}, 10, objective, seed=3)
        assert best["lr"] == 0.05

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            random_search({"lr": (0.1, 0.2)}, 0, lambda c: 0.0)
        with pytest.raises(ValueError):
            random_search({"lr": []}, 2, lambda c: 0.0)
