import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textclf
from textclf.cli import run_command, write_report
from textclf.corpus import generate_synthetic_corpus
from textclf.eval import EvalReport
from textclf.pipeline import save_tokenized_documents


@pytest.fixture
def corpus_file(tmp_path):
    ds = generate_synthetic_corpus(classes=2, docs_per_class=20, vocab_per_class=10,
                                   shared_vocab=3, doc_len=10, seed=31)
    path = tmp_path / "tokens.tsv"
    save_tokenized_documents(ds.documents, path)
    return path


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run_command(["preprocess", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert run_command([]) == 1

    def test_missing_required(self, capsys):
        assert run_command(["preprocess", "--input", "x"]) == 1


class TestPreprocess:
    def test_happy_path(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("pos\tthe hamburger runs 42\nneg\tbad <b>markup</b> here\n",
                       encoding="utf-8")
        input_bytes = raw.read_bytes()
        out = tmp_path / "out" / "tokens.tsv"
        rc = run_command([
            "preprocess", "--input", str(raw), "--output", str(out), "--min-df", "1",
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("pos\t")
        assert "42" not in lines[0]
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert "tokens.tsv" in manifest["artifacts"]
        assert raw.read_bytes() == input_bytes  # inputs are never mutated

    def test_missing_input_is_data_error(self, tmp_path):
        rc = run_command([
            "preprocess", "--input", str(tmp_path / "absent.tsv"),
            "--output", str(tmp_path / "o.tsv"),
        ])
        assert rc == 2

    def test_config_file_precedence(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("a\thello world hello world\n", encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"min_doc_frequency": 99}), encoding="utf-8")
        out1 = tmp_path / "o1.tsv"
        rc = run_command(["preprocess", "--input", str(raw), "--output", str(out1),
                          "--config", str(config)])
        assert rc == 0
        assert out1.read_text().splitlines() == ["a\t"]  # df threshold ate everything
        out2 = tmp_path / "o2.tsv"
        rc = run_command(["preprocess", "--input", str(raw), "--output", str(out2),
                          "--config", str(config), "--min-df", "1"])
        assert rc == 0
        assert "hello" in out2.read_text()

    def test_unknown_config_key_rejected(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("x\n", encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"wrong_key": 1}), encoding="utf-8")
        rc = run_command(["preprocess", "--input", str(raw),
                          "--output", str(tmp_path / "o.tsv"),
                          "--config", str(config)])
        assert rc == 2


class TestEmbed:
    @pytest.mark.parametrize("kind", ["sgns", "glove", "subword"])
    def test_all_kinds(self, corpus_file, tmp_path, kind):
        out = tmp_path / f"{kind}.vec"
        rc = run_command([
            "embed", "--input", str(corpus_file), "--output", str(out),
            "--kind", kind, "--dim", "8", "--epochs", "1", "--seed", "3",
        ])
        assert rc == 0
        header = out.read_text(encoding="utf-8").splitlines()[0].split()
        assert header[1] == "8"

    def test_vector_file_reloadable(self, corpus_file, tmp_path):
        from textclf.embeddings import load_word_vectors

        out = tmp_path / "v.vec"
        assert run_command([
            "embed", "--input", str(corpus_file), "--output", str(out),
            "--kind", "sgns", "--dim", "6", "--epochs", "1",
        ]) == 0
        model = load_word_vectors(out)
        assert model.dim == 6
        assert len(model.vocab) > 0

    def test_threads_config_key_rejected(self, corpus_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"threads": 2}), encoding="utf-8")
        rc = run_command(["embed", "--input", str(corpus_file), "--output",
                          str(tmp_path / "v.vec"), "--config", str(config)])
        assert rc == 2
        assert "threads" in capsys.readouterr().err

    def test_one_token_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "one.tsv"
        corpus.write_text("a\tsame same same\n", encoding="utf-8")
        rc = run_command(["embed", "--input", str(corpus), "--output",
                          str(tmp_path / "v.vec"), "--dim", "4", "--epochs", "1"])
        assert rc == 2
        assert "negative" in capsys.readouterr().err


class TestTrainPredictEval:
    def test_train_fasttext_and_predict(self, corpus_file, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "run"
        rc = run_command([
            "train", "--input", str(corpus_file), "--output-dir", str(outdir),
            "--model", "fasttext", "--epochs", "5", "--seed", "1",
        ])
        assert rc == 0
        assert (outdir / "model" / "model.json").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "train"

        doc_line = corpus_file.read_text(encoding="utf-8").splitlines()[0].split("\t")[1]
        monkeypatch.setattr("sys.stdin", _FakeStdin([doc_line + "\n"]))
        rc = run_command(["predict", "--model-dir", str(outdir / "model")])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        label, probs = line.split("\t")
        values = [float(v) for v in probs.split(",")]
        assert abs(sum(values) - 1.0) < 1e-6

    def test_train_convlstm_small(self, corpus_file, tmp_path):
        outdir = tmp_path / "run"
        rc = run_command([
            "train", "--input", str(corpus_file), "--output-dir", str(outdir),
            "--model", "convlstm", "--task", "hate_speech", "--epochs", "1",
            "--seq-len", "10", "--emb-dim", "8", "--filters", "2",
            "--lstm-units", "3", "--seed", "0",
        ])
        assert rc == 0
        assert (outdir / "model" / "weights.bin").exists()

    def test_predict_streams_in_chunks(self, corpus_file, tmp_path, capsys, monkeypatch):
        from textclf.cli import PREDICT_CHUNK
        from textclf.model import load_classifier

        outdir = tmp_path / "run"
        assert run_command([
            "train", "--input", str(corpus_file), "--output-dir", str(outdir),
            "--model", "convlstm", "--task", "hate_speech", "--epochs", "1",
            "--seq-len", "10", "--emb-dim", "8", "--filters", "2",
            "--lstm-units", "3", "--seed", "0",
        ]) == 0
        rows = [line.split("\t")[1] for line in corpus_file.read_text(encoding="utf-8").splitlines()]
        lines = [rows[i % len(rows)] + "\n" for i in range(PREDICT_CHUNK + 45)]
        outputs = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", _FakeStdin(lines))
            assert run_command(["predict", "--model-dir", str(outdir / "model")]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        model = load_classifier(outdir / "model")
        probs = model.predict_proba([tuple(line.split()) for line in lines])
        printed = [line.split("\t") for line in outputs[0].splitlines()]
        assert len(printed) == len(lines)
        assert [label for label, _ in printed] == model.predict([tuple(l.split()) for l in lines])
        values = np.array([[float(v) for v in row.split(",")] for _, row in printed])
        np.testing.assert_allclose(values, probs, rtol=0, atol=1e-6)

    def test_train_with_cv_writes_report(self, corpus_file, tmp_path):
        outdir = tmp_path / "cv"
        rc = run_command([
            "train", "--input", str(corpus_file), "--output-dir", str(outdir),
            "--model", "logreg", "--cv", "3", "--seed", "2",
        ])
        assert rc == 0
        report = json.loads((outdir / "report.json").read_text())
        assert "macro_f1" in report["holdout_metrics"]
        assert (outdir / "confusion.csv").exists()

    def test_train_pretrained_vectors(self, corpus_file, tmp_path):
        vec = tmp_path / "v.vec"
        assert run_command([
            "embed", "--input", str(corpus_file), "--output", str(vec),
            "--kind", "sgns", "--dim", "6", "--epochs", "1",
        ]) == 0
        outdir = tmp_path / "run"
        rc = run_command([
            "train", "--input", str(corpus_file), "--output-dir", str(outdir),
            "--model", "convlstm", "--task", "sentiment", "--epochs", "1",
            "--seq-len", "10", "--filters", "2", "--lstm-units", "3",
            "--vectors", str(vec),
        ])
        assert rc == 0

    def test_predict_on_tampered_model_is_data_error(self, corpus_file, tmp_path,
                                                     capsys, monkeypatch):
        outdir = tmp_path / "run"
        assert run_command(["train", "--input", str(corpus_file), "--output-dir",
                            str(outdir), "--model", "logreg"]) == 0
        weights = outdir / "model" / "weights.bin"
        weights.write_bytes(weights.read_bytes() + bytes(8))
        monkeypatch.setattr("sys.stdin", _FakeStdin(["a b c\n"]))
        assert run_command(["predict", "--model-dir", str(outdir / "model")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "weights.bin holds" in captured.err

    @pytest.mark.parametrize("name, value", [("seq_len", "6"), ("seq_len", 6.0),
                                             ("kernel_sizes", ["3"]), ("peephole", 1)])
    def test_predict_on_mistyped_param_is_data_error(self, corpus_file, tmp_path, capsys,
                                                     monkeypatch, name, value):
        outdir = tmp_path / "run"
        assert run_command([
            "train", "--input", str(corpus_file), "--output-dir", str(outdir),
            "--model", "convlstm", "--task", "hate_speech", "--epochs", "1",
            "--seq-len", "10", "--emb-dim", "8", "--filters", "2",
            "--lstm-units", "3", "--seed", "0",
        ]) == 0
        path = outdir / "model" / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["params"][name] = value
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", _FakeStdin(["a b c\n"]))
        assert run_command(["predict", "--model-dir", str(outdir / "model")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"param {name!r}" in captured.err

    def test_unlabeled_corpus_is_data_error(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("just tokens here\nmore tokens\n", encoding="utf-8")
        rc = run_command(["train", "--input", str(path),
                          "--output-dir", str(tmp_path / "r"), "--model", "fasttext"])
        assert rc == 2

    @pytest.mark.parametrize("model", ["convlstm", "fasttext", "logreg", "nb", "knn"])
    def test_single_class_corpus_is_data_error(self, tmp_path, capsys, model):
        path = tmp_path / "one.tsv"
        path.write_text("A\tx y z\nA\ty z w\nA\tz w x\n", encoding="utf-8")
        outdir = tmp_path / "r"
        rc = run_command(["train", "--input", str(path), "--output-dir", str(outdir),
                          "--model", model, "--epochs", "1"])
        assert rc == 2
        assert "class" in capsys.readouterr().err
        assert not (outdir / "model").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--model", "fasttext", "--emb-dim", "0"], "dim"),
        (["--model", "fasttext", "--epochs", "-1"], "epochs"),
        (["--model", "convlstm", "--epochs", "-1"], "epochs"),
        (["--model", "convlstm", "--batch-size", "-1"], "batch_size"),
        (["--model", "convlstm", "--batch-size", "0"], "batch_size"),
        (["--model", "convlstm", "--lr", "-0.5"], "learning_rate"),
        (["--model", "logreg", "--cv", "0"], "k must be >= 2"),
    ])
    def test_bad_training_hyperparameter_is_data_error(self, corpus_file, tmp_path, capsys,
                                                       flags, message):
        outdir = tmp_path / "r"
        rc = run_command(["train", "--input", str(corpus_file), "--output-dir", str(outdir),
                          *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (outdir / "model").exists()

    @pytest.mark.parametrize("kind", ["sgns", "glove", "subword"])
    @pytest.mark.parametrize("flags, message", [
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "inf"], "learning_rate"),
        (["--lr", "1e30"], "non-finite"),
        (["--lr", "-0.5"], "learning_rate"),
        (["--epochs", "-1"], "epochs"),
    ])
    def test_bad_embedding_hyperparameter_is_data_error(self, corpus_file, tmp_path, capsys,
                                                        kind, flags, message):
        out = tmp_path / "v.vec"
        rc = run_command(["embed", "--input", str(corpus_file), "--output", str(out),
                          "--kind", kind, "--dim", "8", "--epochs", "1", *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_eval_happy_path(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("A\tx\nA\ty\nB\tz\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"labels": ["A", "B", "B"]}), encoding="utf-8")
        rc = run_command(["eval", "--gold", str(gold), "--pred", str(pred),
                          "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["holdout_metrics"]["macro_f1"] - 2 / 3) < 1e-9

    def test_eval_with_probabilities_emits_curves(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("neg\ta\npos\tb\nneg\tc\npos\td\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({
            "labels": ["neg", "pos", "neg", "pos"],
            "classes": ["neg", "pos"],
            "probabilities": [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]],
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert run_command(["eval", "--gold", str(gold), "--pred", str(pred),
                            "--output-dir", str(out)]) == 0
        assert (out / "roc.csv").exists()
        assert (out / "calibration.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["holdout_metrics"]["auc"] == 1.0

    def test_eval_three_classes_with_probabilities_emits_one_vs_rest_curves(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tx\nb\ty\nc\tz\na\tw\nb\tv\nc\tu\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({
            "labels": ["a", "b", "c", "a", "c", "c"],
            "classes": ["a", "b", "c"],
            "probabilities": [[0.8, 0.1, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7],
                              [0.6, 0.3, 0.1], [0.1, 0.4, 0.5], [0.2, 0.1, 0.7]],
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert run_command(["eval", "--gold", str(gold), "--pred", str(pred),
                            "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["roc"]["per_class"]) == ["a", "b", "c"]
        assert report["roc"]["macro_auc"] == 1.0
        rows = (out / "roc.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "x,y,class"
        assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"a", "b", "c"}
        assert not (out / "calibration.csv").exists()

    def test_eval_binary_score_vector_equals_two_columns(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("neg\ta\npos\tb\nneg\tc\npos\td\n", encoding="utf-8")
        scores = [0.25, 0.75, 0.5, 0.625]
        reports = []
        for name, probabilities in (("vector", scores),
                                    ("columns", [[1 - s, s] for s in scores])):
            pred = tmp_path / f"{name}.json"
            pred.write_text(json.dumps({"labels": ["neg", "pos", "neg", "pos"],
                                        "probabilities": probabilities}), encoding="utf-8")
            assert run_command(["eval", "--gold", str(gold), "--pred", str(pred),
                                "--output-dir", str(tmp_path / name)]) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            reports.append({k: v for k, v in report.items() if k != "config"})
        assert reports[0] == reports[1]
        assert reports[0]["holdout_metrics"]["auc"] == 1.0

    @pytest.mark.parametrize("payload, message", [
        ({"labels": ["neg", "pos", "neg", "pos"], "probabilities": [[0.1], [0.8], [0.3], [0.6]]},
         "'probabilities'"),
        ({"labels": ["neg", "pos", "neg", "pos"],
          "probabilities": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.7, 0.2, 0.1], [0.3, 0.6, 0.1]]},
         "'probabilities'"),
        ({"labels": ["neg", "pos", "neg", "pos"], "classes": ["neg", "pos", "neg"]},
         "'classes'"),
        ({"labels": "npnp"}, "'labels' list"),
        ({"labels": ["neg", "pos", "neg", "pos"], "probabilities": [0.1, None, 0.3, 0.6]},
         "NaN"),
    ], ids=["one-column", "three-columns", "repeated-class", "string-labels", "null-score"])
    def test_eval_malformed_predictions_are_data_errors(self, tmp_path, capsys, payload,
                                                         message):
        gold = tmp_path / "gold.tsv"
        gold.write_text("neg\ta\npos\tb\nneg\tc\npos\td\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = run_command(["eval", "--gold", str(gold), "--pred", str(pred),
                          "--output-dir", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_eval_mismatched_counts_is_data_error(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("A\tx\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"labels": ["A", "B"]}), encoding="utf-8")
        assert run_command(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2


class TestReportCommand:
    def test_rerender_roundtrip(self, tmp_path):
        report = EvalReport(
            classes=["a", "b"],
            holdout_metrics={"macro_f1": 0.5},
            confusion=[[1, 1], [0, 2]],
            roc={"points": [[0.0, 0.0], [0.5, 1.0], [1.0, 1.0]], "auc": 0.75},
            calibration=[[0.25, 0.2, 4], [0.75, 0.8, 4]],
            learning={"fractions": [0.5, 1.0], "train": [1.0, 0.9], "valid": [0.6, 0.8]},
        )
        src = tmp_path / "report.json"
        report.save(src)
        out = tmp_path / "rendered"
        assert run_command(["report", "--input", str(src), "--output-dir", str(out)]) == 0
        for name in ("report.json", "roc.csv", "calibration.csv",
                     "learning_curve.csv", "confusion.csv"):
            assert (out / name).exists(), name
        assert EvalReport.load(out / "report.json").to_json() == report.to_json()

    def test_write_report_only_present_curves(self, tmp_path):
        report = EvalReport(classes=["a", "b"],
                            roc={"points": [[0.0, 0.0], [1.0, 1.0]], "auc": 0.5})
        written = write_report(report, tmp_path)
        names = {p.name for p in written}
        assert names == {"report.json", "roc.csv"}

    def test_identical_reports_identical_bytes(self, tmp_path):
        report = EvalReport(classes=["x", "y"], holdout_metrics={"macro_f1": 0.25},
                            confusion=[[1, 0], [0, 1]])
        write_report(report, tmp_path / "a")
        write_report(report, tmp_path / "b")
        for name in ("report.json", "confusion.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestDeterminism:
    def test_cv_run_byte_identical(self, corpus_file, tmp_path):
        args = lambda d: [
            "train", "--input", str(corpus_file), "--output-dir", str(d),
            "--model", "fasttext", "--epochs", "3", "--cv", "3", "--seed", "42",
        ]
        assert run_command(args(tmp_path / "r1")) == 0
        assert run_command(args(tmp_path / "r2")) == 0
        for name in ("report.json", "confusion.csv", "manifest.json"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("model", ["convlstm", "fasttext", "logreg", "nb", "knn"])
    def test_saved_model_byte_identical(self, corpus_file, tmp_path, model):
        args = lambda d: [
            "train", "--input", str(corpus_file), "--output-dir", str(d),
            "--model", model, "--epochs", "1", "--seq-len", "10", "--emb-dim", "8",
            "--filters", "2", "--lstm-units", "3", "--seed", "5",
        ]
        assert run_command(args(tmp_path / "r1")) == 0
        assert run_command(args(tmp_path / "r2")) == 0
        names = sorted(p.name for p in (tmp_path / "r1" / "model").iterdir())
        assert names == ["manifest.json", "model.json", "weights.bin"]
        assert sorted(p.name for p in (tmp_path / "r2" / "model").iterdir()) == names
        for name in [f"model/{n}" for n in names] + ["manifest.json"]:
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name


# Runs CLI steps in a fresh interpreter.  argv[1] is a JSON list of
# (argv, stdin text) steps; the last stderr line is a JSON list telling whether
# scipy was imported after `import textclf.cli` and after each step.
_CHILD = """
import io, json, sys
import textclf, textclf.cli
loaded = ["scipy" in sys.modules]
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(stdin)
    if textclf.cli.run_command(argv) != 0:
        sys.exit(3)
    loaded.append("scipy" in sys.modules)
sys.stderr.write(json.dumps(loaded) + "\\n")
"""


def _cli_child(steps):
    src = str(Path(textclf.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(steps)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


class TestColdStart:
    """scipy.sparse is imported only when a TF-IDF model is built or loaded.
    The checks run in child interpreters: this process has imported scipy."""

    def test_fasttext_chain_never_imports_scipy(self, corpus_file, tmp_path):
        outdir = tmp_path / "run"
        docs = "alpha beta\ngamma\n"
        out, loaded = _cli_child([
            (["train", "--input", str(corpus_file), "--output-dir", str(outdir),
              "--model", "fasttext", "--epochs", "2", "--seed", "1"], ""),
            (["predict", "--model-dir", str(outdir / "model")], docs),
        ])
        assert loaded == [False, False, False]
        assert len(out.splitlines()) == 2

    def test_knn_imports_scipy_and_predicts_cold(self, corpus_file, tmp_path, capsys,
                                                 monkeypatch):
        outdir = tmp_path / "run"
        _, loaded = _cli_child([
            (["train", "--input", str(corpus_file), "--output-dir", str(outdir),
              "--model", "knn", "--seed", "1"], ""),
        ])
        assert loaded == [False, True]
        lines = [line.split("\t")[1] + "\n"
                 for line in corpus_file.read_text(encoding="utf-8").splitlines()[:7]]
        out, loaded = _cli_child([
            (["predict", "--model-dir", str(outdir / "model")], "".join(lines)),
        ])
        assert loaded == [False, True]
        monkeypatch.setattr("sys.stdin", _FakeStdin(lines))
        assert run_command(["predict", "--model-dir", str(outdir / "model")]) == 0
        assert out == capsys.readouterr().out
        from textclf.model import load_classifier

        model = load_classifier(outdir / "model")
        labels = model.predict([tuple(line.split()) for line in lines])
        assert [row.split("\t")[0] for row in out.splitlines()] == labels


class _FakeStdin:
    def __init__(self, lines):
        self.lines = lines

    def __iter__(self):
        return iter(self.lines)
