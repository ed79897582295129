"""Command-line workbench: preprocess, embed, train, eval, predict, report.

Exit codes: 0 success, 1 usage error, 2 data or validation error.  Every
run writes a manifest echoing the resolved configuration, the seeds, and
sha256 hashes of the artifacts it produced.  Values resolve with the
precedence flags > --config file > defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .base import ConfigurationError
from .corpus import LabeledDataset
from .embeddings import (
    GloveEmbedding,
    SkipGramEmbedding,
    SubwordEmbedding,
    load_word_vectors,
    save_word_vectors,
)
from .eval import EvalReport, _report, cross_validate
from .model import ConvLstmClassifier, FastTextClassifier, TfidfClassifier, load_classifier
from .pipeline import (
    PipelineConfig,
    load_raw_documents,
    load_tokenized_documents,
    preprocess_corpus,
    save_tokenized_documents,
)

__all__ = ["run_command", "write_report", "main"]

TASK_PRESETS = {
    "doc_classification": {"seq_len": 300, "loss_kind": "categorical"},
    "hate_speech": {"seq_len": 100, "loss_kind": "categorical"},
    "sentiment": {"seq_len": 100, "loss_kind": "binary"},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(directory: Path, command: str, config: dict, seeds: dict,
                    artifacts: list) -> Path:
    names = {}
    for p in artifacts:
        try:
            names[str(p.relative_to(directory))] = _sha256(p)
        except ValueError:
            names[str(p)] = _sha256(p)
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "artifacts": names,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def _format_float(x: float) -> str:
    return format(float(x), ".12g")


def write_report(report: EvalReport, directory) -> list:
    """Emit report.json plus CSVs for whichever curves are present.

    Keys are sorted and floats formatted identically across runs, so two
    equal reports produce byte-identical files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = directory / "report.json"
    report.save(report_path)
    written.append(report_path)

    if report.confusion:
        lines = ["class," + ",".join(str(c) for c in report.classes)]
        for cls, row in zip(report.classes, report.confusion):
            lines.append(f"{cls}," + ",".join(str(int(v)) for v in row))
        path = directory / "confusion.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    if report.roc is not None:
        lines = []
        if "points" in report.roc:
            lines.append("x,y")
            for x, y in report.roc["points"]:
                lines.append(f"{_format_float(x)},{_format_float(y)}")
        else:
            lines.append("x,y,class")
            for cls in sorted(report.roc["per_class"]):
                for x, y in report.roc["per_class"][cls]["points"]:
                    lines.append(f"{_format_float(x)},{_format_float(y)},{cls}")
        path = directory / "roc.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    if report.calibration is not None:
        lines = ["x,y,count"]
        for x, y, count in report.calibration:
            lines.append(f"{_format_float(x)},{_format_float(y)},{int(count)}")
        path = directory / "calibration.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    if report.learning is not None:
        lines = ["x,y_train,y_validation"]
        for x, yt, yv in zip(report.learning["fractions"], report.learning["train"],
                             report.learning["valid"]):
            lines.append(f"{_format_float(x)},{_format_float(yt)},{_format_float(yv)}")
        path = directory / "learning_curve.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve option values: explicit flags > config file > defaults."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {config_path}: {exc}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys {sorted(unknown)}; known: {sorted(defaults)}"
            )
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _build_parser() -> _Parser:
    parser = _Parser(prog="textclf", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("preprocess", help="normalize a raw corpus into tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--stopwords", dest="stopword_path")
    p.add_argument("--suffix-rules", dest="suffix_rules_path")
    p.add_argument("--hashtag-lexicon", dest="hashtag_lexicon_path")
    p.add_argument("--min-df", dest="min_doc_frequency", type=int)
    p.add_argument("--use-lemmas", dest="use_lemmas", action="store_const", const=True)
    p.add_argument("--keep-markup", dest="strip_markup", action="store_const", const=False)
    p.add_argument("--keep-digits", dest="remove_digits_and_specials",
                   action="store_const", const=False)

    p = sub.add_parser("embed", help="train word vectors from a tokenized corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--kind", choices=["sgns", "glove", "subword"])
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="fit a classifier (optionally cross-validated)")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--model", choices=["convlstm", "fasttext", "logreg", "nb", "knn"])
    p.add_argument("--task", choices=sorted(TASK_PRESETS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--emb-dim", dest="emb_dim", type=int)
    p.add_argument("--filters", dest="filters_per_channel", type=int)
    p.add_argument("--lstm-units", dest="lstm_units", type=int)
    p.add_argument("--vectors", help="pretrained vector file for the embedding layer")
    p.add_argument("--freeze-embeddings", dest="freeze_embeddings",
                   action="store_const", const=True)
    p.add_argument("--cv", type=int, help="run k-fold cross-validation and write a report")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--output-dir")

    p = sub.add_parser("predict", help="classify documents from standard input")
    p.add_argument("--model-dir", required=True)

    p = sub.add_parser("report", help="re-render report artifacts from report.json")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    return parser


def _cmd_preprocess(args) -> int:
    defaults = {
        "strip_markup": True,
        "remove_digits_and_specials": True,
        "hashtag_lexicon_path": None,
        "suffix_rules_path": None,
        "stopword_path": None,
        "min_doc_frequency": 5,
        "use_lemmas": False,
    }
    config = _merge_config(args, defaults)
    cfg = PipelineConfig(**config)
    docs = load_raw_documents(args.input)
    tokenized = preprocess_corpus(docs, cfg)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    save_tokenized_documents(tokenized, output)
    _write_manifest(output.parent, "preprocess",
                    {**config, "input": str(args.input), "output": str(output)},
                    {}, [output])
    return 0


_EMBED_KINDS = {"sgns": SkipGramEmbedding, "glove": GloveEmbedding,
                "subword": SubwordEmbedding}


def _cmd_embed(args) -> int:
    defaults = {
        "kind": "sgns", "dim": 100, "window": 5, "negatives": 10, "epochs": 5,
        "learning_rate": 0.025, "min_df": 1, "seed": 0,
    }
    config = _merge_config(args, defaults)
    docs = load_tokenized_documents(args.input)
    kind = config.pop("kind")
    maker = _EMBED_KINDS[kind]
    params = dict(config)
    if kind == "glove":
        params.pop("negatives")
    estimator = maker(**params)
    estimator.fit(docs)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    save_word_vectors(estimator.model_, output)
    _write_manifest(output.parent, "embed",
                    {**config, "kind": kind, "input": str(args.input),
                     "output": str(output)},
                    {"seed": config["seed"]}, [output])
    return 0


def _make_trainer(config: dict, embeddings):
    model = config["model"]
    if model == "convlstm":
        def make():
            return ConvLstmClassifier(
                seq_len=config["seq_len"], emb_dim=config["emb_dim"],
                filters_per_channel=config["filters_per_channel"],
                lstm_units=config["lstm_units"],
                loss_kind=config["loss_kind"],
                embedding_init="pretrained" if embeddings is not None else "random",
                freeze_embeddings=config["freeze_embeddings"],
                embeddings=embeddings,
                epochs=config["epochs"], batch_size=config["batch_size"],
                learning_rate=config["learning_rate"], seed=config["seed"],
            )
    elif model == "fasttext":
        def make():
            return FastTextClassifier(
                dim=config["emb_dim"], epochs=config["epochs"],
                learning_rate=config["learning_rate"], seed=config["seed"],
            )
    else:
        kind = {"logreg": "logreg", "nb": "multinomial_nb", "knn": "knn"}[model]
        def make():
            return TfidfClassifier(kind=kind, seed=config["seed"])
    return make


def _cmd_train(args) -> int:
    defaults = {
        "model": "convlstm", "task": "doc_classification", "epochs": 5,
        "batch_size": 128, "learning_rate": 0.05, "seq_len": None, "emb_dim": 100,
        "filters_per_channel": 32, "lstm_units": 32, "vectors": None,
        "freeze_embeddings": False, "cv": None, "seed": 0,
    }
    config = _merge_config(args, defaults)
    preset = TASK_PRESETS[config["task"]]
    if config["seq_len"] is None:
        config["seq_len"] = preset["seq_len"]
    config["loss_kind"] = preset["loss_kind"]

    docs = load_tokenized_documents(args.input)
    if any(d.label is None for d in docs):
        raise ValueError(f"{args.input}: training needs 'label<TAB>text' lines")
    dataset = LabeledDataset(docs)
    if config["loss_kind"] == "binary" and len(dataset.classes) != 2:
        raise ValueError(
            f"task {config['task']} is binary but corpus has {len(dataset.classes)} classes"
        )
    embeddings = None
    if config["vectors"]:
        embeddings = load_word_vectors(config["vectors"])
        config["emb_dim"] = embeddings.dim
    trainer = _make_trainer(config, embeddings)

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    seeds = {"seed": config["seed"]}

    if config["cv"] is not None:
        report = cross_validate(
            trainer, dataset, k=config["cv"], seed=config["seed"],
            config_echo={k: v for k, v in config.items() if k != "cv"},
        )
        artifacts.extend(write_report(report, output_dir))
    else:
        model = trainer()
        model.fit([d.tokens for d in dataset.documents],
                  [d.label for d in dataset.documents])
        model_dir = output_dir / "model"
        model.save(model_dir)
        artifacts.extend(sorted(model_dir.iterdir()))
    manifest_config = {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}
    manifest_config["input"] = str(args.input)
    _write_manifest(output_dir, "train", manifest_config, seeds, artifacts)
    return 0


def _cmd_eval(args) -> int:
    gold_docs = load_tokenized_documents(args.gold)
    if any(d.label is None for d in gold_docs):
        raise ValueError(f"{args.gold}: gold file needs 'label<TAB>text' lines")
    gold = [d.label for d in gold_docs]
    try:
        payload = json.loads(Path(args.pred).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read predictions {args.pred}: {exc}")
    pred = payload.get("labels") if isinstance(payload, dict) else None
    if not isinstance(pred, list):
        raise ValueError(f"{args.pred}: predictions JSON needs a 'labels' list")
    if len(pred) != len(gold):
        raise ValueError(
            f"{len(gold)} gold labels but {len(pred)} predictions"
        )
    classes = payload.get("classes") or sorted(set(gold) | set(pred))
    if len(set(classes)) != len(classes):
        raise ValueError(f"{args.pred}: 'classes' must be distinct, got {classes}")
    probs = payload.get("probabilities")
    if probs is not None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim == 1 and len(classes) == 2:
            probs = np.stack([1.0 - probs, probs], axis=1)
        if probs.shape != (len(gold), len(classes)):
            raise ValueError(
                f"{args.pred}: 'probabilities' needs {len(gold)} rows of {len(classes)} "
                f"columns in 'classes' order, got shape {probs.shape}"
            )
    report = _report(gold, pred, classes, probs,
                     config={"gold": str(args.gold), "pred": str(args.pred)})
    output_dir = Path(args.output_dir) if args.output_dir else Path(args.pred).parent
    artifacts = write_report(report, output_dir)
    _write_manifest(output_dir, "eval",
                    {"gold": str(args.gold), "pred": str(args.pred)}, {}, artifacts)
    return 0


# documents per forward pass, so predict memory does not grow with the input
PREDICT_CHUNK = 256


def _cmd_predict(args) -> int:
    model = load_classifier(args.model_dir)
    classes = model.classes_
    lines = iter(sys.stdin)
    while True:
        docs = [tuple(line.split()) for line in itertools.islice(lines, PREDICT_CHUNK)]
        if not docs:
            return 0
        for row in model.predict_proba(docs):
            label = classes[int(np.argmax(row))]
            values = ",".join(_format_float(v) for v in row)
            sys.stdout.write(f"{label}\t{values}\n")


def _cmd_report(args) -> int:
    report = EvalReport.load(args.input)
    output_dir = Path(args.output_dir)
    artifacts = write_report(report, output_dir)
    _write_manifest(output_dir, "report", {"input": str(args.input)}, {}, artifacts)
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "embed": _cmd_embed,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.subcommand](args)
    except (_UsageError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, ConfigurationError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
