"""Vocabulary construction, integer encoding, dataset splitting, corpus
statistics, and synthetic corpus generation for desk-scale experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .base import check_random_state
from .pipeline import TokenizedDocument

__all__ = [
    "EmptyVocabularyError",
    "StratificationError",
    "Vocabulary",
    "LabeledDataset",
    "FoldAssignment",
    "build_vocabulary",
    "encode_document",
    "decode_ids",
    "stratified_kfold",
    "stratified_holdout",
    "zipf_fit",
    "generate_synthetic_corpus",
    "save_fold_assignment",
]

PAD_ID = 0


class EmptyVocabularyError(ValueError):
    """No token survived the document-frequency threshold."""


class StratificationError(ValueError):
    """A class has too few members for the requested fold count."""


class Vocabulary:
    """Bidirectional token<->id table with corpus and document frequencies.

    Ids run 1..V with no gaps; id 0 is reserved for padding and maps to
    no token.  Ids are assigned by descending corpus frequency with ties
    broken lexicographically.
    """

    def __init__(self, tokens, corpus_frequency, document_frequency):
        self.id_to_token = {i + 1: t for i, t in enumerate(tokens)}
        self.token_to_id = {t: i + 1 for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.corpus_frequency = {
            self.token_to_id[t]: corpus_frequency[t] for t in tokens
        }
        self.document_frequency = {
            self.token_to_id[t]: document_frequency[t] for t in tokens
        }

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """A saved vocabulary with ids in ``tokens`` order; its synthetic
        frequencies only preserve that order."""
        return cls(tokens, {t: len(tokens) - i for i, t in enumerate(tokens)},
                   {t: 1 for t in tokens})

    def __len__(self):
        return len(self.token_to_id)

    def __contains__(self, token):
        return token in self.token_to_id

    @property
    def tokens(self):
        return [self.id_to_token[i] for i in range(1, len(self) + 1)]

    def frequencies_array(self) -> np.ndarray:
        """Corpus frequencies indexed by id; entry 0 (pad) is zero."""
        out = np.zeros(len(self) + 1, dtype=np.int64)
        for i, f in self.corpus_frequency.items():
            out[i] = f
        return out


def tokens_of(doc) -> Sequence[str]:
    """The tokens of a TokenizedDocument, or the document itself when it is
    a bare token sequence."""
    return doc.tokens if hasattr(doc, "tokens") else doc


def build_vocabulary(docs, min_df: int = 1) -> Vocabulary:
    """Build a Vocabulary from tokens with document frequency >= min_df;
    ``docs`` are TokenizedDocuments or bare token sequences."""
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    docs = list(docs)
    cf: dict[str, int] = {}
    df: dict[str, int] = {}
    for doc in docs:
        tokens = tokens_of(doc)
        for token in tokens:
            cf[token] = cf.get(token, 0) + 1
        for token in set(tokens):
            df[token] = df.get(token, 0) + 1
    surviving = [t for t in cf if df[t] >= min_df]
    if not surviving:
        raise EmptyVocabularyError(
            f"no token has document frequency >= {min_df} over {len(docs)} documents"
        )
    surviving.sort(key=lambda t: (-cf[t], t))
    return Vocabulary(surviving, cf, df)


def encode_document(tokens: Sequence[str], vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Map tokens to ids, drop unknowns, truncate to max_len, right-pad with 0."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = list(islice((vocab.token_to_id[t] for t in tokens if t in vocab.token_to_id), max_len))
    out = np.zeros(max_len, dtype=np.int64)
    out[: len(ids)] = ids
    return out


def decode_ids(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    """Inverse of encode_document over the nonzero prefix."""
    tokens = []
    for i in ids:
        if i == PAD_ID:
            break
        tokens.append(vocab.id_to_token[int(i)])
    return tokens


@dataclass
class LabeledDataset:
    """Documents plus the ordered, duplicate-free list of class names."""

    documents: list[TokenizedDocument]
    classes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.classes:
            self.classes = sorted({d.label for d in self.documents if d.label is not None})
        if not self.classes:
            raise ValueError("dataset has no classes")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class names")
        known = set(self.classes)
        for doc in self.documents:
            if doc.label not in known:
                raise ValueError(f"document {doc.id!r} has unknown label {doc.label!r}")

    def __len__(self):
        return len(self.documents)

    @property
    def labels(self) -> list[str]:
        return [d.label for d in self.documents]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset([self.documents[i] for i in indices], list(self.classes))


@dataclass
class FoldAssignment:
    """Stratified fold index per document, reproducible from the seed."""

    k: int
    folds: np.ndarray
    seed: int

    def indices_of(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.folds == fold)

    def complement_of(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.folds != fold)


def stratified_kfold(ds: LabeledDataset, k: int, seed: int) -> FoldAssignment:
    """Assign each document to one of k folds, balanced within each class.

    Per-class counts across folds differ by at most one; assignment is a
    pure function of the dataset order and the seed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    by_class: dict[str, list[int]] = {c: [] for c in ds.classes}
    for i, doc in enumerate(ds.documents):
        by_class[doc.label].append(i)
    for cls in ds.classes:
        if len(by_class[cls]) < k:
            raise StratificationError(
                f"class {cls!r} has {len(by_class[cls])} members, needs >= {k}"
            )
    rng = check_random_state(seed)
    folds = np.full(len(ds.documents), -1, dtype=np.int64)
    offset = 0
    for cls in ds.classes:
        members = np.array(by_class[cls], dtype=np.int64)
        rng.shuffle(members)
        for j, doc_index in enumerate(members):
            folds[doc_index] = (j + offset) % k
        # rotate the starting fold so total fold sizes stay balanced
        offset = (offset + len(members)) % k
    return FoldAssignment(k=k, folds=folds, seed=seed)


def stratified_holdout(
    ds: LabeledDataset, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into (train, heldout), preserving class proportions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = check_random_state(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in ds.classes:
        members = np.array(
            [i for i, d in enumerate(ds.documents) if d.label == cls], dtype=np.int64
        )
        rng.shuffle(members)
        n_test = int(round(test_fraction * len(members)))
        n_test = min(max(n_test, 1), len(members) - 1)
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def zipf_fit(vocab: Vocabulary) -> tuple[float, float, float]:
    """Least-squares fit of log frequency against log rank.

    Ranks are 1-based by descending corpus frequency (the vocabulary's id
    order).  Returns (slope, intercept, r_squared).
    """
    if len(vocab) < 3:
        raise ValueError(f"zipf_fit needs >= 3 tokens, got {len(vocab)}")
    freqs = np.array(
        [vocab.corpus_frequency[i] for i in range(1, len(vocab) + 1)], dtype=np.float64
    )
    x = np.log(np.arange(1, len(vocab) + 1, dtype=np.float64))
    y = np.log(freqs)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    syy = float(((y - ym) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate rank axis")
    slope = sxy / sxx
    intercept = ym - slope * xm
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, intercept, r2


def _letters(n: int) -> str:
    """Digit-free base-26 token spelling: 0 -> a, 25 -> z, 26 -> ba, ..."""
    if n == 0:
        return "a"
    out = []
    while n:
        out.append(chr(ord("a") + n % 26))
        n //= 26
    return "".join(reversed(out))


def generate_synthetic_corpus(
    classes: int,
    docs_per_class: int,
    vocab_per_class: int,
    shared_vocab: int,
    doc_len: int,
    zipf_exponent: float = 1.0,
    seed: int = 0,
) -> LabeledDataset:
    """Zipf-weighted synthetic labeled corpus with per-class vocabularies.

    Each class owns ``vocab_per_class`` private tokens and additionally
    draws from ``shared_vocab`` tokens common to all classes; the combined
    list (private first) is weighted proportional to 1/rank^exponent.
    Token strings are lowercase letters only, so they pass through the
    normalization pipeline unchanged.
    """
    for name, value in [
        ("classes", classes),
        ("docs_per_class", docs_per_class),
        ("vocab_per_class", vocab_per_class),
        ("doc_len", doc_len),
    ]:
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if shared_vocab < 0:
        raise ValueError(f"shared_vocab must be >= 0, got {shared_vocab}")
    rng = check_random_state(seed)
    shared = [f"sh{_letters(i)}" for i in range(shared_vocab)]
    documents = []
    class_names = [f"class{_letters(c)}" for c in range(classes)]
    for c, cls in enumerate(class_names):
        private = [f"{_letters(c)}x{_letters(i)}" for i in range(vocab_per_class)]
        pool = private + shared
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks ** (-zipf_exponent)
        weights /= weights.sum()
        for d in range(docs_per_class):
            draw = rng.choice(len(pool), size=doc_len, p=weights)
            tokens = tuple(pool[i] for i in draw)
            documents.append(
                TokenizedDocument(id=f"{cls}-{d}", tokens=tokens, label=cls)
            )
    return LabeledDataset(documents, class_names)


def save_fold_assignment(assignment: FoldAssignment, ds: LabeledDataset, path) -> None:
    """Export folds as CSV "doc_id,fold"."""
    lines = ["doc_id,fold"]
    for doc, fold in zip(ds.documents, assignment.folds):
        lines.append(f"{doc.id},{int(fold)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
