"""Seeded inputs for the three stages.

Everything here is the benchmark's own input generation: it is excluded
from every timing.  The same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from textclf import generate_synthetic_corpus

RESOURCES = Path(__file__).resolve().parent.parent / "src" / "textclf" / "resources"


_STAGE_KEYS = {"model": 1, "embed": 2, "chain": 3}


def _rng(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STAGE_KEYS[stage]])


def _shuffled(docs, rng):
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


@dataclass
class ModelInputs:
    train_docs: list
    train_labels: list
    heldout_docs: list
    heldout_labels: list


def model_inputs(seed: int, spec) -> ModelInputs:
    """Labelled docs for the in-process ConvLSTM stage.

    Docs are longer than ``seq_len`` so encoding truncates, as real text
    does; the vocabulary counts every token of the training docs.
    """
    n_train, n_held = spec.train_docs, spec.heldout_docs
    per_class = -(-(n_train + n_held) // spec.classes)
    ds = generate_synthetic_corpus(
        classes=spec.classes, docs_per_class=per_class,
        vocab_per_class=spec.vocab_per_class, shared_vocab=spec.shared_vocab,
        doc_len=spec.doc_len, zipf_exponent=1.0, seed=seed,
    )
    docs = _shuffled(ds.documents, _rng(seed, "model"))
    train, held = docs[:n_train], docs[n_train:n_train + n_held]
    return ModelInputs(
        [d.tokens for d in train], [d.label for d in train],
        [d.tokens for d in held], [d.label for d in held],
    )


def embed_inputs(seed: int, spec) -> list:
    """Zipf corpus with class-private vocabularies for the embedding stage."""
    ds = generate_synthetic_corpus(
        classes=spec.classes, docs_per_class=spec.docs_per_class,
        vocab_per_class=spec.vocab_per_class, shared_vocab=spec.shared_vocab,
        doc_len=spec.doc_len, zipf_exponent=1.0, seed=seed,
    )
    return _shuffled(ds.documents, _rng(seed, "embed"))


# -- the noisy raw corpus of the CLI chain ------------------------------------


def _lines(name: str) -> list[str]:
    text = (RESOURCES / name).read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip()]


@dataclass
class NoiseTables:
    """Entries of the packaged resources that the noise may use.

    A stopword or hashtag word is only used if no suffix rule can strip
    it, so the expected output does not depend on stemming them.
    """

    suffixes: list  # (suffix, replacement)
    stopwords: list
    hashtag_words: list
    hashtag_pairs: list

    @classmethod
    def load(cls) -> "NoiseTables":
        suffixes = []
        for line in _lines("suffix_rules.tsv"):
            parts = line.split("\t")
            suffixes.append((parts[0], parts[1] if len(parts) > 1 else ""))
        stop = set(_lines("stopwords.txt"))

        def unstemmable(word):
            return not any(len(word) > len(s) and word.endswith(s) for s, _ in suffixes)

        lexicon = sorted({w.lower() for w in _lines("hashtag_lexicon.txt")})
        words = [w for w in lexicon if unstemmable(w) and w not in stop]
        # greedy longest-prefix segmentation splits w1+w2 back into (w1, w2)
        # exactly when no longer lexicon word is a prefix of w1+w2
        pairs = [
            (a, b) for a in words for b in words
            if not any(len(w) > len(a) and (a + b).startswith(w) for w in lexicon)
        ]
        return cls(suffixes, sorted(w for w in stop if unstemmable(w)), words, pairs)


_MARKUP = ("<b>{}</b>", "<i>{}</i>", "<span class='x'>{}</span>")
_PUNCT = ("{},", "{}.", "{}!", "{}?", "({})", "\"{}\"", "{};", "{}…", "«{}»")
_EXTRA = ("url", "number", "stopword", "hashtag", "tag")


@dataclass
class ChainInputs:
    raw_lines: list  # "label<TAB>text"
    expected: list  # token tuples before the min-df prune
    labels: list
    heldout: list  # indices of held-out docs, in file order


def chain_inputs(seed: int, spec, tables: NoiseTables) -> ChainInputs:
    """Raw corpus whose normalised tokens are known before preprocessing.

    Documents are built from generated tokens; then markup, URLs, digits,
    punctuation, stopwords, hashtags of lexicon words and rule suffixes
    are injected.  ``expected`` holds the tokens the pipeline must give
    back: the generated tokens (a suffixed one as its stem plus the rule's
    replacement) with each hashtag replaced by its lexicon words.
    """
    rng = _rng(seed, "chain")
    n_docs = spec.train_docs + spec.heldout_docs
    per_class = -(-n_docs // spec.classes)
    ds = generate_synthetic_corpus(
        classes=spec.classes, docs_per_class=per_class,
        vocab_per_class=spec.vocab_per_class, shared_vocab=spec.shared_vocab,
        doc_len=spec.doc_len, zipf_exponent=1.0, seed=seed,
    )
    docs = _shuffled(ds.documents, rng)[:n_docs]
    stop = set(tables.stopwords)
    raw_lines, expected, labels = [], [], []
    for doc in docs:
        pieces, tokens = [], []
        for token in doc.tokens:
            if token in stop or any(token.endswith(s) for s, _ in tables.suffixes):
                raise ValueError(f"generated token {token!r} collides with a resource")
            r = rng.random()
            if r < 0.08:
                suffix, replacement = tables.suffixes[rng.integers(len(tables.suffixes))]
                pieces.append(token + suffix)
                tokens.append(token + replacement)
                continue
            if r < 0.14:
                pieces.append(_MARKUP[rng.integers(len(_MARKUP))].format(token))
            elif r < 0.22:
                pieces.append(_PUNCT[rng.integers(len(_PUNCT))].format(token))
            elif r < 0.26:
                pieces.append(f"{token}{rng.integers(10, 10000)}")
            else:
                pieces.append(token)
            tokens.append(token)
            if rng.random() < 0.12:
                kind = _EXTRA[rng.integers(len(_EXTRA))]
                if kind == "url":
                    pieces.append(f"https://www.example.org/p/{rng.integers(1000)}?q=a-b")
                elif kind == "number":
                    pieces.append(str(rng.integers(0, 100000)))
                elif kind == "stopword":
                    pieces.append(tables.stopwords[rng.integers(len(tables.stopwords))])
                elif kind == "tag":
                    pieces.append("<br/>")
                elif rng.random() < 0.5:
                    word = tables.hashtag_words[rng.integers(len(tables.hashtag_words))]
                    pieces.append("#" + (word.upper() if rng.random() < 0.3 else word))
                    tokens.append(word)
                else:
                    a, b = tables.hashtag_pairs[rng.integers(len(tables.hashtag_pairs))]
                    pieces.append(f"#{a}{b}")
                    tokens.extend((a, b))
        raw_lines.append(f"{doc.label}\t{' '.join(pieces)}")
        expected.append(tuple(tokens))
        labels.append(doc.label)
    heldout = sorted(rng.choice(n_docs, size=spec.heldout_docs, replace=False).tolist())
    return ChainInputs(raw_lines, expected, labels, heldout)


def roundtrip_inputs():
    """Fixed labelled docs and query lines for the logreg save/load round trip.

    They do not depend on the run's seed, so the known float32-checkpoint
    fault fails this operation on every run.
    """
    train = generate_synthetic_corpus(classes=3, docs_per_class=30, vocab_per_class=25,
                                      shared_vocab=10, doc_len=20, seed=0)
    query = generate_synthetic_corpus(classes=3, docs_per_class=8, vocab_per_class=25,
                                      shared_vocab=10, doc_len=20, seed=1)
    return ([(d.label, d.tokens) for d in train.documents],
            [d.tokens for d in query.documents])
