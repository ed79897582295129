"""Stage sizes of each workload.

Every workload runs the same three stages, because every run reports all
end-to-end metrics.  A workload sets the size of the model and chain
stages: its named stage runs at full size and the other at companion
size.  The embed stage has one size, large enough that its fits outlast
short-term noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelSpec:
    """In-process ConvLstmClassifier: set-up, training, predict_proba."""

    classes: int
    train_docs: int
    heldout_docs: int  # predicted in calls of ``batch`` docs
    vocab_per_class: int
    shared_vocab: int
    doc_len: int
    emb_dim: int
    filters: int
    lstm_units: int
    epochs: int
    seq_len: int = 100
    batch: int = 128
    learning_rate: float = 0.01
    setup_reps: int = 3
    reference_docs: int = 4


@dataclass(frozen=True)
class EmbedSpec:
    """SkipGram, Subword and GloVe fits at the CLI's embed defaults."""

    classes: int
    docs_per_class: int
    vocab_per_class: int
    shared_vocab: int
    doc_len: int
    dim: int = 100
    window: int = 5
    negatives: int = 10
    epochs: int = 5
    learning_rate: float = 0.025


@dataclass(frozen=True)
class ChainSpec:
    """CLI chain: preprocess, embed, train x4, predict x4, eval."""

    classes: int
    train_docs: int
    heldout_docs: int
    vocab_per_class: int
    shared_vocab: int
    doc_len: int
    slice_docs: int  # docs of the train file the embed step sees
    convlstm_epochs: int
    fasttext_epochs: int
    min_df: int = 5
    embed_epochs: int = 1
    repeats: int = 3  # runs of each step a metric is taken from; the median counts
    roundtrip: bool = False  # the logreg save/load comparison


@dataclass(frozen=True)
class Workload:
    model: ModelSpec
    embed: EmbedSpec
    chain: ChainSpec


PAPER_MODEL = ModelSpec(classes=4, train_docs=128, heldout_docs=384, vocab_per_class=1500,
                        shared_vocab=400, doc_len=300, emb_dim=300, filters=100,
                        lstm_units=100, epochs=3)
SMALL_MODEL = ModelSpec(classes=4, train_docs=128, heldout_docs=512, vocab_per_class=300,
                        shared_vocab=100, doc_len=60, emb_dim=100, filters=32,
                        lstm_units=32, epochs=3)
EMBED = EmbedSpec(classes=4, docs_per_class=12, vocab_per_class=30, shared_vocab=20,
                  doc_len=30)
FULL_CHAIN = ChainSpec(classes=3, train_docs=640, heldout_docs=240, vocab_per_class=300,
                       shared_vocab=100, doc_len=30, slice_docs=60, convlstm_epochs=1,
                       fasttext_epochs=2, roundtrip=True)
SMALL_CHAIN = replace(FULL_CHAIN, train_docs=256, heldout_docs=96, fasttext_epochs=1,
                      roundtrip=False)

WORKLOADS = {
    "convlstm-paper": Workload(PAPER_MODEL, EMBED, SMALL_CHAIN),
    "cli-chain": Workload(SMALL_MODEL, EMBED, FULL_CHAIN),
}


def smoke(workload: Workload) -> Workload:
    """A reduced-size copy for the fast tests; every check still runs."""
    model = replace(workload.model, train_docs=16, heldout_docs=16, batch=8, epochs=4,
                    learning_rate=0.05,
                    vocab_per_class=40, shared_vocab=10, doc_len=30, seq_len=24,
                    emb_dim=12, filters=4, lstm_units=4, setup_reps=1, reference_docs=2)
    embed = replace(workload.embed, docs_per_class=8, vocab_per_class=10, shared_vocab=4,
                    doc_len=12, dim=16, epochs=3, learning_rate=0.1)
    chain = replace(workload.chain, train_docs=60, heldout_docs=24, vocab_per_class=30,
                    shared_vocab=10, doc_len=15, slice_docs=10, min_df=2, repeats=2)
    return Workload(model, embed, chain)
