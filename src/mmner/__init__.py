"""Max-margin BiLSTM sequence labeling for Chinese social media NER.

A character-level bidirectional LSTM scores label emissions, a learned
transition matrix scores label pairs, and training maximizes a structured
margin whose size comes from a configurable trigger: per-position Hamming
cost, sentence-level entity F-score cost, or their beta-weighted mix.
"""

from .corpus import (
    MODE_POSITIONAL,
    MODE_SEGFEAT,
    CorpusError,
    EntitySpan,
    Sentence,
    TagScheme,
    Vocab,
    build_vocab,
    encode_corpus,
    entities_from_labels,
    labels_from_entities,
    load_segmentation,
    parse_conll,
    repair_bio,
    vocab_sources,
)
from .embeddings import EmbeddingFormatError, EmbeddingTable, InputAssembly, load_pretrained
from .evaluation import EvalReport, evaluate, render_report, token_accuracy
from .model import ModelMeta, ModelParams, init_params
from .network import EmissionMatrix, LstmParams, ProjectionParams, emissions
from .structured import ScoredSequence, beam_topk, sentence_score, viterbi
from .synthetic import synthetic_corpus, tiny_instance, to_conll
from .training import (
    ModelIOError,
    ModelShapeError,
    ModelTruncatedError,
    ModelVersionError,
    TrainConfig,
    TrainingDivergedError,
    finite_difference_check,
    instance_loss,
    load_model,
    loss_augmented_predict,
    predict_all,
    predict_labels,
    save_model,
    sgd_step,
    train,
)
from .triggers import Trigger, fscore_delta, hamming_delta, integrated_delta, sentence_f1

__version__ = "0.1.0"
