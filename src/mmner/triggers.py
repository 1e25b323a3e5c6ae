"""Margin triggers: the structured losses that scale the required margin
between the gold sequence and a competitor.

Three kinds. Hamming charges kappa per disagreeing position. FScore charges
kappa * (1 - sentence-level entity F1), so a competitor with the exact gold
entity set costs nothing and one with a disjoint set costs the full kappa.
Integrated adds beta times the Hamming loss to the FScore loss, which keeps a
useful gradient signal on entity-free sentences where F1 alone is blind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import TagScheme, entity_spans
from .evaluation import Counts

HAMMING = "hamming"
FSCORE = "fscore"
INTEGRATED = "integrated"
TRIGGER_KINDS = (HAMMING, FSCORE, INTEGRATED)


@dataclass(frozen=True)
class Trigger:
    """A margin-loss configuration; beta only matters for the integrated kind."""

    kind: str
    kappa: float = 0.2
    beta: float = 0.2

    def __post_init__(self):
        if self.kind not in TRIGGER_KINDS:
            kinds = ", ".join(TRIGGER_KINDS)
            raise ValueError(f"unknown trigger {self.kind!r}; pick one of {kinds}")
        if not all(math.isfinite(v) and v >= 0.0 for v in (self.kappa, self.beta)):
            raise ValueError("kappa and beta must be finite and non-negative")

    def delta(self, gold: list[int], pred: list[int], scheme: TagScheme) -> float:
        if self.kind == HAMMING:
            return hamming_delta(gold, pred, self.kappa)
        if self.kind == FSCORE:
            return fscore_delta(gold, pred, self.kappa, scheme)
        return integrated_delta(gold, pred, self.kappa, self.beta, scheme)


def _check_lengths(gold, pred):
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")


def hamming_delta(gold: list[int], pred: list[int], kappa: float) -> float:
    """kappa times the number of disagreeing positions."""
    _check_lengths(gold, pred)
    return kappa * sum(1 for a, b in zip(gold, pred) if a != b)


def sentence_f1(gold: list[int], pred: list[int], scheme: TagScheme) -> float:
    """Entity-level F1 between two label sequences of one sentence.

    Spans must match exactly in category, start and end. Both inputs are
    read by the one rule of :func:`entity_spans`, valid BIO or not.
    Degenerate conventions: both span sets empty -> 1.0, exactly one empty
    -> 0.0 (:class:`Counts`' 0-when-unsupported rule).
    """
    _check_lengths(gold, pred)
    gold_spans = set(entity_spans(gold, scheme))
    pred_spans = set(entity_spans(pred, scheme))
    if not gold_spans and not pred_spans:
        return 1.0
    tp = len(gold_spans & pred_spans)
    return Counts(tp, len(pred_spans) - tp, len(gold_spans) - tp).f1


def fscore_delta(gold: list[int], pred: list[int], kappa: float, scheme: TagScheme) -> float:
    """kappa * (1 - sentence_f1): zero at a perfect entity set, kappa at F1=0."""
    return kappa * (1.0 - sentence_f1(gold, pred, scheme))


def integrated_delta(
    gold: list[int], pred: list[int], kappa: float, beta: float, scheme: TagScheme
) -> float:
    """F-score loss plus beta-weighted Hamming loss."""
    return fscore_delta(gold, pred, kappa, scheme) + beta * hamming_delta(gold, pred, kappa)
