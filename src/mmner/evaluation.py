"""Entity-level evaluation: per-group precision/recall/F1 over named and
nominal mentions, overall micro-F1 from summed counts, and OOV recall over
gold entities whose surface never occurs as a training gold entity surface."""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Sentence, TagScheme, entities_from_labels, entity_spans

GROUP_OF_KIND = {"NAM": "named", "NOM": "nominal"}
GROUPS = ("named", "nominal")


def group_of(category: str) -> str:
    kind = TagScheme.kind_of(category)
    return GROUP_OF_KIND.get(kind, kind.lower())


@dataclass
class Counts:
    """Match counts; the derived metrics use the 0-when-unsupported convention."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    groups: dict[str, Counts] = field(default_factory=dict)
    overall: Counts = field(default_factory=Counts)
    oov_hit: int = 0
    oov_total: int = 0
    oov_known: bool = False

    @property
    def overall_f1(self) -> float:
        return self.overall.f1

    @property
    def oov_recall(self) -> float:
        return self.oov_hit / self.oov_total if self.oov_total else 0.0


def gold_entity_surfaces(sentences: list[Sentence], scheme: TagScheme) -> set[str]:
    """Surface strings of every gold entity in a corpus."""
    surfaces: set[str] = set()
    for sent in sentences:
        if sent.gold_labels is None:
            continue
        for span in entities_from_labels(sent.gold_labels, scheme):
            surfaces.add("".join(sent.tokens[span.start:span.end]))
    return surfaces


def token_accuracy(gold: list[list[int]], predicted: list[list[int]]) -> float:
    """Fraction of positions whose labels agree."""
    if len(gold) != len(predicted):
        raise ValueError("sentence count mismatch")
    agree = total = 0
    for g, p in zip(gold, predicted):
        if len(g) != len(p):
            raise ValueError("sentence length mismatch")
        agree += sum(1 for a, b in zip(g, p) if a == b)
        total += len(g)
    if total == 0:
        raise ValueError("no positions to score")
    return agree / total


def evaluate(
    gold_sentences: list[Sentence],
    predicted: list[list[int]],
    scheme: TagScheme,
    train_surfaces: set[str] | None = None,
) -> EvalReport:
    """Exact-span evaluation of predictions against gold sentences.

    Gold labels must be valid BIO; predictions are read by the one rule of
    :func:`entity_spans`. With a set of training gold entity surfaces, OOV
    recall is computed over gold entities whose surface string is absent
    from it; without one the OOV fields stay unknown and render as "-".
    """
    if len(gold_sentences) != len(predicted):
        raise ValueError("sentence count mismatch")
    report = EvalReport(groups={g: Counts() for g in GROUPS})
    report.oov_known = train_surfaces is not None
    for sent, pred in zip(gold_sentences, predicted):
        if sent.gold_labels is None:
            raise ValueError("sentence has no gold labels")
        if len(pred) != len(sent):
            raise ValueError("sentence length mismatch")
        gold_spans = set(entities_from_labels(sent.gold_labels, scheme))
        pred_spans = set(entity_spans(pred, scheme))
        for span in gold_spans | pred_spans:
            counts = report.groups.setdefault(group_of(span.category), Counts())
            in_gold, in_pred = span in gold_spans, span in pred_spans
            if in_gold and in_pred:
                counts.tp += 1
            elif in_pred:
                counts.fp += 1
            else:
                counts.fn += 1
        if train_surfaces is not None:
            for span in gold_spans:
                surface = "".join(sent.tokens[span.start:span.end])
                if surface not in train_surfaces:
                    report.oov_total += 1
                    if span in pred_spans:
                        report.oov_hit += 1
    for counts in report.groups.values():
        report.overall.tp += counts.tp
        report.overall.fp += counts.fp
        report.overall.fn += counts.fn
    return report


def render_report(report: EvalReport, tsv: bool = False) -> str:
    """The report as an aligned table, or as tab-separated lines with tsv."""
    rows = [(name.capitalize(), report.groups[name]) for name in sorted(report.groups)]
    rows.append(("Overall", report.overall))
    oov = f"{report.oov_recall:.4f}" if report.oov_known else "-"
    if tsv:
        lines = [
            "\t".join(
                (name.lower(), str(c.tp), str(c.fp), str(c.fn),
                 f"{c.precision:.4f}", f"{c.recall:.4f}", f"{c.f1:.4f}")
            )
            for name, c in rows
        ]
        lines.append("\t".join(("oov", oov, str(report.oov_total if report.oov_known else "-"))))
        return "\n".join(lines)
    width = max(len("OOV recall"), *(len(name) for name, _ in rows)) + 2
    lines = [f"{'':<{width}}Precision  Recall     F1"]
    for name, c in rows:
        lines.append(f"{name:<{width}}{c.precision:<11.4f}{c.recall:<11.4f}{c.f1:.4f}")
    support = f" ({report.oov_hit}/{report.oov_total})" if report.oov_known else ""
    lines.append(f"{'OOV recall':<{width}}{oov}{support}")
    return "\n".join(lines)
