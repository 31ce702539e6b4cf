"""Scoring of propagated links, annotator agreement, and corpus diffs over
any iterables of sentences, read in argument order, one at a time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .config import AlignmentError
from .conllu import Sentence
from .graph import Edge, basic_edges, coarse, enhanced_edges, propagated_links


def _scoped_edges(sent: Sentence, scope: str) -> set[Edge]:
    if scope == "conjunct":
        return propagated_links(sent)
    if scope == "all":
        return basic_edges(sent) | enhanced_edges(sent)
    raise ValueError(f"unknown diff scope {scope!r}")


def _records(corpus: Iterable[Sentence], scope="conjunct") -> list[tuple]:
    """(sent_id, token count, edge set) of each sentence, as it arrives."""
    return [(s.sent_id, len(s.tokens), _scoped_edges(s, scope))
            for s in corpus]


def align_corpora(a: list[tuple], b: list[tuple]):
    """Pair up sentence records by sent_id when available, else by position.

    Returns (i, j) for each a[i] aligned with b[j], in the order of a.
    Token counts must match per pair; mismatched or duplicated ids raise
    AlignmentError naming the offenders.
    """
    a_ids = [r[0] for r in a]
    b_ids = [r[0] for r in b]
    if all(i is not None for i in a_ids) and all(i is not None for i in b_ids):
        if len(set(a_ids)) != len(a_ids) or len(set(b_ids)) != len(b_ids):
            raise AlignmentError("duplicate sent_id values")
        a_set, b_set = set(a_ids), set(b_ids)
        only_a = [i for i in a_ids if i not in b_set]
        only_b = [i for i in b_ids if i not in a_set]
        if only_a or only_b:
            raise AlignmentError(
                f"sentence ids do not match: only in first={only_a[:10]}, "
                f"only in second={only_b[:10]}")
        b_pos = {sid: j for j, sid in enumerate(b_ids)}
        pairs = [(i, b_pos[sid]) for i, sid in enumerate(a_ids)]
    else:
        if len(a) != len(b):
            raise AlignmentError(
                f"corpora differ in length ({len(a)} vs {len(b)}) and lack sent_id")
        pairs = [(k, k) for k in range(len(a))]
        a_ids = range(len(a))  # messages name sentences by position
    for i, j in pairs:
        if a[i][1] != b[j][1]:
            raise AlignmentError(
                f"sentence {a_ids[i]}: token count differs "
                f"({a[i][1]} vs {b[j][1]})")
    return pairs


@dataclass
class LabelScore:
    tp: int = 0
    n_sys: int = 0
    n_gold: int = 0

    @property
    def precision(self) -> float:
        return self.tp / self.n_sys if self.n_sys else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.n_gold if self.n_gold else 0.0

    @property
    def f1(self) -> float:
        denom = self.n_sys + self.n_gold
        return 2 * self.tp / denom if denom else 0.0


@dataclass
class EvalReport:
    overall: LabelScore
    per_label: dict[str, LabelScore]
    coarse: dict[str, LabelScore]


def score(system: Iterable[Sentence], gold: Iterable[Sentence],
          keep_subtypes: frozenset[str] = frozenset()) -> EvalReport:
    """Precision/recall/F1 over the propagated links of aligned sentences.

    keep_subtypes lists full labels kept apart in the coarse rollup;
    every other label collapses to its coarse form there.
    """
    return _score(_records(system), _records(gold), keep_subtypes)


def _score(system: list[tuple], gold: list[tuple],
           keep_subtypes: frozenset[str] = frozenset()) -> EvalReport:
    pairs = align_corpora(system, gold)
    overall = LabelScore()
    per_label: dict[str, LabelScore] = {}
    coarse_scores: dict[str, LabelScore] = {}

    def buckets(label: str) -> tuple[LabelScore, ...]:
        rolled = label if label in keep_subtypes else coarse(label)
        return (overall, per_label.setdefault(label, LabelScore()),
                coarse_scores.setdefault(rolled, LabelScore()))

    for i, j in pairs:
        expected = gold[j][2]
        for link in system[i][2]:
            hit = link in expected
            for bucket in buckets(link.label):
                bucket.n_sys += 1
                bucket.tp += hit
        for link in expected:
            for bucket in buckets(link.label):
                bucket.n_gold += 1
    return EvalReport(overall=overall,
                      per_label=dict(sorted(per_label.items())),
                      coarse=dict(sorted(coarse_scores.items())))


@dataclass
class AgreementReport:
    names: list[str]
    # (gold_name, system_name) -> EvalReport
    pairwise: dict[tuple[str, str], EvalReport]

    def precision_matrix(self) -> list[list[float | None]]:
        """Cell [i][j] = precision of corpus j against corpus i as gold."""
        out = []
        for gname in self.names:
            row = []
            for sname in self.names:
                if gname == sname:
                    row.append(None)
                else:
                    row.append(self.pairwise[(gname, sname)].overall.precision)
            out.append(row)
        return out


def agreement_matrix(corpora: list[Iterable[Sentence]],
                     names: list[str] | None = None) -> AgreementReport:
    """Pairwise scores over two or more corpora of the same sentences,
    reducing each corpus once for all the pairs it is in."""
    if len(corpora) < 2:
        raise ValueError("agreement needs at least two corpora")
    if names is None:
        names = [f"corpus{i+1}" for i in range(len(corpora))]
    if len(names) != len(corpora):
        raise ValueError("one name per corpus required")
    if len(set(names)) != len(names):
        raise ValueError(f"corpus names repeat: {names}")
    records = [_records(corpus) for corpus in corpora]
    pairwise = {(names[gi], names[si]): _score(system, gold)
                for gi, gold in enumerate(records)
                for si, system in enumerate(records) if gi != si}
    return AgreementReport(names=list(names), pairwise=pairwise)


@dataclass
class LabelDiff:
    added: int = 0
    removed: int = 0
    sentences: int = 0
    total: int = 0


@dataclass
class DiffReport:
    scope: str
    per_label: dict[str, LabelDiff]
    added: int = 0
    removed: int = 0
    sentences: int = 0
    total: int = 0


def diff_stats(original: Iterable[Sentence], edited: Iterable[Sentence],
               scope: str = "conjunct") -> DiffReport:
    """Added/removed edge counts per label between two corpus versions.

    Scope "conjunct" compares propagated-link sets; "all" compares the union
    of basic and enhanced triples, so a basic fix mirrored in DEPS counts once.
    The total column reports occurrences of the label in the original corpus
    within the same scope.
    """
    original, edited = _records(original, scope), _records(edited, scope)
    report = DiffReport(scope=scope, per_label={})
    for i, j in align_corpora(original, edited):
        before, after = original[i][2], edited[j][2]
        touched: set[str] = set()
        for e in after - before:
            d = report.per_label.setdefault(e.label, LabelDiff())
            d.added += 1
            report.added += 1
            touched.add(e.label)
        for e in before - after:
            d = report.per_label.setdefault(e.label, LabelDiff())
            d.removed += 1
            report.removed += 1
            touched.add(e.label)
        for e in before:
            report.per_label.setdefault(e.label, LabelDiff()).total += 1
            report.total += 1
        for label in touched:
            report.per_label[label].sentences += 1
        if touched:
            report.sentences += 1
    report.per_label = dict(sorted(report.per_label.items()))
    return report


# ---------------------------------------------------------------- rendering

def _pct(x: float) -> str:
    return f"{100 * x:.1f}"


def format_score_table(report: EvalReport, view: str = "full") -> str:
    rows = report.per_label if view == "full" else report.coarse
    header = f"{'label':<24} {'tp':>6} {'sys':>6} {'gold':>6} {'P':>6} {'R':>6} {'F1':>6}"
    lines = [header]
    for label, sc in list(rows.items()) + [("total", report.overall)]:
        lines.append(f"{label:<24} {sc.tp:>6} {sc.n_sys:>6} {sc.n_gold:>6} "
                     f"{_pct(sc.precision):>6} {_pct(sc.recall):>6} {_pct(sc.f1):>6}")
    return "\n".join(lines)


def format_score_records(report: EvalReport, view: str = "full") -> str:
    rows = report.per_label if view == "full" else report.coarse
    lines = []
    for label, sc in list(rows.items()) + [("total", report.overall)]:
        lines.append("\t".join((label, str(sc.tp), str(sc.n_sys), str(sc.n_gold),
                                _pct(sc.precision), _pct(sc.recall), _pct(sc.f1))))
    return "\n".join(lines)


def format_pair_table(report: EvalReport) -> str:
    """Per-label table in agreement-study layout: sys and gold counts first."""
    header = f"{'label':<24} {'sys':>6} {'gold':>6} {'tp':>6} {'P':>6} {'R':>6} {'F1':>6}"
    lines = [header]
    for label, sc in list(report.per_label.items()) + [("total", report.overall)]:
        lines.append(f"{label:<24} {sc.n_sys:>6} {sc.n_gold:>6} {sc.tp:>6} "
                     f"{_pct(sc.precision):>6} {_pct(sc.recall):>6} {_pct(sc.f1):>6}")
    return "\n".join(lines)


def format_diff_table(report: DiffReport) -> str:
    header = f"{'label':<24} {'added':>7} {'removed':>8} {'sents':>7} {'total':>8}"
    lines = [header]
    for label, d in list(report.per_label.items()) + [("total", report)]:
        lines.append(f"{label:<24} {d.added:>7} {d.removed:>8} {d.sentences:>7} {d.total:>8}")
    return "\n".join(lines)


def format_diff_records(report: DiffReport) -> str:
    lines = []
    for label, d in list(report.per_label.items()) + [("total", report)]:
        lines.append("\t".join((label, str(d.added), str(d.removed),
                                str(d.sentences), str(d.total))))
    return "\n".join(lines)


def format_agreement(report: AgreementReport) -> str:
    lines = []
    width = max(8, *(len(n) for n in report.names)) + 2
    head = " " * width + "".join(f"{n:>{width}}" for n in report.names)
    lines.append("precision of column corpus against row corpus as gold")
    lines.append(head)
    matrix = report.precision_matrix()
    for name, row in zip(report.names, matrix):
        cells = "".join(f"{'-' if v is None else _pct(v):>{width}}" for v in row)
        lines.append(f"{name:<{width}}{cells}")
    for (gname, sname), rep in report.pairwise.items():
        sc = rep.overall
        lines.append("")
        lines.append(f"system={sname} gold={gname}: "
                     f"links {sc.n_sys}/{sc.n_gold} overlap {sc.tp} "
                     f"P {_pct(sc.precision)} R {_pct(sc.recall)} F1 {_pct(sc.f1)}")
        lines.append(format_pair_table(rep))
    return "\n".join(lines)
