"""Scoring of propagated links, annotator agreement, and corpus diffs over
any iterables of sentences, read in argument order, one at a time.

LabelScore is the package's one F1; the parser's dev F1 and the MLP's
holdout macro-F1 count into it too.  Every report prints through one
renderer, _render: rows of a label and its cells, as a table under a
header or as tab-separated records."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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


def align_corpora(a: list[tuple], b: list[tuple],
                  names: tuple[str, str] = ("first", "second")):
    """Pair up sentence records by sent_id when available, else by position.

    Returns (i, j) for each a[i] aligned with b[j], in the order of a.
    Token counts must match per pair; mismatched or duplicated ids raise
    AlignmentError naming the offenders under the names of a and b.
    """
    a_ids = [r[0] for r in a]
    b_ids = [r[0] for r in b]
    if all(i is not None for i in a_ids) and all(i is not None for i in b_ids):
        for ids, name in zip((a_ids, b_ids), names):
            if len(set(ids)) != len(ids):
                sid = next(i for i, n in Counter(ids).items() if n > 1)
                raise AlignmentError(f"{name}: sent_id {sid!r} is repeated")
        a_set, b_set = set(a_ids), set(b_ids)
        only_a = [i for i in a_ids if i not in b_set]
        only_b = [i for i in b_ids if i not in a_set]
        if only_a or only_b:
            raise AlignmentError("sentence ids do not match: " + "; ".join(
                f"only in {name}: {ids[:10]}"
                for name, ids in zip(names, (only_a, only_b)) if ids))
        b_pos = {sid: j for j, sid in enumerate(b_ids)}
        pairs = [(i, b_pos[sid]) for i, sid in enumerate(a_ids)]
    else:
        if len(a) != len(b):
            raise AlignmentError(
                f"{names[0]} and {names[1]} differ in length ({len(a)} vs "
                f"{len(b)}) and lack sent_id")
        pairs = [(k, k) for k in range(len(a))]
        a_ids = range(len(a))  # messages name sentences by position
    for i, j in pairs:
        if a[i][1] != b[j][1]:
            raise AlignmentError(
                f"sentence {a_ids[i]}: token count differs ({a[i][1]} in "
                f"{names[0]}, {b[j][1]} in {names[1]})")
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
          keep_subtypes: frozenset[str] = frozenset(),
          names: tuple[str, str] = ("system", "gold")) -> EvalReport:
    """Precision/recall/F1 over the propagated links of aligned sentences.

    keep_subtypes lists full labels kept apart in the coarse rollup;
    every other label collapses to its coarse form there.  Alignment
    errors give the two corpora their names.
    """
    return _score(_records(system), _records(gold), names, keep_subtypes)


def _score(system: list[tuple], gold: list[tuple], names: tuple[str, str],
           keep_subtypes: frozenset[str] = frozenset()) -> EvalReport:
    pairs = align_corpora(system, gold, names)
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
    pairwise = {(names[gi], names[si]):
                _score(system, gold, (names[si], names[gi]))
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
class DiffReport(LabelDiff):
    """The counts over all labels, and per label."""
    scope: str = "conjunct"
    per_label: dict[str, LabelDiff] = field(default_factory=dict)


def diff_stats(original: Iterable[Sentence], edited: Iterable[Sentence],
               scope: str = "conjunct",
               names: tuple[str, str] = ("original", "edited")) -> DiffReport:
    """Added/removed edge counts per label between two corpus versions.

    Scope "conjunct" compares propagated-link sets; "all" compares the union
    of basic and enhanced triples, so a basic fix mirrored in DEPS counts once.
    The total column reports occurrences of the label in the original corpus
    within the same scope.  Alignment errors give the two their names.
    """
    original, edited = _records(original, scope), _records(edited, scope)
    report = DiffReport(scope=scope)
    for i, j in align_corpora(original, edited, names):
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


def _render(columns: dict[str, int], rows: list[tuple[str, dict[str, str]]],
            records: bool) -> str:
    """Rows of a label and its cells by column name, as tab-separated
    records, or as a table under a header: the label left-aligned in 24
    characters, then each cell right-aligned to its column's width."""
    if records:
        return "\n".join("\t".join([label, *(cells[name] for name in columns)])
                         for label, cells in rows)
    header = ("label", {name: name for name in columns})
    return "\n".join(f"{label:<24}" + "".join(
        f" {cells[name]:>{width}}" for name, width in columns.items())
        for label, cells in [header, *rows])


_SCORE_COLUMNS = dict(tp=6, sys=6, gold=6, P=6, R=6, F1=6)
_PAIR_COLUMNS = dict(sys=6, gold=6, tp=6, P=6, R=6, F1=6)
_DIFF_COLUMNS = dict(added=7, removed=8, sents=7, total=8)


def _score_rows(per_label: dict[str, LabelScore], overall: LabelScore):
    return [(label, {"tp": str(sc.tp), "sys": str(sc.n_sys),
                     "gold": str(sc.n_gold), "P": _pct(sc.precision),
                     "R": _pct(sc.recall), "F1": _pct(sc.f1)})
            for label, sc in [*per_label.items(), ("total", overall)]]


def _summary(sc: LabelScore) -> str:
    return (f"links {sc.n_sys}/{sc.n_gold} overlap {sc.tp} "
            f"P {_pct(sc.precision)} R {_pct(sc.recall)} F1 {_pct(sc.f1)}")


def format_score(report: EvalReport, view: str = "full",
                 records: bool = False) -> str:
    """The summary line, then a row per label of the full or the coarse
    view and a total row."""
    per_label = report.per_label if view == "full" else report.coarse
    return _summary(report.overall) + "\n" + _render(
        _SCORE_COLUMNS, _score_rows(per_label, report.overall), records)


def format_diff(report: DiffReport, records: bool = False) -> str:
    """A row per label and a total row."""
    return _render(_DIFF_COLUMNS, [
        (label, {"added": str(d.added), "removed": str(d.removed),
                 "sents": str(d.sentences), "total": str(d.total)})
        for label, d in [*report.per_label.items(), ("total", report)]],
        records)


def format_agreement(report: AgreementReport) -> str:
    """The precision matrix, then each pair's summary line and a table in
    the agreement study's layout, sys and gold counts first."""
    width = max(8, *(len(n) for n in report.names)) + 2
    lines = ["precision of column corpus against row corpus as gold",
             " " * width + "".join(f"{n:>{width}}" for n in report.names)]
    for name, row in zip(report.names, report.precision_matrix()):
        cells = "".join(f"{'-' if v is None else _pct(v):>{width}}" for v in row)
        lines.append(f"{name:<{width}}{cells}")
    for (gname, sname), rep in report.pairwise.items():
        lines += ["", f"system={sname} gold={gname}: {_summary(rep.overall)}",
                  _render(_PAIR_COLUMNS,
                          _score_rows(rep.per_label, rep.overall), False)]
    return "\n".join(lines)
