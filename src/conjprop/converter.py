"""Rule-based propagation of dependencies across coordinations.

The converter copies incident edges of a conjunction head to its conjuncts
in the enhanced layer. It decides over graph.candidates, the same list the
propagation classifiers decide over. Each pass takes the candidates from a
snapshot taken at pass start and writes into the working graph, so a single
pass does not chain through freshly added edges; enabling iterate_to_fixpoint
repeats passes until the graph stops changing, which handles nested and
multiple coordinations. The basic layer never changes, so a sentence's conj
pairs are found once. The converters return a copy unless in_place=True.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Sentence, Token, TokenId
from .graph import (
    Edge, add_dep, candidates, coarse, conj_pairs, enhanced_edges,
    has_child_with_label, has_subject,
)

# incoming labels of gov never copied over to the conjunct, by coarse label
GOVERNOR_EXCEPTIONS = frozenset(
    {"vocative", "discourse", "root", "punct", "cc", "conj", "mark"})

SUBJECT_LABELS = frozenset({"nsubj", "csubj"})
CORE_NONSUBJECT_LABELS = frozenset({"obj", "iobj", "ccomp", "xcomp"})
NON_CORE_LABELS = frozenset({"obl", "advmod", "advcl"})


@dataclass(frozen=True)
class ConverterConfig:
    propagate_non_core: bool = False
    iterate_to_fixpoint: bool = False
    passive_imperative_fix: bool = False


MODES = {
    "rbc": ConverterConfig(),
    "rbc2": ConverterConfig(propagate_non_core=True, iterate_to_fixpoint=True),
    "rbc2+fix": ConverterConfig(propagate_non_core=True, iterate_to_fixpoint=True,
                                passive_imperative_fix=True),
}


def seed_enhanced(sent: Sentence) -> None:
    """Copy the basic layer into DEPS, in place. No-op for tokens with deps."""
    for t in sent.tokens:
        if not t.deps and t.head is not None:
            t.deps.append((t.head, t.deprel))


def seeded(sent: Sentence, in_place: bool = False) -> Sentence:
    """A copy of sent, or sent itself when in_place, its DEPS seeded from
    the basic layer when all empty."""
    work = sent if in_place else sent.clone()
    if all(not t.deps for t in work.tokens):
        seed_enhanced(work)
    return work


def subject_label(sent: Sentence, dep_tok: Token, candidate: str,
                  passive_imperative_fix: bool) -> str | None:
    """Final label for a subject copied onto dep_tok, or None to suppress it."""
    if passive_imperative_fix:
        if coarse(candidate) == "nsubj" and dep_tok.feats.get("Mood") == "Imp":
            return None
        if candidate == "nsubj:pass":
            voice = dep_tok.feats.get("Voice")
            if voice is None or voice == "Act":
                return "nsubj"
    if candidate in SUBJECT_LABELS \
            and has_child_with_label(sent, dep_tok.id, "aux:pass"):
        return candidate + ":pass"
    return candidate


def _one_pass(work: Sentence, by_id: dict[TokenId, Token],
              pairs: list[tuple[TokenId, TokenId]],
              cfg: ConverterConfig) -> bool:
    snapshot = candidates(pairs, ((head, t.id, label) for t in work.tokens
                                  for head, label in t.deps))
    changed = False
    for gov, dep, e, outgoing in snapshot:
        base = coarse(e.label)
        if not outgoing:
            # governors of gov are copied, modulo the exception list; non-core
            # labels stay local unless non-core propagation is switched on, so
            # the default config introduces no obl/advmod/advcl edge anywhere
            if base not in GOVERNOR_EXCEPTIONS and (
                    cfg.propagate_non_core or base not in NON_CORE_LABELS):
                changed |= add_dep(by_id[dep], e.head, e.label)
        # dependents of gov, by label class; the subject check reads the
        # working graph, so a subject copied earlier in this pass counts
        elif base in SUBJECT_LABELS:
            if has_subject(work, dep):
                continue
            label = subject_label(work, by_id[dep], e.label,
                                  cfg.passive_imperative_fix)
            if label is not None:
                changed |= add_dep(by_id[e.dep], dep, label)
        elif base in CORE_NONSUBJECT_LABELS:
            # only shared if the target follows the conjunct
            if e.dep > dep:
                changed |= add_dep(by_id[e.dep], dep, e.label)
        elif cfg.propagate_non_core and base in NON_CORE_LABELS:
            # only shared if the conjunct follows the target
            if e.dep < dep:
                changed |= add_dep(by_id[e.dep], dep, e.label)
    return changed


def convert(sent: Sentence, cfg: ConverterConfig = ConverterConfig(),
            in_place: bool = False) -> Sentence:
    """sent propagated under cfg: a copy, or sent itself when in_place.
    Seeds DEPS from the basic layer when empty."""
    work = seeded(sent, in_place)
    pairs = conj_pairs(work)
    if pairs:
        by_id = work.token_by_id()
        while _one_pass(work, by_id, pairs, cfg) and cfg.iterate_to_fixpoint:
            pass
    return work


def always_baseline(sent: Sentence, in_place: bool = False) -> Sentence:
    """Copy every incident edge of the head to the conjunct, labels unchanged.

    Single pass with live reads, so copies chain left to right. Only the conj
    edge to the conjunct itself is skipped; self loops are never produced.
    """
    work = seeded(sent, in_place)
    pairs = conj_pairs(work)
    by_id = work.token_by_id() if pairs else {}
    for gov, dep in pairs:
        dep_tok = by_id[dep]
        # a snapshot per pair: the copies of earlier pairs are in it
        for head, tid, label in [(head, t.id, label) for t in work.tokens
                                 for head, label in t.deps
                                 if head == gov or t.id == gov]:
            if tid == gov and head != dep:
                add_dep(dep_tok, head, label)
            elif head == gov and tid != dep:
                add_dep(by_id[tid], dep, label)
    return work


def convert_mode(sent: Sentence, mode: str,
                 in_place: bool = False) -> Sentence:
    """sent propagated under mode: a copy, or sent itself when in_place."""
    if mode == "always":
        return always_baseline(sent, in_place)
    try:
        cfg = MODES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    return convert(sent, cfg, in_place)


def added_edges(before: Sentence, after: Sentence) -> set[Edge]:
    """Enhanced edges present in after but not in before (after seeding)."""
    return enhanced_edges(after) - enhanced_edges(seeded(before))
