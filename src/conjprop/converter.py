"""Rule-based propagation of dependencies across coordinations.

The converter copies incident edges of a conjunction head to its conjuncts
in the enhanced layer. It decides over graph.candidates, the same list the
propagation classifiers decide over. Each pass takes the candidates from a
snapshot taken at pass start and writes into the working graph, so a single
pass does not chain through freshly added edges; enabling iterate_to_fixpoint
repeats passes until the graph stops changing, which handles nested and
multiple coordinations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Sentence, Token
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


def seeded_copy(sent: Sentence) -> Sentence:
    """A copy of sent, its DEPS seeded from the basic layer when all empty."""
    work = sent.clone()
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


def _one_pass(work: Sentence, cfg: ConverterConfig) -> bool:
    if not conj_pairs(work):
        return False
    by_id = work.token_by_id()
    changed = False
    for gov, dep, e, outgoing in candidates(work, enhanced_edges(work)):
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


def convert(sent: Sentence, cfg: ConverterConfig = ConverterConfig()) -> Sentence:
    """Propagated copy of sent. Seeds DEPS from the basic layer when empty."""
    work = seeded_copy(sent)
    while _one_pass(work, cfg):
        if not cfg.iterate_to_fixpoint:
            break
    return work


def always_baseline(sent: Sentence) -> Sentence:
    """Copy every incident edge of the head to the conjunct, labels unchanged.

    Single pass with live reads, so copies chain left to right. Only the conj
    edge to the conjunct itself is skipped; self loops are never produced.
    """
    work = seeded_copy(sent)
    by_id = work.token_by_id()
    for gov, dep in conj_pairs(work):
        dep_tok = by_id[dep]
        for e in sorted(enhanced_edges(work)):
            if e.dep == gov and e.head != dep:
                add_dep(dep_tok, e.head, e.label)
            elif e.head == gov and e.dep != dep:
                add_dep(by_id[e.dep], dep, e.label)
    return work


def convert_mode(sent: Sentence, mode: str) -> Sentence:
    if mode == "always":
        return always_baseline(sent)
    try:
        cfg = MODES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    return convert(sent, cfg)


def added_edges(before: Sentence, after: Sentence) -> set[Edge]:
    """Enhanced edges present in after but not in before (after seeding)."""
    return enhanced_edges(after) - enhanced_edges(seeded_copy(before))
