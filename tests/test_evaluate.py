from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conjprop import evaluate
from conjprop.conllu import Sentence, TokenId
from conjprop.converter import MODES, convert
from conjprop.evaluate import (
    AlignmentError, EvalReport, LabelScore, agreement_matrix, align_corpora,
    diff_stats, format_diff, format_score, score,
)
from conjprop.graph import coarse, propagated_links
from conftest import (
    LABEL_POOL, make_sentence, perturb_enhanced, random_sentence,
)


def _pct(x):
    return f"{100 * x:.1f}"


def test_score_fig1_converter_vs_gold(fig1, fig1_gold):
    system = [convert(fig1, MODES["rbc"])]
    rep = score(system, [fig1_gold])
    assert rep.overall.tp == 2
    assert rep.overall.n_sys == 2
    assert rep.overall.n_gold == 3
    assert rep.overall.precision == 1.0
    assert rep.overall.recall == pytest.approx(2 / 3)
    assert rep.overall.f1 == pytest.approx(0.8)
    assert rep.per_label["nsubj"].tp == 1
    assert rep.per_label["obl"].n_sys == 0
    assert rep.per_label["obl"].n_gold == 1


# percent rendering pinned against hand-checked count triples
@pytest.mark.parametrize("tp,n_sys,n_gold,p,r,f1", [
    (200, 222, 210, "90.1", "95.2", "92.6"),
    (169, 178, 210, "94.9", "80.5", "87.1"),
    (173, 178, 222, "97.2", "77.9", "86.5"),
])
def test_score_formula_on_hand_checked_counts(tp, n_sys, n_gold, p, r, f1):
    sc = LabelScore(tp=tp, n_sys=n_sys, n_gold=n_gold)
    assert _pct(sc.precision) == p
    assert _pct(sc.recall) == r
    assert _pct(sc.f1) == f1


def _two_sentence_corpora():
    base = make_sentence([
        ("a", "NOUN", 2, "nsubj"),
        ("eats", "VERB", 0, "root"),
        ("and", "CCONJ", 4, "cc"),
        ("drinks", "VERB", 2, "conj"),
    ], sent_id="s1")
    for t in base.tokens:
        t.deps = [(t.head, t.deprel)]
    a = base.clone()
    a.tokens[0].deps.append((TokenId(4), "nsubj"))
    b = base.clone()
    b.tokens[0].deps.append((TokenId(4), "nsubj:pass"))
    return a, b


def test_precision_recall_swap_symmetry():
    a, b = _two_sentence_corpora()
    ab = score([a], [b])
    ba = score([b], [a])
    assert ab.overall.precision == ba.overall.recall
    assert ab.overall.recall == ba.overall.precision


def test_swap_symmetry_random():
    rng = random.Random(13)
    xs, ys = [], []
    for i in range(40):
        sent = random_sentence(rng, f"sym{i}")
        xs.append(perturb_enhanced(rng, sent))
        ys.append(perturb_enhanced(rng, sent))
    assert score(xs, ys).overall.precision == score(ys, xs).overall.recall
    assert score(xs, ys).overall.recall == score(ys, xs).overall.precision


def test_score_matches_brute_force_oracle():
    rng = random.Random(4242)
    xs, ys = [], []
    for i in range(60):
        sent = random_sentence(rng, f"o{i}")
        xs.append(perturb_enhanced(rng, sent))
        ys.append(perturb_enhanced(rng, sent))
    rep = score(xs, ys)
    sys_links, gold_links = set(), set()
    for s in xs:
        for e in propagated_links(s):
            sys_links.add((s.sent_id, e))
    for s in ys:
        for e in propagated_links(s):
            gold_links.add((s.sent_id, e))
    tp = len(sys_links & gold_links)
    assert rep.overall.tp == tp
    assert rep.overall.n_sys == len(sys_links)
    assert rep.overall.n_gold == len(gold_links)
    # per-label cells are a partition of the overall cells
    assert sum(sc.tp for sc in rep.per_label.values()) == tp
    assert sum(sc.n_sys for sc in rep.per_label.values()) == len(sys_links)
    assert sum(sc.n_gold for sc in rep.per_label.values()) == len(gold_links)


def _keyed_score(system, gold, keep_subtypes=frozenset()):
    """Reference definition: every link keyed by its sentence's alignment
    key, and the corpus-wide keyed sets compared."""
    ids = [s.sent_id for s in system + gold]
    by_id = all(i is not None for i in ids)
    keys = [s.sent_id if by_id else str(k) for k, s in enumerate(system)]
    gold_keys = [s.sent_id if by_id else str(k) for k, s in enumerate(gold)]
    sys_links = {(k, e) for k, s in zip(keys, system)
                 for e in propagated_links(s)}
    gold_links = {(k, e) for k, s in zip(gold_keys, gold)
                  for e in propagated_links(s)}
    overall, per_label, coarse_scores = LabelScore(), {}, {}

    def buckets(label):
        rolled = label if label in keep_subtypes else coarse(label)
        return (overall, per_label.setdefault(label, LabelScore()),
                coarse_scores.setdefault(rolled, LabelScore()))

    for link in sys_links:
        for bucket in buckets(link[1].label):
            bucket.n_sys += 1
            bucket.tp += link in gold_links
    for link in gold_links:
        for bucket in buckets(link[1].label):
            bucket.n_gold += 1
    return EvalReport(overall, dict(sorted(per_label.items())),
                      dict(sorted(coarse_scores.items())))


def _annotated(rng, sent):
    """One annotation of sent: a rule converter's output, or random edits."""
    mode = rng.choice(["rbc", "rbc2", "rbc2+fix", None])
    return perturb_enhanced(rng, sent) if mode is None \
        else convert(sent, MODES[mode])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12),
       ids=st.sampled_from(["all", "none", "some"]), shuffle=st.booleans(),
       keep=st.sets(st.sampled_from(LABEL_POOL), max_size=4),
       view=st.sampled_from(["full", "coarse"]))
def test_score_equals_the_keyed_set_definition(seed, n, ids, shuffle, keep,
                                               view):
    rng = random.Random(seed)
    base = [random_sentence(rng, f"k{i}") for i in range(n)]
    system = [_annotated(rng, s) for s in base]
    gold = [_annotated(rng, s) for s in base]
    for corpus in (system, gold):
        for k, sent in enumerate(corpus):
            if ids == "none" or (ids == "some" and k % 3 == 1):
                sent.comments = []
    if shuffle and ids == "all":
        rng.shuffle(gold)
    keep = frozenset(keep)
    expected = _keyed_score(system, gold, keep)
    report = score(system, gold, keep)
    assert report == expected
    assert format_score(report, view) == format_score(expected, view)
    assert format_score(report, view, records=True) == \
        format_score(expected, view, records=True)


@pytest.mark.parametrize("k", [3, 4])
def test_agreement_extracts_each_corpus_links_once(monkeypatch, k):
    calls = []

    def counted(sent):
        calls.append(sent)
        return propagated_links(sent)

    monkeypatch.setattr(evaluate, "propagated_links", counted)
    rng = random.Random(k)
    base = [random_sentence(rng, f"once{i}") for i in range(7)]
    corpora = [[_annotated(rng, s) for s in base] for _ in range(k)]
    rep = agreement_matrix(corpora, names=[f"c{i}" for i in range(k)])
    assert len(calls) == k * len(base)
    for (gname, sname), pair in rep.pairwise.items():
        gold, system = corpora[int(gname[1:])], corpora[int(sname[1:])]
        assert pair == _keyed_score(system, gold)


def test_scorers_read_any_iterables_once_in_argument_order():
    rng = random.Random(8)
    base = [random_sentence(rng, f"st{i}") for i in range(6)]
    corpora = {name: [perturb_enhanced(rng, s) for s in base]
               for name in "abc"}
    order = []

    def stream(name):
        for sent in corpora[name]:
            order.append(name)
            yield sent

    a, b = corpora["a"], corpora["b"]
    assert score(stream("a"), stream("b")) == score(a, b)
    assert order == ["a"] * 6 + ["b"] * 6
    order.clear()
    assert diff_stats(stream("a"), stream("b"), "all") == \
        diff_stats(a, b, "all")
    assert order == ["a"] * 6 + ["b"] * 6
    order.clear()
    assert agreement_matrix([stream(n) for n in "abc"], list("abc")) == \
        agreement_matrix(list(corpora.values()), list("abc"))
    assert order == ["a"] * 6 + ["b"] * 6 + ["c"] * 6


def test_coarse_rollup():
    a, b = _two_sentence_corpora()
    rep = score([a], [b])
    assert set(rep.per_label) == {"nsubj", "nsubj:pass"}
    assert set(rep.coarse) == {"nsubj"}
    assert rep.coarse["nsubj"].n_sys == 1
    assert rep.coarse["nsubj"].n_gold == 1
    assert rep.coarse["nsubj"].tp == 0  # exact-triple comparison happens first
    kept = score([a], [b], keep_subtypes=frozenset({"nsubj:pass"}))
    assert set(kept.coarse) == {"nsubj", "nsubj:pass"}


def test_alignment_by_sent_id_reorders():
    a, b = _two_sentence_corpora()
    extra_a = make_sentence([("x", "NOUN", 0, "root")], sent_id="s2")
    extra_b = make_sentence([("x", "NOUN", 0, "root")], sent_id="s2")
    rep1 = score([a, extra_a], [b, extra_b])
    rep2 = score([extra_a, a], [b, extra_b])
    assert rep1.overall == rep2.overall


def _record(sent):
    """What the scorers keep of a sentence: sent_id, token count, edges."""
    return (sent.sent_id, len(sent.tokens), propagated_links(sent))


def test_alignment_mismatch_lists_ids():
    a, _ = _two_sentence_corpora()
    other = make_sentence([("x", "NOUN", 0, "root")], sent_id="zzz")
    with pytest.raises(AlignmentError) as err:
        align_corpora([_record(a)], [_record(other)])
    assert "s1" in str(err.value) and "zzz" in str(err.value)


def test_alignment_token_count_mismatch():
    a, _ = _two_sentence_corpora()
    shorter = make_sentence([("a", "NOUN", 0, "root")], sent_id="s1")
    with pytest.raises(AlignmentError) as err:
        align_corpora([_record(a)], [_record(shorter)])
    assert "token count" in str(err.value)


def test_agreement_matrix_three_corpora():
    rng = random.Random(5)
    base = [random_sentence(rng, f"ag{i}") for i in range(20)]
    corpora = [[perturb_enhanced(rng, s) for s in base] for _ in range(3)]
    rep = agreement_matrix(corpora, names=["A", "B", "C"])
    assert rep.names == ["A", "B", "C"]
    assert len(rep.pairwise) == 6
    m = rep.precision_matrix()
    assert m[0][0] is None
    assert m[0][1] == rep.pairwise[("A", "B")].overall.precision
    assert m[2][1] == rep.pairwise[("C", "B")].overall.precision
    # P against one gold equals R with the roles flipped
    ab = rep.pairwise[("A", "B")].overall
    ba = rep.pairwise[("B", "A")].overall
    assert ab.precision == ba.recall


def test_agreement_needs_two():
    with pytest.raises(ValueError):
        agreement_matrix([[]])


def test_agreement_rejects_repeated_names():
    rng = random.Random(6)
    corpus = [random_sentence(rng, "rep0")]
    with pytest.raises(ValueError, match="repeat"):
        agreement_matrix([corpus, corpus, corpus], names=["A", "B", "A"])


def test_diff_stats_small():
    orig, edited = _two_sentence_corpora()
    rep = diff_stats([orig], [edited], scope="conjunct")
    assert rep.per_label["nsubj"].removed == 1
    assert rep.per_label["nsubj:pass"].added == 1
    assert rep.added == 1 and rep.removed == 1
    assert rep.sentences == 1
    assert rep.per_label["nsubj"].total == 1
    assert rep.total == 1


def test_diff_stats_swap_invariant():
    rng = random.Random(31)
    xs, ys = [], []
    for i in range(40):
        sent = random_sentence(rng, f"d{i}")
        xs.append(perturb_enhanced(rng, sent))
        ys.append(perturb_enhanced(rng, sent))
    fwd = diff_stats(xs, ys)
    rev = diff_stats(ys, xs)
    assert fwd.added == rev.removed and fwd.removed == rev.added
    for label, d in fwd.per_label.items():
        assert d.added == rev.per_label[label].removed
        assert d.removed == rev.per_label[label].added


def test_diff_stats_all_scope_counts_basic_change_once():
    orig = make_sentence([
        ("a", "NOUN", 2, "nsubj"),
        ("eats", "VERB", 0, "root"),
        ("fast", "ADV", 2, "advmod"),
    ])
    for t in orig.tokens:
        t.deps = [(t.head, t.deprel)]
    edited = orig.clone()
    edited.tokens[2].head = TokenId(1)
    edited.tokens[2].deps = [(TokenId(1), "advmod")]
    rep = diff_stats([orig], [edited], scope="all")
    assert rep.per_label["advmod"].added == 1
    assert rep.per_label["advmod"].removed == 1
    assert rep.sentences == 1
    # conjunct scope sees nothing: no coordination in the sentence
    rep2 = diff_stats([orig], [edited], scope="conjunct")
    assert rep2.added == 0 and rep2.removed == 0


def test_formatting_smoke(fig1, fig1_gold):
    rep = score([convert(fig1, MODES["rbc2"])], [fig1_gold])
    table = format_score(rep)
    assert "total" in table and "100.0" in table
    records = format_score(rep, records=True)
    lines = records.splitlines()[1:]  # below the summary line
    assert all(len(line.split("\t")) == 7 for line in lines)
    d = diff_stats([fig1_gold], [fig1_gold])
    assert format_diff(d, records=True).endswith("0\t0\t0\t3")


def test_alignment_mismatch_lists_first_ten_ids_in_input_order():
    def corpus(ids):
        return [_record(make_sentence([("x", "NOUN", 0, "root")], sent_id=i))
                for i in ids]
    a_only = [f"a{k}" for k in (12, 3, 7, 1, 9, 11, 4, 8, 2, 10, 6, 5)]
    b_only = [f"b{k}" for k in (2, 1)]
    with pytest.raises(AlignmentError) as err:
        align_corpora(corpus(["s"] + a_only), corpus(b_only + ["s"]),
                      ("sys.conllu", "gold.conllu"))
    assert str(err.value) == (
        f"sentence ids do not match: only in sys.conllu: {a_only[:10]}; "
        f"only in gold.conllu: {b_only}")
    # a file with no id of its own is not listed
    with pytest.raises(AlignmentError) as err:
        align_corpora(corpus(["s", "t"]), corpus(["s"]))
    assert str(err.value) == "sentence ids do not match: only in first: ['t']"


def test_alignment_faults_name_the_corpus_they_are_in():
    def corpus(ids, tokens=1):
        return [_record(make_sentence([("x", "NOUN", 0, "root")] * tokens,
                                      sent_id=i)) for i in ids]
    names = ("a.conllu", "b.conllu")
    for a, b, message in [
        (corpus(["s", "t", "s", "t"]), corpus(["s"]),
         "a.conllu: sent_id 's' is repeated"),
        (corpus(["s", "t"]), corpus(["t", "s", "t"]),
         "b.conllu: sent_id 't' is repeated"),
        (corpus(["s"]), corpus(["s"], tokens=2),
         "sentence s: token count differs (1 in a.conllu, 2 in b.conllu)"),
        ([(None, 1, set())], [(None, 1, set())] * 2,
         "a.conllu and b.conllu differ in length (1 vs 2) and lack sent_id"),
    ]:
        with pytest.raises(AlignmentError) as err:
            align_corpora(a, b, names)
        assert str(err.value) == message
