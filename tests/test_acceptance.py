"""Acceptance checks. Each test is one verdict line under pytest -v.

Checks that need external corpora (the corrected treebank release, the
original EWT, or the three annotator files) skip with an explicit reason
unless CONJPROP_DATA_DIR points at a directory with the layout documented
in the README:

    $CONJPROP_DATA_DIR/
      ewt/en_ewt-ud-{train,dev,test}.conllu         original treebank
      corrected/en_ewt-ud-{train,dev,test}.conllu   corrected release
      agreement/annotator_{a,b,c}.conllu            annotator files
"""

from __future__ import annotations

import math
import os
import random
import time

import numpy as np
import pytest

from conftest import load_fig, make_sentence, random_sentence, \
    perturb_enhanced, seed_deps
from test_cli import prop_input_text, prop_training_text
from test_edgepred import without_regularization

from conjprop import autodiff as ad
from conjprop.cli import main as cli_main
from conjprop.conllu import ROOT, Sentence, TokenId, parse_corpus, \
    write_corpus
from conjprop.converter import (
    MODES, ConverterConfig, added_edges, convert, convert_mode,
)
from conjprop.edgepred import (
    ParserTrainConfig, build_label_inventory, decode_scores, new_parser,
    score_pairs, sentence_loss, train_epoch,
)
from conjprop.embeddings import hash_provider
from conjprop.evaluate import agreement_matrix, diff_stats, score
from conjprop.graph import Edge, coarse, enhanced_edges, propagated_links
from conjprop.labels import delexicalize_corpus, lexicalize_label
from conjprop.propmodel import apply_model, mlp_loss, train_prop
from conjprop.svm import train_svm

T = TokenId


def edge(h, d, label):
    return Edge(T(h), T(d), label)


# ------------------------------------------------------------- data gating

DATA_DIR = os.environ.get("CONJPROP_DATA_DIR")


def data_file(*parts: str) -> str:
    if not DATA_DIR:
        pytest.skip("CONJPROP_DATA_DIR is not set; this check needs "
                    + "/".join(parts))
    path = os.path.join(DATA_DIR, *parts)
    if not os.path.exists(path):
        pytest.skip(f"missing corpus file {path}")
    return path


def read_corpus_file(path: str) -> list[Sentence]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh.read())


def strip_enhanced(corpus: list[Sentence]) -> list[Sentence]:
    out = []
    for sent in corpus:
        bare = sent.clone()
        for t in bare.tokens:
            t.deps = []
        out.append(bare)
    return out


# ----------------------------------------------------- brute-force oracles

def oracle_links(sent: Sentence) -> set[tuple]:
    basic = {(t.head, t.id, t.deprel)
             for t in sent.tokens if t.head is not None}
    enhanced = {(head, t.id, label)
                for t in sent.tokens for head, label in t.deps}
    conjuncts: set[TokenId] = set()
    for t in sent.tokens:
        rel = t.deprel or ""
        if rel == "conj" or rel.startswith("conj:"):
            conjuncts.add(t.id)
            conjuncts.add(t.head)
    links = set()
    for head, dep, label in enhanced:
        if (head, dep, label) in basic:
            continue
        if label == "conj" or label.startswith("conj:"):
            continue
        if head in conjuncts or dep in conjuncts:
            links.add((head, dep, label))
    return links


def oracle_counts(system: list[Sentence], gold: list[Sentence]):
    tp: dict[str, int] = {}
    n_sys: dict[str, int] = {}
    n_gold: dict[str, int] = {}
    for s, g in zip(system, gold):
        sl, gl = oracle_links(s), oracle_links(g)
        for _, _, label in sl:
            n_sys[label] = n_sys.get(label, 0) + 1
        for _, _, label in gl:
            n_gold[label] = n_gold.get(label, 0) + 1
        for _, _, label in sl & gl:
            tp[label] = tp.get(label, 0) + 1
    return tp, n_sys, n_gold


def oracle_diff(before: list[Sentence], after: list[Sentence]):
    added = removed = sentences = total = 0
    for b, a in zip(before, after):
        bl, al = oracle_links(b), oracle_links(a)
        added += len(al - bl)
        removed += len(bl - al)
        sentences += bl != al
        total += len(bl)
    return added, removed, sentences, total


# ------------------------------------------------------------- criterion 1

def test_criterion_1_figure_fidelity():
    started = time.perf_counter()
    fig1 = load_fig("fig1.conllu")
    fig3a = load_fig("fig3a.conllu")
    fig3b = load_fig("fig3b.conllu")
    fig3c = load_fig("fig3c.conllu")

    rbc = convert(fig1, ConverterConfig())
    assert added_edges(fig1, rbc) == {edge(7, 4, "nsubj"), edge(7, 9, "obj")}
    rbc2 = convert(fig1, MODES["rbc2"])
    assert added_edges(fig1, rbc2) == {
        edge(7, 4, "nsubj"), edge(7, 9, "obj"), edge(7, 3, "obl")}

    fixed_3a = convert(fig3a, MODES["rbc2+fix"])
    assert added_edges(fig3a, fixed_3a) == {edge(9, 1, "nsubj")}
    plain_3a = convert(fig3a, ConverterConfig())
    assert added_edges(fig3a, plain_3a) == {edge(9, 1, "nsubj:pass")}

    fixed_3b = convert(fig3b, MODES["rbc2+fix"])
    assert added_edges(fig3b, fixed_3b) == set()

    single = convert(fig3c, ConverterConfig())
    assert added_edges(fig3c, single) == {
        edge(5, 4, "nsubj"), edge(10, 1, "nsubj")}
    iterated = convert(fig3c, ConverterConfig(iterate_to_fixpoint=True))
    assert added_edges(fig3c, iterated) == {
        edge(5, 4, "nsubj"), edge(10, 1, "nsubj"), edge(10, 4, "nsubj")}

    assert time.perf_counter() - started < 1.0


# ------------------------------------------------------------- criterion 2

def test_criterion_2_treebank_scale_reproduction():
    corrected_dev = read_corpus_file(
        data_file("corrected", "en_ewt-ud-dev.conllu"))
    corrected_test = read_corpus_file(
        data_file("corrected", "en_ewt-ud-test.conllu"))
    corrected_train = read_corpus_file(
        data_file("corrected", "en_ewt-ud-train.conllu"))
    original = [read_corpus_file(data_file("ewt", f"en_ewt-ud-{p}.conllu"))
                for p in ("train", "dev", "test")]
    started = time.perf_counter()

    def converted(gold, mode):
        return [convert_mode(s, mode) for s in strip_enhanced(gold)]

    dev_rbc = score(converted(corrected_dev, "rbc"), corrected_dev).overall
    assert abs(100 * dev_rbc.precision - 94.8) <= 0.5
    assert abs(100 * dev_rbc.recall - 86.4) <= 0.5
    assert abs(100 * dev_rbc.f1 - 90.4) <= 0.5

    test_rbc = score(converted(corrected_test, "rbc"), corrected_test).overall
    assert abs(100 * test_rbc.precision - 95.2) <= 0.5
    assert abs(100 * test_rbc.recall - 76.9) <= 0.5
    assert abs(100 * test_rbc.f1 - 85.0) <= 0.5

    test_rbc2 = score(converted(corrected_test, "rbc2"),
                      corrected_test).overall
    assert abs(100 * test_rbc2.f1 - 87.2) <= 0.5

    dev_always = score(converted(corrected_dev, "always"),
                       corrected_dev).overall
    assert abs(100 * dev_always.precision - 23.1) <= 0.5
    assert abs(100 * dev_always.recall - 99.6) <= 0.5

    corrected_all = corrected_train + corrected_dev + corrected_test
    original_all = original[0] + original[1] + original[2]
    conjunct_diff = diff_stats(original_all, corrected_all, scope="conjunct")
    assert (conjunct_diff.added, conjunct_diff.removed,
            conjunct_diff.sentences) == (466, 93, 386)
    full_diff = diff_stats(original_all, corrected_all, scope="all")
    assert (full_diff.added, full_diff.removed,
            full_diff.sentences) == (565, 157, 466)

    assert time.perf_counter() - started < 60.0


# ------------------------------------------------------------- criterion 3

def test_criterion_3_agreement_reproduction():
    corpora = [read_corpus_file(data_file("agreement",
                                          f"annotator_{n}.conllu"))
               for n in ("a", "b", "c")]
    report = agreement_matrix(corpora, names=["A", "B", "C"])

    expected_matrix = {("A", "B"): 90.1, ("A", "C"): 94.9,
                       ("B", "A"): 95.2, ("B", "C"): 97.2,
                       ("C", "A"): 80.5, ("C", "B"): 77.9}
    for (gold_name, sys_name), cell in expected_matrix.items():
        got = report.pairwise[(gold_name, sys_name)].overall.precision
        assert abs(100 * got - cell) <= 0.1, (gold_name, sys_name)

    expected_totals = {("A", "B"): (222, 210, 200),
                       ("A", "C"): (178, 210, 169),
                       ("B", "C"): (178, 222, 173)}
    for pair, (n_sys, n_gold, tp) in expected_totals.items():
        sc = report.pairwise[pair].overall
        assert (sc.n_sys, sc.n_gold, sc.tp) == (n_sys, n_gold, tp), pair


# ------------------------------------------------------------- criterion 4

def test_criterion_4_metric_oracle_property():
    rng = random.Random(20240819)
    originals = [random_sentence(rng, f"m{i}", max_tokens=15)
                 for i in range(200)]
    corpus_a = [perturb_enhanced(rng, s) for s in originals]
    corpus_b = [perturb_enhanced(rng, s) for s in originals]

    for sent in corpus_a + corpus_b:
        assert propagated_links(sent) == {
            Edge(*link) for link in oracle_links(sent)}

    report = score(corpus_a, corpus_b)
    tp, n_sys, n_gold = oracle_counts(corpus_a, corpus_b)
    assert report.overall.tp == sum(tp.values())
    assert report.overall.n_sys == sum(n_sys.values())
    assert report.overall.n_gold == sum(n_gold.values())
    for label in set(n_sys) | set(n_gold):
        sc = report.per_label[label]
        assert (sc.tp, sc.n_sys, sc.n_gold) == (
            tp.get(label, 0), n_sys.get(label, 0), n_gold.get(label, 0))

    diff = diff_stats(corpus_a, corpus_b, scope="conjunct")
    assert (diff.added, diff.removed, diff.sentences, diff.total) \
        == oracle_diff(corpus_a, corpus_b)

    for sys_c, gold_c in [(corpus_a, corpus_b), (corpus_b, corpus_a),
                          (corpus_a, corpus_a)]:
        forward = score(sys_c, gold_c)
        backward = score(gold_c, sys_c)
        assert forward.overall.precision == backward.overall.recall
        for label, sc in forward.per_label.items():
            assert sc.precision == backward.per_label[label].recall


# ------------------------------------------------------------- criterion 5

def test_criterion_5_converter_properties():
    rng = random.Random(13)
    rbc = ConverterConfig()
    rbc2 = MODES["rbc2"]
    banned = {"obl", "advmod", "advcl"}
    for i in range(10_000):
        sent = random_sentence(rng, f"c{i}", max_tokens=10)
        seed_deps(sent)
        before = enhanced_edges(sent)

        out_rbc = convert(sent, rbc)
        added_default = enhanced_edges(out_rbc) - before
        assert before <= enhanced_edges(out_rbc)
        assert not {e for e in added_default if coarse(e.label) in banned}

        out_rbc2 = convert(sent, rbc2)
        assert before <= enhanced_edges(out_rbc2)
        again = convert(out_rbc2, rbc2)
        assert enhanced_edges(again) == enhanced_edges(out_rbc2)


# ------------------------------------------------------------- criterion 6

def test_criterion_6_classifier_properties():
    xor_x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    xor_y = np.array([-1.0, 1.0, 1.0, -1.0])
    model = train_svm(xor_x, xor_y, c=1.0)
    assert (model.predict(xor_x) == (xor_y > 0)).all()

    rng = np.random.default_rng(20)
    x = rng.normal(size=(40, 5))
    y = np.where(x[:, 0] * x[:, 1] + x[:, 2] > 0, 1.0, -1.0)
    trained = train_svm(x, y, c=2.0)
    probe = rng.normal(size=(25, 5))
    fast = trained.decision_function(probe)
    slow = np.array([
        sum(dc * float(sv @ p + 1.0) ** 2
            for sv, dc in zip(trained.support_vectors, trained.dual_coef))
        + trained.bias
        for p in probe])
    assert np.abs(fast - slow).max() < 1e-9

    gen = np.random.default_rng(3)
    params = {name: ad.Tensor(gen.normal(0.0, 0.5, shape),
                              requires_grad=True)
              for name, shape in [("w1", (6, 7)), ("b1", (7,)),
                                  ("w2", (7, 5)), ("b2", (5,)),
                                  ("w3", (5, 2)), ("b3", (2,))]}
    instance = gen.normal(size=6)
    mlp_loss(params, instance, target=1).backward()
    step = 1e-5
    worst = 0.0
    for tensor in params.values():
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(mlp_loss(params, instance, target=1).data)
            flat[i] = orig - step
            lo = float(mlp_loss(params, instance, target=1).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, abs(fd - grad[i]) / scale)
    assert worst < 1e-4


def test_criterion_6_kernel_beats_rule_converter_on_treebank():
    train = read_corpus_file(data_file("corrected", "en_ewt-ud-train.conllu"))
    test = read_corpus_file(data_file("corrected", "en_ewt-ud-test.conllu"))

    model = train_prop(train, "kernel")
    predicted = [apply_model(model, s) for s in strip_enhanced(test)]
    kernel_f1 = score(predicted, test).overall.f1

    converted = [convert_mode(s, "rbc") for s in strip_enhanced(test)]
    rbc_f1 = score(converted, test).overall.f1

    assert kernel_f1 > rbc_f1


# ------------------------------------------------------------- criterion 7

def test_criterion_7_edge_predictor_properties(monkeypatch):
    # gradients against central differences on a 3-token instance
    sent = make_sentence([("ate", "VERB", 0, "root"),
                          ("fish", "NOUN", 1, "obj"),
                          ("chips", "NOUN", 1, "obj")], sent_id="fd")
    seed_deps(sent)
    provider = hash_provider(dim=3, layers=2, seed=7)
    parser = new_parser(build_label_inventory([sent]), layers=2, dim=3,
                        hidden=4, seed=11)
    sentence_loss(parser, sent, provider).backward()
    step = 1e-5
    worst = 0.0
    for name in sorted(parser.params):
        tensor = parser.params[name]
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(sentence_loss(parser, sent, provider).data)
            flat[i] = orig - step
            lo = float(sentence_loss(parser, sent, provider).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, abs(fd - grad[i]) / scale)
    assert worst < 1e-4

    # decoding never leaves a token headless
    labels = ["∅", "a", "b"]
    gen = np.random.default_rng(99)
    for trial in range(1_000):
        n = int(gen.integers(1, 7))
        probs = gen.random((n + 1, n, len(labels)))
        if trial % 3 == 0:
            probs[:, :, 0] += 10.0  # no-edge dominates every pair
        assert all(decode_scores(probs, labels)), trial

    # a toy model memorizes a 50-sentence corpus
    started = time.perf_counter()
    rng = random.Random(42)
    corpus = []
    for i in range(50):
        s = random_sentence(rng, f"t{i}", max_tokens=8,
                            allow_empty_nodes=False)
        seed_deps(s)
        corpus.append(s)
    provider = hash_provider(dim=24, layers=1)
    inventory = build_label_inventory(corpus)
    toy = new_parser(inventory, layers=1, dim=24, hidden=48, seed=0)
    cfg = ParserTrainConfig(batch_size=5, lr=1e-2, epochs=1, seed=0)
    without_regularization(monkeypatch)
    optimizer = ad.AdamW(toy.parameters(), lr=cfg.lr)
    gen = np.random.default_rng(0)

    def edge_label_accuracy() -> float:
        hit = total = 0
        for i, s in enumerate(corpus):
            probs = score_pairs(toy, s, provider, i)
            ids = [t.id for t in s.words()]
            for t in s.words():
                for head, label in t.deps:
                    row = 0 if head == ROOT else ids.index(head) + 1
                    col = ids.index(t.id)
                    hit += int(np.argmax(probs[row, col])) \
                        == inventory.index(label)
                    total += 1
        return hit / total

    reached = None
    for epoch in range(1, 201):
        train_epoch(toy, corpus, provider, cfg, optimizer, gen)
        if epoch % 5 == 0 and edge_label_accuracy() >= 0.99:
            reached = epoch
            break
    assert reached is not None and reached <= 200
    assert time.perf_counter() - started < 600.0

    # a conjunct without its own marker inherits it from the first conjunct
    oblique = make_sentence([
        ("Paul", "PROPN", 2, "nsubj"), ("sat", "VERB", 0, "root"),
        ("On", "ADP", 4, "case"), ("chairs", "NOUN", 2, "obl"),
        ("and", "CCONJ", 6, "cc"), ("benches", "NOUN", 4, "conj"),
    ], sent_id="lex")
    assert lexicalize_label("obl:[case]", T(6), oblique) == "obl:on"
    assert lexicalize_label("obl:[case]", T(4), oblique) == "obl:on"


def test_criterion_7_delexicalization_on_gold_corpus():
    train = read_corpus_file(data_file("corrected", "en_ewt-ud-train.conllu"))
    rewritten, inventory = delexicalize_corpus(train)

    seen = {label for sent in rewritten for t in sent.tokens
            for _, label in t.deps}
    assert seen <= set(inventory)

    hits = total = 0
    for original, bare in zip(train, rewritten):
        for t_orig, t_bare in zip(original.tokens, bare.tokens):
            for (head, label), (_, placeholder) in zip(t_orig.deps,
                                                       t_bare.deps):
                total += 1
                hits += lexicalize_label(placeholder, t_bare.id,
                                         bare) == label
    assert total > 0
    assert hits / total >= 0.99


# ------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(tmp_path):
    fig1_path = os.path.join(os.path.dirname(__file__), "data",
                             "fig1.conllu")
    train_path = tmp_path / "train.conllu"
    train_path.write_text(prop_training_text())
    input_path = tmp_path / "in.conllu"
    input_path.write_text(prop_input_text())

    def pipeline(tag: str) -> list[bytes]:
        conv = tmp_path / f"conv_{tag}.conllu"
        prop_model = tmp_path / f"prop_{tag}.model"
        applied = tmp_path / f"applied_{tag}.conllu"
        report = tmp_path / f"report_{tag}.txt"
        edge_model = tmp_path / f"edge_{tag}.model"
        predicted = tmp_path / f"pred_{tag}.conllu"
        for argv in (
            ["convert", "--mode", "rbc2", "--in", fig1_path,
             "--out", str(conv)],
            ["train-prop", "--train", str(train_path),
             "--model", str(prop_model), "--seed", "5"],
            ["apply-prop", "--in", str(train_path),
             "--model", str(prop_model), "--out", str(applied)],
            ["evaluate", "--system", str(applied),
             "--gold", str(train_path), "--out", str(report)],
            ["train-parser", "--train", str(train_path),
             "--model", str(edge_model), "--hash-dim", "8",
             "--hidden", "8", "--epochs", "2", "--seed", "5"],
            ["predict", "--in", str(input_path), "--model", str(edge_model),
             "--out", str(predicted)],
        ):
            assert cli_main(argv) == 0, argv
        return [p.read_bytes() for p in (conv, prop_model, applied, report,
                                         edge_model, predicted)]

    assert pipeline("first") == pipeline("second")


def test_criterion_8_roundtrip_on_full_treebank():
    for part in ("train", "dev", "test"):
        path = data_file("ewt", f"en_ewt-ud-{part}.conllu")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert write_corpus(parse_corpus(text)) == text, part
