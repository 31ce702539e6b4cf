import functools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_sentence, random_sentence
from conjprop.conllu import ROOT, Token, TokenId, parse_corpus, write_corpus
from conjprop import autodiff as ad
from conjprop import edgepred
from conjprop.edgepred import (
    NO_EDGE, EdgeParser, EdgePredError, ParserTrainConfig, _gold_grid,
    build_label_inventory, decode, decode_scores, mixture_weights,
    new_parser, score_pairs, sentence_loss, train_epoch, train_parser,
)
from conjprop.config import TrainingError
from conjprop.embeddings import (EmbeddingError, EmbeddingProvider,
                                  hash_provider, read_sidecar, write_sidecar)
from conjprop.labels import delexicalize_corpus
from conjprop.modelfile import save_model

T = TokenId


def gold_sentence(sent_id="g1", extra_label="obj"):
    sent = make_sentence([
        ("ate", "VERB", 0, "root"),
        ("fish", "NOUN", 1, extra_label),
        ("chips", "NOUN", 1, extra_label),
    ], sent_id=sent_id)
    for t in sent.tokens:
        t.deps = [(t.head, t.deprel)]
    return sent


def tiny_corpus():
    return [gold_sentence(f"g{i}") for i in range(3)]


def word_stacks(provider: EmbeddingProvider, sent) -> np.ndarray:
    """The provider's vectors of sent's words, shape (n, layers, dim)."""
    words = sent.words()
    return np.stack([provider.lookup(sent.sent_id, t.id, t.form)
                     for t in words]).reshape(len(words), provider.layers,
                                              provider.dim)


def straight_line_probs(parser: EdgeParser, stacks: np.ndarray) -> np.ndarray:
    """Independent recomputation of score_pairs with plain loops."""
    p = {k: t.data for k, t in parser.params.items()}
    e = np.exp(p["mix_logits"] - p["mix_logits"].max())
    weights = e / e.sum()
    tokens = np.tensordot(weights, stacks, axes=(0, 1))
    reps = np.vstack([p["root_embed"][None, :], tokens])
    h_head = np.maximum(reps @ p["w_head"] + p["b_head"], 0.0)
    h_dep = np.maximum(reps[1:] @ p["w_dep"] + p["b_dep"], 0.0)
    hidden = parser.hidden
    n_labels = len(parser.labels)
    scores = np.empty((reps.shape[0], h_dep.shape[0], n_labels))
    for i in range(reps.shape[0]):
        for j in range(h_dep.shape[0]):
            for k in range(n_labels):
                scores[i, j, k] = (
                    h_head[i] @ p["bilinear"][k] @ h_dep[j]
                    + p["linear"][:hidden, k] @ h_head[i]
                    + p["linear"][hidden:, k] @ h_dep[j]
                    + p["bias"][k])
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def test_zeroed_interactions_reduce_to_softmax_of_bias():
    sent = gold_sentence()
    provider = hash_provider(dim=4, layers=2)
    parser = new_parser([NO_EDGE, "a", "b"], layers=2, dim=4, hidden=5)
    parser.params["bilinear"].data[:] = 0.0
    parser.params["linear"].data[:] = 0.0
    bias = np.array([0.3, -0.2, 1.1])
    parser.params["bias"].data[:] = bias
    probs = score_pairs(parser, sent, provider)
    expected = np.exp(bias - bias.max())
    expected /= expected.sum()
    assert probs.shape == (4, 3, 3)
    assert np.allclose(probs, expected, atol=1e-12)


def test_decoded_graphs_reparse_without_self_loops():
    rng = random.Random(5)
    corpus = [random_sentence(rng, f"r{k}", allow_empty_nodes=k % 2 == 0)
              for k in range(25)]
    provider = hash_provider(dim=4, layers=2, seed=1)
    parser = new_parser([NO_EDGE, "dep", "obj"], layers=2, dim=4, hidden=6,
                        seed=2)
    # every pair prefers an edge, so the self-loop pairs do as well
    parser.params["bias"].data[:] = [0.0, 3.0, 2.0]
    decoded = [decode(parser, sent, provider, k)
               for k, sent in enumerate(corpus)]
    reparsed = parse_corpus(write_corpus(decoded))
    assert len(reparsed) == len(corpus)
    for sent in reparsed:
        for tok in sent.words():
            assert tok.deps
            assert all(head != tok.id for head, _ in tok.deps)


def test_scores_match_straight_line_recomputation():
    sent = gold_sentence()
    provider = hash_provider(dim=5, layers=3, seed=2)
    parser = new_parser([NO_EDGE, "obj", "root"], layers=3, dim=5,
                        hidden=6, seed=9)
    parser.params["mix_logits"].data[:] = [0.2, -0.4, 1.0]
    stacks = word_stacks(provider, sent)
    probs = score_pairs(parser, sent, provider)
    assert np.abs(probs - straight_line_probs(parser, stacks)).max() < 1e-12

    # more labels and tokens, parameters far from the near-uniform start
    sent = make_sentence([(f"w{k}", "NOUN", 0 if k == 0 else 1, "obj")
                          for k in range(7)], sent_id="wide")
    provider = hash_provider(dim=5, layers=1, seed=3)
    parser = new_parser([NO_EDGE] + [f"l{k}" for k in range(12)], layers=1,
                        dim=5, hidden=64, seed=8)
    rng = np.random.default_rng(1)
    for tensor in parser.params.values():
        tensor.data[...] = rng.normal(0.0, 0.5, tensor.data.shape)
    stacks = word_stacks(provider, sent)
    probs = score_pairs(parser, sent, provider)
    assert np.abs(probs - straight_line_probs(parser, stacks)).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_starts_at_zero_and_one_batch_moves_every_slice(dtype):
    corpus = [gold_sentence(f"g{i}", extra_label) for i, extra_label
              in enumerate(("obj", "nsubj", "obl"))]
    provider = hash_provider(dim=5, layers=3, seed=1)
    parser = new_parser(build_label_inventory(corpus), layers=3, dim=5,
                        hidden=8, seed=2, dtype=dtype)
    bilinear = parser.params["bilinear"].data
    assert bilinear.dtype == dtype and not bilinear.any()
    # the untrained parser scores from its linear term and bias
    for k, sent in enumerate(corpus):
        stacks = word_stacks(provider, sent)
        probs = score_pairs(parser, sent, provider, k)
        assert np.abs(probs - straight_line_probs(parser, stacks)).max() \
            < (1e-6 if dtype == np.float32 else 1e-12)

    train_epoch(parser, corpus, provider,
                ParserTrainConfig(batch_size=len(corpus)),
                ad.AdamW(parser.parameters(), lr=1e-2),
                np.random.default_rng(0))
    assert parser.params["bilinear"].data is bilinear
    slices = [s.tobytes() for s in bilinear]
    # each label's slice has left zero, each along its own gradient
    assert all(s.any() for s in bilinear)
    assert len(set(slices)) == len(slices) == len(parser.labels)


def packed_setup(hidden=32):
    """Sentences of different lengths and a parser far from its start."""
    corpus = [make_sentence([(f"w{k}", "NOUN", 0 if k == 0 else 1,
                              "root" if k == 0 else "obj")
                             for k in range(length)], sent_id=f"p{length}")
              for length in (4, 1, 7, 2)]
    for sent in corpus:
        for t in sent.tokens:
            t.deps = [(t.head, t.deprel)]
    provider = hash_provider(dim=5, layers=3, seed=4)
    parser = new_parser(build_label_inventory(corpus) + ["x", "y"],
                        layers=3, dim=5, hidden=hidden, seed=3)
    rng = np.random.default_rng(2)
    for tensor in parser.params.values():
        tensor.data[...] = rng.normal(0.0, 0.5, tensor.data.shape)
    return corpus, provider, parser


def test_packed_scores_match_a_batch_of_one():
    corpus, provider, parser = packed_setup()
    stacks = [edgepred._token_stacks(parser, sent, provider, k)
              for k, sent in enumerate(corpus)]
    packed = edgepred._forward_scores(parser, stacks)
    for k, sent in enumerate(corpus):
        alone = edgepred._forward_scores(parser, [stacks[k]])[0]
        assert packed[k].data.shape == alone.data.shape
        assert np.abs(packed[k].data - alone.data).max() <= 1e-12
        probs = score_pairs(parser, sent, provider, k)
        assert np.abs(ad.softmax(packed[k].data) - probs).max() <= 1e-12


@pytest.mark.parametrize("batch_size", [1, 3, 5])
def test_decode_corpus_matches_decode(batch_size):
    corpus, provider, parser = packed_setup()
    decoded = list(edgepred.decode_corpus(parser, corpus, provider,
                                          batch_size))
    assert write_corpus(decoded) == write_corpus(
        decode(parser, sent, provider, k) for k, sent in enumerate(corpus))


def test_decode_corpus_decodes_a_stream_as_its_list():
    _, provider, parser = packed_setup()
    # 7 sentences without a sent_id, each keyed by its corpus position, so
    # the second batch of 5 must go on counting from 5
    corpus = [make_sentence([("w0", "NOUN", 0, "root")]
                            + [(f"w{k}", "NOUN", 1, "obj")
                               for k in range(1, length)])
              for length in (4, 3, 5, 2, 4, 3, 5)]
    for sent in corpus:
        sent.comments = []
    listed = write_corpus(edgepred.decode_corpus(parser, corpus, provider, 5))
    streamed = write_corpus(edgepred.decode_corpus(
        parser, (sent for sent in corpus), provider, 5))
    assert streamed == listed == write_corpus(
        decode(parser, sent, provider, k) for k, sent in enumerate(corpus))
    # an index that restarted with each batch would change what is decoded
    assert write_corpus([decode(parser, corpus[6], provider, 1)]) != \
        write_corpus([decode(parser, corpus[6], provider, 6)])


def test_packed_batch_gradient_is_the_sum_of_sentence_gradients():
    corpus, provider, parser = packed_setup()
    # dropouts and token masking on: the draws must come in sentence order
    weight = np.array(1.0 / len(corpus))

    losses = edgepred.batch_losses(parser, corpus, provider,
                                   list(range(len(corpus))),
                                   np.random.default_rng(5))
    functools.reduce(ad.add, losses).backward(weight)
    packed = {k: t.grad for k, t in parser.params.items()}

    # the loop that trained before packing: one backward per sentence
    for t in parser.params.values():
        t.grad = None
    rng = np.random.default_rng(5)
    for k, sent in enumerate(corpus):
        loss = sentence_loss(parser, sent, provider, k, rng)
        assert abs(float(loss.data) - float(losses[k].data)) <= 1e-12
        loss.backward(weight)
    for name, tensor in parser.params.items():
        assert np.abs(packed[name] - tensor.grad).max() <= 1e-12, name


def test_train_parser_keeps_the_parameters_when_the_final_epoch_is_best(
        monkeypatch):
    corpus = tiny_corpus()
    provider = hash_provider(dim=4, layers=2)
    scores = iter([0.2, 0.5, 0.7])
    monkeypatch.setattr(edgepred, "_dev_f1", lambda *args: next(scores))
    arrays = {}
    real_new_parser = edgepred.new_parser

    def new_parser_kept(*args):
        parser = real_new_parser(*args)
        arrays.update((name, t.data) for name, t in parser.params.items())
        return parser

    monkeypatch.setattr(edgepred, "new_parser", new_parser_kept)
    parser = train_parser(corpus, provider, ParserTrainConfig(
        lr=1e-2, epochs=3, seed=4, hidden=6), dev=corpus)
    # AdamW updates in place, and no snapshot replaced the arrays
    assert arrays
    for name, tensor in parser.params.items():
        assert tensor.data is arrays[name]


def test_train_footprint_counts_every_parameter_sized_array():
    corpus = tiny_corpus()
    labels = build_label_inventory(corpus)
    parser = new_parser(labels, layers=2, dim=4, hidden=6)
    param_bytes = sum(t.data.nbytes for t in parser.params.values())
    optimizer = ad.AdamW(parser.parameters(), lr=1.0)
    scratch = optimizer._scratch.nbytes
    # every gradient but the bilinear tensor's, of which one label slice
    bilinear = parser.params["bilinear"].data
    grads = param_bytes - bilinear.nbytes + bilinear[0].nbytes
    assert edgepred.train_footprint(len(labels), 2, 4, 6, False) == (
        param_bytes, 3 * param_bytes + grads + scratch)
    assert edgepred.train_footprint(len(labels), 2, 4, 6, True) == (
        param_bytes, 4 * param_bytes + grads + scratch)


def test_sliced_bilinear_updates_match_adamw_step_over_the_tape_gradient():
    corpus, provider, parser = packed_setup()
    reference = EdgeParser(parser.labels, parser.layers, parser.dim,
                           parser.hidden, {name: ad.Tensor(
                               t.data.copy(), requires_grad=True)
                               for name, t in parser.params.items()})
    # dropouts and token masking on; two epochs of two batches of two
    cfg = ParserTrainConfig(batch_size=2, lr=1e-2)
    optimizer = ad.AdamW(parser.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(5)
    for _ in range(2):
        train_epoch(parser, corpus, provider, cfg, optimizer, rng)
    assert parser.params["bilinear"].grad is None

    # the same draws, with the whole bilinear gradient on the tape
    optimizer = ad.AdamW(reference.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(5)
    batches = 0
    for _ in range(2):
        order = rng.permutation(len(corpus))
        for start in range(0, len(order), cfg.batch_size):
            batch = [int(k) for k in order[start:start + cfg.batch_size]]
            optimizer.zero_grad()
            losses = edgepred.batch_losses(
                reference, [corpus[k] for k in batch], provider, batch, rng)
            functools.reduce(ad.add, losses).backward(
                np.array(1.0 / len(batch)))
            assert reference.params["bilinear"].grad is not None
            optimizer.step()
            batches += 1
    assert batches >= 3
    for name, tensor in parser.params.items():
        assert tensor.data.tobytes() == \
            reference.params[name].data.tobytes(), name


def test_a_training_batch_allocates_less_than_the_bilinear_tensor():
    # hidden well above the 18 packed rows, as at the paper's 1024
    corpus, provider, parser = packed_setup(hidden=512)
    cfg = ParserTrainConfig(batch_size=len(corpus))
    # the moments exist before the batch, as they do from the second on
    optimizer = ad.AdamW(parser.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        train_epoch(parser, corpus, provider, cfg, optimizer, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < parser.params["bilinear"].data.nbytes


def test_label_distributions_sum_to_one():
    sent = gold_sentence()
    provider = hash_provider(dim=6, layers=1)
    parser = new_parser([NO_EDGE, "obj", "root", "nsubj"], layers=1, dim=6,
                        hidden=8, seed=4)
    probs = score_pairs(parser, sent, provider)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


def test_permuting_tokens_permutes_score_slices():
    sent = make_sentence([
        ("a", "NOUN", 0, "root"), ("b", "NOUN", 1, "obj"),
        ("c", "NOUN", 1, "obj"), ("d", "NOUN", 1, "obj"),
    ], sent_id="perm")
    provider = hash_provider(dim=4, layers=2, seed=5)
    perm = [2, 0, 3, 1]
    table = {("perm", T(k + 1)): provider.lookup(
        "perm", T(perm[k] + 1), sent.tokens[perm[k]].form) for k in range(4)}
    shuffled = EmbeddingProvider(table, dim=4, layers=2)

    parser = new_parser([NO_EDGE, "x"], layers=2, dim=4, hidden=5, seed=6)
    base = score_pairs(parser, sent, provider)
    moved = score_pairs(parser, sent, shuffled)
    for j in range(4):
        assert np.allclose(moved[0, j], base[0, perm[j]], atol=1e-12)
        for i in range(4):
            assert np.allclose(moved[1 + i, j],
                               base[1 + perm[i], perm[j]], atol=1e-12)


def test_all_parameter_gradients_match_finite_differences():
    corpus = [gold_sentence()]
    provider = hash_provider(dim=3, layers=2, seed=7)
    parser = new_parser(build_label_inventory(corpus), layers=2, dim=3,
                        hidden=4, seed=11)
    sentence_loss(parser, corpus[0], provider).backward()

    step = 1e-5
    worst = 0.0
    for name in sorted(parser.params):
        tensor = parser.params[name]
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(sentence_loss(parser, corpus[0], provider).data)
            flat[i] = orig - step
            lo = float(sentence_loss(parser, corpus[0], provider).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, abs(fd - grad[i]) / scale)
    assert worst < 1e-4


def test_untrained_loss_is_near_uniform_cross_entropy():
    sent = make_sentence([
        ("one", "NOUN", 0, "root"), ("two", "NOUN", 1, "nsubj"),
        ("three", "NOUN", 1, "obj"), ("four", "NOUN", 1, "obj"),
        ("five", "NOUN", 1, "nsubj"),
    ], sent_id="u1")
    for t in sent.tokens:
        t.deps = [(t.head, t.deprel)]
    provider = hash_provider(dim=8, layers=2, seed=1)
    parser = new_parser(build_label_inventory([sent]), layers=2, dim=8,
                        hidden=16, seed=0)
    loss = float(sentence_loss(parser, sent, provider).data)
    target = math.log(len(parser.labels))
    assert abs(loss - target) <= 0.1 * target


def test_one_hot_mixture_reproduces_a_single_layer_model():
    sent = gold_sentence()
    two = hash_provider(dim=4, layers=2, seed=3)
    one = EmbeddingProvider(
        {(sent.sent_id, t.id): two.lookup(sent.sent_id, t.id, t.form)[0]
         for t in sent.tokens}, dim=4, layers=1)

    a = new_parser([NO_EDGE, "obj", "root"], layers=2, dim=4, hidden=5,
                   seed=8)
    a.params["mix_logits"].data[:] = [1e30, 0.0]
    b = new_parser([NO_EDGE, "obj", "root"], layers=1, dim=4, hidden=5,
                   seed=8)
    for name in b.params:
        if name != "mix_logits":
            b.params[name].data[:] = a.params[name].data
    pa = score_pairs(a, sent, two)
    pb = score_pairs(b, sent, one)
    assert pa.tobytes() == pb.tobytes()


def test_mixture_weights_survive_extreme_logits():
    parser = new_parser([NO_EDGE, "x"], layers=3, dim=2, hidden=2)
    parser.params["mix_logits"].data[:] = [1000.0, -1000.0, 0.0]
    w = mixture_weights(parser)
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1.0) < 1e-12


def test_decode_scores_reads_argmax_edges():
    labels = [NO_EDGE, "a", "b"]
    probs = np.zeros((3, 2, 3))
    probs[:, :, 0] = 0.8
    probs[2, 0] = [0.05, 0.05, 0.9]
    probs[0, 1] = [0.1, 0.9, 0.0]
    probs[1, 1] = [0.1, 0.8, 0.1]
    # the self-loop pairs (j+1, j) are never read as edges
    probs[1, 0] = [0.0, 1.0, 0.0]
    probs[2, 1] = [0.0, 0.0, 1.0]
    assert decode_scores(probs, labels) == [[(2, "b")], [(0, "a"), (1, "a")]]


def test_headless_fallback_never_picks_the_dependent_itself():
    labels = [NO_EDGE, "a"]
    probs = np.zeros((3, 2, 2))
    probs[:, :, 0] = 0.9
    probs[1, 0, 1] = 0.5  # self-loop of dependent 0
    probs[2, 0, 1] = 0.1
    probs[2, 1, 1] = 0.5  # self-loop of dependent 1
    assert decode_scores(probs, labels) == [[(2, "a")], [(0, "a")]]


def test_headless_fallback_breaks_ties_toward_low_label_and_head():
    labels = [NO_EDGE, "a", "b"]
    probs = np.full((3, 2, 3), 1.0 / 3.0)
    assert decode_scores(probs, labels) == [[(0, "a")], [(0, "a")]]


def test_headless_fallback_picks_best_scoring_alternative():
    labels = [NO_EDGE, "a", "b"]
    probs = np.full((3, 2, 3), 0.0)
    probs[:, :, 0] = 0.9
    probs[2, 0, 1] = 0.08
    probs[1, 0, 2] = 0.05
    probs[0, 1, 2] = 0.07
    out = decode_scores(probs, labels)
    assert out == [[(2, "a")], [(0, "b")]]


def test_decode_guarantees_a_head_for_every_token():
    sent = gold_sentence()
    provider = hash_provider(dim=4, layers=1)
    parser = new_parser([NO_EDGE, "dep", "obj"], layers=1, dim=4, hidden=5)
    parser.params["bilinear"].data[:] = 0.0
    parser.params["linear"].data[:] = 0.0
    parser.params["bias"].data[:] = [5.0, 1.0, 1.0]
    out = decode(parser, sent, provider)
    for tok in out.words():
        assert tok.deps == [(ROOT, "dep")]


def test_decode_lexicalizes_placeholder_labels():
    sent = make_sentence([
        ("Paul", "PROPN", 2, "nsubj"),
        ("sat", "VERB", 0, "root"),
        ("on", "ADP", 4, "case"),
        ("chairs", "NOUN", 2, "obl"),
        ("and", "CCONJ", 6, "cc"),
        ("benches", "NOUN", 4, "conj"),
    ], sent_id="lex")
    provider = hash_provider(dim=4, layers=1)
    parser = new_parser([NO_EDGE, "obl:[case]"], layers=1, dim=4, hidden=5)
    parser.params["bilinear"].data[:] = 0.0
    parser.params["linear"].data[:] = 0.0
    parser.params["bias"].data[:] = [0.0, 5.0]
    out = decode(parser, sent, provider)
    by_id = out.token_by_id()
    assert {label for _, label in by_id[T(4)].deps} == {"obl:on"}
    assert {label for _, label in by_id[T(6)].deps} == {"obl:on"}
    assert {label for _, label in by_id[T(1)].deps} == {"obl"}


def test_zero_learning_rate_leaves_parameters_bit_identical():
    corpus = tiny_corpus()
    provider = hash_provider(dim=4, layers=2)
    parser = new_parser(build_label_inventory(corpus), layers=2, dim=4,
                        hidden=5, seed=1)
    before = {k: t.data.tobytes() for k, t in parser.params.items()}
    train_epoch(parser, corpus, provider, ParserTrainConfig(),
                ad.AdamW(parser.parameters(), lr=0.0),
                np.random.default_rng(0))
    after = {k: t.data.tobytes() for k, t in parser.params.items()}
    assert before == after


def without_regularization(monkeypatch):
    """Sets the parser's token masking and dropout rates to 0."""
    for name in ("TOKEN_MASK_PROB", "LAYER_DROPOUT", "OUTPUT_DROPOUT",
                 "FNN_DROPOUT"):
        monkeypatch.setattr(edgepred, name, 0.0)


def test_training_reduces_the_loss(monkeypatch):
    without_regularization(monkeypatch)
    corpus = tiny_corpus()
    provider = hash_provider(dim=4, layers=2)
    parser = new_parser(build_label_inventory(corpus), layers=2, dim=4,
                        hidden=8, seed=2)
    cfg = ParserTrainConfig()
    optimizer = ad.AdamW(parser.parameters(), lr=1e-2)
    rng = np.random.default_rng(0)
    first = train_epoch(parser, corpus, provider, cfg, optimizer, rng)
    last = first
    for _ in range(4):
        last = train_epoch(parser, corpus, provider, cfg, optimizer, rng)
    assert last < first


def test_train_parser_restores_the_best_dev_epoch(monkeypatch):
    corpus = tiny_corpus()
    provider = hash_provider(dim=4, layers=2)
    scores = iter([0.2, 0.5, 0.4, 0.3, 0.9])
    monkeypatch.setattr(edgepred, "_dev_f1", lambda *args: next(scores))
    cfg = ParserTrainConfig(lr=1e-2, epochs=5, patience=2, seed=4, hidden=6)
    lines = []
    parser = train_parser(corpus, provider, cfg, dev=corpus,
                          log=lines.append)
    assert lines[0].startswith("# parser labels ")
    assert [line.split(" dev-f1 ")[1] for line in lines[1:-1]] == [
        "20.00", "50.00", "40.00", "30.00"]
    assert lines[-1] == "# stopping early at epoch 4"

    # decoding the dev set draws no random numbers, so two epochs without
    # a dev set reach the parameters of the best epoch
    plain = []
    again = train_parser(corpus, provider,
                         ParserTrainConfig(lr=1e-2, epochs=2, seed=4,
                                           hidden=6), log=plain.append)
    assert [line.split(" loss ")[0] for line in plain[1:]] == [
        "# epoch 1", "# epoch 2"]
    for name, tensor in parser.params.items():
        assert tensor.data.tobytes() == again.params[name].data.tobytes()


def test_dev_f1_scores_the_labels_that_decoding_writes(monkeypatch):
    sent = make_sentence([
        ("Paul", "PROPN", 2, "nsubj"),
        ("sat", "VERB", 0, "root"),
        ("on", "ADP", 4, "case"),
        ("chairs", "NOUN", 2, "obl"),
        ("and", "CCONJ", 6, "cc"),
        ("benches", "NOUN", 4, "conj"),
    ], sent_id="lex")
    for t in sent.tokens:
        t.deps = [(t.head, t.deprel)]
    by_id = sent.token_by_id()
    by_id[T(4)].deps = [(T(2), "obl:on")]
    by_id[T(6)].deps = [(T(2), "obl:on"), (T(4), "conj:and")]
    corpus = [sent]
    delexicalized, _ = delexicalize_corpus(corpus)
    gold = iter(delexicalized)
    real_forward = edgepred._forward_scores

    def perfect_when_decoding(parser, batch, rng=None, bilinear_inputs=None):
        if rng is not None:
            return real_forward(parser, batch, rng, bilinear_inputs)
        # a score grid that puts the gold placeholder label on every pair
        return [ad.Tensor(50.0 * np.eye(len(parser.labels))[
            _gold_grid(parser, next(gold))]) for _ in batch]

    monkeypatch.setattr(edgepred, "_forward_scores", perfect_when_decoding)
    lines = []
    parser = train_parser(corpus, hash_provider(dim=4, layers=1),
                          ParserTrainConfig(epochs=1, hidden=5,
                                            delexicalize=True),
                          dev=corpus, log=lines.append)
    assert {"obl:[case]", "conj:[cc]"} <= set(parser.labels)
    assert lines[-1].endswith(" dev-f1 100.00")


def test_inference_is_deterministic():
    sent = gold_sentence()
    provider = hash_provider(dim=4, layers=2)
    parser = new_parser([NO_EDGE, "obj", "root"], layers=2, dim=4, hidden=5)
    a = score_pairs(parser, sent, provider)
    b = score_pairs(parser, sent, provider)
    assert a.tobytes() == b.tobytes()


def test_save_load_round_trip(tmp_path):
    corpus = tiny_corpus()
    provider = hash_provider(dim=4, layers=2)
    parser = new_parser(build_label_inventory(corpus), layers=2, dim=4,
                        hidden=5, seed=3)
    path = tmp_path / "parser.model"
    parser.save(path)
    again = EdgeParser.load(path)
    assert again.labels == parser.labels
    assert (again.layers, again.dim, again.hidden) == (2, 4, 5)
    for name, tensor in parser.params.items():
        assert again.params[name].data.tobytes() == tensor.data.tobytes()
    a = score_pairs(parser, corpus[0], provider)
    b = score_pairs(again, corpus[0], provider)
    assert a.tobytes() == b.tobytes()


def test_load_rejects_other_model_kinds(tmp_path):
    path = tmp_path / "other.model"
    save_model(path, "kernel", {"vocab": {}}, {"bias": np.zeros(1)})
    with pytest.raises(EdgePredError, match="not an edge parser"):
        EdgeParser.load(path)


def test_provider_shape_mismatch_raises():
    sent = gold_sentence()
    parser = new_parser([NO_EDGE, "obj", "root"], layers=2, dim=4, hidden=5)
    for layers, dim in ((1, 4), (2, 3)):
        with pytest.raises(EmbeddingError, match=re.escape(
                f"the vectors have {layers} layer(s) of dimension {dim}; "
                "the model reads 2 layer(s) of dimension 4")):
            score_pairs(parser, sent, hash_provider(dim=dim, layers=layers))


def test_unknown_gold_label_raises():
    sent = gold_sentence(extra_label="xcomp")
    provider = hash_provider(dim=4, layers=1)
    parser = new_parser([NO_EDGE, "obj", "root"], layers=1, dim=4, hidden=5)
    with pytest.raises(EdgePredError, match="'xcomp'"):
        sentence_loss(parser, sent, provider)


def test_gold_grid_keeps_the_first_sorted_label_per_pair():
    sent = gold_sentence()
    sent.token_by_id()[T(2)].deps = [(T(1), "ccomp"), (T(1), "obj")]
    parser = new_parser([NO_EDGE, "ccomp", "obj", "root"], layers=1, dim=4,
                        hidden=5)
    grid = _gold_grid(parser, sent)
    assert grid[1, 1] == parser.label_index["ccomp"]
    assert grid[0, 0] == parser.label_index["root"]
    assert grid[0, 1] == 0


def test_gold_grid_does_not_depend_on_the_deps_order():
    grids = []
    for deps in (["nsubj", "nsubj:xsubj"], ["nsubj:xsubj", "nsubj"]):
        sent = gold_sentence()
        sent.token_by_id()[T(2)].deps = [(T(1), label) for label in deps]
        parser = new_parser([NO_EDGE, "nsubj", "nsubj:xsubj", "obj", "root"],
                            layers=1, dim=4, hidden=5)
        grids.append(_gold_grid(parser, sent))
    assert grids[0][1, 1] == grids[1][1, 1] == 1  # nsubj
    assert (grids[0] == grids[1]).all()


def test_label_inventory_skips_empty_node_edges():
    sent = gold_sentence()
    sent.tokens.insert(2, Token(
        id=T(1, 1), form="E", lemma="E", upos="VERB", xpos="_", feats={},
        head=None, deprel=None, deps=[(T(1), "ref")], misc="_"))
    sent.token_by_id()[T(3)].deps = [(T(1, 1), "acl")]
    inventory = build_label_inventory([sent])
    assert inventory == [NO_EDGE, "obj", "root"]


def empty_node_sentence(sent_id="e1"):
    """gold_sentence with an empty node 3.1 that has DEPS of its own, and
    a word whose DEPS include an edge from 3.1."""
    sent = gold_sentence(sent_id)
    sent.tokens.append(Token(
        id=T(3, 1), form="E", lemma="E", upos="VERB", xpos="_", feats={},
        head=None, deprel=None, deps=[(T(1), "conj")], misc="_"))
    sent.token_by_id()[T(3)].deps = [(T(1), "obj"), (T(3, 1), "obj")]
    return sent


def test_training_skips_edges_that_touch_an_empty_node():
    corpus = [empty_node_sentence(f"e{i}") for i in range(3)]
    provider = hash_provider(dim=4, layers=2)
    labels = build_label_inventory(corpus)
    assert labels == [NO_EDGE, "obj", "root"]
    parser = new_parser(labels, layers=2, dim=4, hidden=6, seed=1)
    assert (_gold_grid(parser, corpus[0])
            == _gold_grid(parser, gold_sentence())).all()
    losses = edgepred.batch_losses(parser, corpus, provider, [0, 1, 2])
    assert all(np.isfinite(loss.data) for loss in losses)
    assert np.isfinite(train_epoch(parser, corpus, provider,
                                   ParserTrainConfig(batch_size=2),
                                   ad.AdamW(parser.parameters(), lr=1e-2),
                                   np.random.default_rng(0)))


def test_decoding_keeps_the_deps_of_an_empty_node():
    sent = empty_node_sentence()
    provider = hash_provider(dim=4, layers=2)
    parser = new_parser([NO_EDGE, "obj", "root"], layers=2, dim=4, hidden=6,
                        seed=1)
    decoded = decode(parser, sent, provider)
    assert decoded.token_by_id()[T(3, 1)].deps == [(T(1), "conj")]
    again = parse_corpus(write_corpus([decoded]))[0]
    assert again.token_by_id()[T(3, 1)].deps == [(T(1), "conj")]
    assert [t.deps for t in again.words()] == [
        t.deps for t in decoded.words()]


def test_a_parser_too_big_for_memory_is_refused_before_it_allocates(
        monkeypatch):
    labels = build_label_inventory(tiny_corpus())
    param_bytes, _ = edgepred.train_footprint(len(labels), 2, 4, 6, False)
    monkeypatch.setattr(edgepred, "physical_memory", lambda: param_bytes - 1)
    with pytest.raises(EdgePredError, match=(
            f"hidden 6 with 3 labels needs {param_bytes} bytes for its "
            f"parameters, more than the {param_bytes - 1} bytes")):
        new_parser(labels, layers=2, dim=4, hidden=6)
    monkeypatch.setattr(edgepred, "physical_memory", lambda: param_bytes)
    new_parser(labels, layers=2, dim=4, hidden=6)


def test_training_that_exceeds_memory_fails_before_the_optimizer(
        monkeypatch):
    corpus = tiny_corpus()
    provider = hash_provider(dim=4, layers=2)
    param_bytes, plain = edgepred.train_footprint(3, 2, 4, 6, False,
                                                  np.float32)
    _, with_dev = edgepred.train_footprint(3, 2, 4, 6, True, np.float32)
    monkeypatch.setattr(edgepred, "physical_memory", lambda: plain)
    cfg = ParserTrainConfig(lr=1e-2, epochs=2, seed=4, hidden=6)
    lines = []
    # the early-stopping snapshot is one parameter copy more
    with pytest.raises(EdgePredError, match=(
            f"hidden 6 with 3 labels needs {with_dev} bytes to train, more "
            f"than the {plain} bytes of physical memory")):
        train_parser(corpus, provider, cfg, dev=corpus, log=lines.append)
    # nothing logged: the "# parser" line comes before the optimizer
    assert lines == []
    train_parser(corpus, provider, cfg, log=lines.append)
    assert lines[0] == (f"# parser labels 3 param-bytes {param_bytes} "
                        f"train-bytes {plain} dtype float32")


def test_a_float32_parser_starts_from_the_float64_draws_cast():
    labels = [NO_EDGE, "obj", "root"]
    wide = new_parser(labels, layers=2, dim=4, hidden=5, seed=3)
    narrow = new_parser(labels, layers=2, dim=4, hidden=5, seed=3,
                        dtype=np.float32)
    assert narrow.dtype == np.float32
    for name, tensor in wide.params.items():
        assert narrow.params[name].data.tobytes() == \
            tensor.data.astype(np.float32).tobytes(), name


def test_float32_scores_match_float64_and_round_trip(tmp_path):
    corpus, provider, wide = packed_setup()
    narrow = EdgeParser(wide.labels, wide.layers, wide.dim, wide.hidden, {
        name: ad.Tensor(t.data.astype(np.float32), requires_grad=True)
        for name, t in wide.params.items()})
    stacks = edgepred._token_stacks(narrow, corpus[0], provider)
    assert stacks.dtype == np.float32
    for k, sent in enumerate(corpus):
        probs = score_pairs(narrow, sent, provider, k)
        assert np.abs(probs - score_pairs(wide, sent, provider, k)).max() \
            < 1e-5
    path = tmp_path / "parser.model"
    narrow.save(path)
    again = EdgeParser.load(path)
    for name, tensor in narrow.params.items():
        assert again.params[name].data.dtype == np.float32
        assert again.params[name].data.tobytes() == tensor.data.tobytes()


def test_train_footprint_in_float32_counts_four_bytes_per_element():
    labels = build_label_inventory(tiny_corpus())
    parser = new_parser(labels, layers=2, dim=4, hidden=6, dtype=np.float32)
    param_bytes = sum(t.data.nbytes for t in parser.params.values())
    scratch = ad.AdamW(parser.parameters(), lr=1.0)._scratch.nbytes
    bilinear = parser.params["bilinear"].data
    grads = param_bytes - bilinear.nbytes + bilinear[0].nbytes
    assert edgepred.train_footprint(len(labels), 2, 4, 6, True,
                                    np.float32) == (
        param_bytes, 4 * param_bytes + grads + scratch)
    assert 2 * param_bytes == edgepred.train_footprint(
        len(labels), 2, 4, 6, True)[0]


def test_training_records_the_kind_of_its_provider(tmp_path):
    corpus = tiny_corpus()
    write_sidecar(tmp_path / "tiny.vec", hash_provider(dim=4, layers=2),
                  corpus)
    sidecar = read_sidecar(tmp_path / "tiny.vec")
    labels = build_label_inventory(corpus)
    # train_parser records it even when no epoch runs
    train_parser(corpus, sidecar, ParserTrainConfig(epochs=0, hidden=5)).save(
        tmp_path / "p.model")
    assert EdgeParser.load(tmp_path / "p.model").vectors == "sidecar"
    # and train_epoch records the provider it was given last
    parser = new_parser(labels, layers=2, dim=4, hidden=5)
    cfg = ParserTrainConfig()
    optimizer = ad.AdamW(parser.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(0)
    train_epoch(parser, corpus, sidecar, cfg, optimizer, rng)
    assert parser.vectors == "sidecar"
    train_epoch(parser, corpus, hash_provider(dim=4, layers=2), cfg,
                optimizer, rng)
    assert parser.vectors == "hash"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # check_loss reports
def test_a_diverging_parser_raises_training_error():
    corpus = tiny_corpus()
    # float32, as train_parser trains, overflows where float64 does not
    with pytest.raises(TrainingError, match="training diverged"):
        train_parser(corpus, hash_provider(dim=4, layers=2),
                     ParserTrainConfig(lr=1e30, batch_size=1, epochs=3,
                                       hidden=5))
