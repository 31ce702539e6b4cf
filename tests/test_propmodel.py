import random
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_sentence, random_sentence
from conjprop import autodiff as ad, graph, propmodel
from conjprop.converter import always_baseline, added_edges
from conjprop.embeddings import hash_provider, read_sidecar, write_sidecar
from conjprop.graph import (
    Edge, basic_edges, coarse, conj_pairs, enhanced_edges, extract_instances,
)
from conjprop.instances import FeatureConfig, featurize, vectorize
from conjprop.modelfile import load_model
from conjprop.propmodel import (
    ApplyConfig, ApplyError, PropModel, PropTrainOptions, _macro_f1,
    _mlp_forward, apply_model, mlp_loss, train_prop,
)
from conjprop.svm import SVMModel, TrainingError
from conjprop.conllu import ROOT, TokenId, parse_corpus, write_corpus

T = TokenId

INELIGIBLE = {"cc", "conj", "punct", "mark", "root"}


def constant_model(always: bool, feature_config=FeatureConfig(),
                   width: int = 0) -> PropModel:
    """A kernel model with no support vectors: bias alone decides."""
    svm = SVMModel(support_vectors=np.zeros((0, width)),
                   dual_coef=np.zeros(0), bias=1.0 if always else -1.0)
    return PropModel(kind="kernel", vocab={}, dense_dim=0,
                     feature_config=feature_config, svm=svm)


def shared_subject_sentence(i: int):
    return make_sentence([
        (f"Ann{i}", "PROPN", 2, "nsubj"),
        ("baked", "VERB", 0, "root"),
        ("bread", "NOUN", 2, "obj"),
        ("and", "CCONJ", 5, "cc"),
        ("sang", "VERB", 2, "conj"),
        ("songs", "NOUN", 5, "obj"),
        ("!", "PUNCT", 2, "punct"),
    ], sent_id=f"shared-{i}")


def own_subject_sentence(i: int):
    return make_sentence([
        (f"Bo{i}", "PROPN", 2, "nsubj"),
        ("cooked", "VERB", 0, "root"),
        ("and", "CCONJ", 5, "cc"),
        (f"Cy{i}", "PROPN", 5, "nsubj"),
        ("cleaned", "VERB", 2, "conj"),
        (".", "PUNCT", 2, "punct"),
    ], sent_id=f"own-{i}")


def seed(sent):
    for t in sent.tokens:
        if not t.deps and t.head is not None:
            t.deps.append((t.head, t.deprel))
    return sent


def training_corpus():
    corpus = []
    for i in range(4):
        s = seed(shared_subject_sentence(i))
        s.token_by_id()[T(1, 0)].deps.append((T(5, 0), "nsubj"))
        corpus.append(s)
        corpus.append(seed(own_subject_sentence(i)))
    return corpus


def test_kernel_model_learns_subject_propagation():
    corpus = training_corpus()
    model = train_prop(corpus, "kernel")
    probe = shared_subject_sentence(9)
    out = apply_model(model, probe)
    added = added_edges(probe, out)
    assert added == {Edge(T(5, 0), T(1, 0), "nsubj")}
    negative = own_subject_sentence(9)
    assert added_edges(negative, apply_model(model, negative)) == set()


def test_mlp_model_learns_subject_propagation():
    corpus = training_corpus()
    options = PropTrainOptions(hidden_sizes=(16, 8), lr=1e-2, epochs=60,
                               holdout=0.0, seed=3)
    model = train_prop(corpus, "mlp", options)
    probe = shared_subject_sentence(9)
    added = added_edges(probe, apply_model(model, probe))
    assert added == {Edge(T(5, 0), T(1, 0), "nsubj")}
    negative = own_subject_sentence(9)
    assert added_edges(negative, apply_model(model, negative)) == set()


def test_mlp_stops_early_and_restores_its_best_holdout_epoch(monkeypatch):
    corpus = training_corpus()
    options = PropTrainOptions(hidden_sizes=(8, 4), lr=1e-2, epochs=6,
                               patience=2, holdout=0.5, seed=4)
    scores = iter([0.2, 0.5, 0.4, 0.3])
    monkeypatch.setattr(propmodel, "_macro_f1", lambda *args: next(scores))
    lines = []
    model = train_prop(corpus, "mlp", options, log=lines.append)
    assert lines == [f"# epoch {epoch} holdout-f1 {f1}" for epoch, f1 in
                     enumerate(["20.00", "50.00", "40.00", "30.00"], 1)]

    # holdout scoring draws no random numbers, so two epochs reach the
    # weights of the best epoch
    scores = iter([0.2, 0.5])
    two = train_prop(corpus, "mlp", replace(options, epochs=2))
    for name, arr in model.mlp.items():
        assert arr.tobytes() == two.mlp[name].tobytes(), name


def test_mlp_logs_its_holdout_f1_every_epoch():
    corpus = training_corpus()
    options = PropTrainOptions(hidden_sizes=(8, 4), lr=1e-2, epochs=6,
                               patience=10, holdout=0.5, seed=4)
    lines = []
    model = train_prop(corpus, "mlp", options, log=lines.append)
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"# epoch {epoch} holdout-f1" for epoch in range(1, 7)]
    # the log changes no weight
    quiet = train_prop(corpus, "mlp", options)
    for name, arr in model.mlp.items():
        assert arr.tobytes() == quiet.mlp[name].tobytes(), name

    # the best logged F1, not the last, is the restored model's on the
    # holdout rows, which are the first of the seed's permutation
    scores = [float(line.split()[-1]) for line in lines]
    assert scores[-1] < max(scores)
    vectors, gold = [], []
    for index, sent in enumerate(corpus):
        found = extract_instances(sent, conj_pairs(sent), basic_edges(sent),
                                  gold=True)
        vectors.extend(featurize(sent, sent.token_by_id(), found, model.kind,
                                 config=model.feature_config, index=index))
        gold.extend(bool(inst.gold) for inst in found)
    x = vectorize(vectors, model.vocab, 0)
    holdout = np.random.default_rng(4).permutation(len(x))[
        :round(0.5 * len(x))]
    f1 = _macro_f1(model.predict(x[holdout]), np.array(gold)[holdout])
    assert max(scores) == float(f"{100 * f1:.2f}")


def test_single_class_training_data_raises():
    corpus = [seed(own_subject_sentence(i)) for i in range(3)]
    with pytest.raises(TrainingError, match="single class"):
        train_prop(corpus, "kernel")


def test_corpus_without_instances_raises():
    flat = make_sentence([("Dogs", "NOUN", 2, "nsubj"),
                          ("bark", "VERB", 0, "root")])
    with pytest.raises(TrainingError, match="instances"):
        train_prop([flat], "kernel")


def test_always_positive_equals_always_baseline_on_eligible_labels(
        fig1, fig3a):
    model = constant_model(True)
    for sent in (fig1, fig3a):
        ours = added_edges(sent, apply_model(model, sent))
        always = {e for e in added_edges(sent, always_baseline(sent))
                  if coarse(e.label) not in INELIGIBLE}
        assert ours == always


def test_always_negative_is_identity(fig1):
    model = constant_model(False)
    out = apply_model(model, fig1)
    assert added_edges(fig1, out) == set()


def test_fixpoint_application_reaches_nested_coordination(fig3c):
    model = constant_model(True)
    single = added_edges(fig3c, apply_model(model, fig3c))
    assert Edge(T(10, 0), T(4, 0), "nsubj") not in single
    iterated = added_edges(
        fig3c, apply_model(model, fig3c,
                           config=ApplyConfig(iterate_to_fixpoint=True)))
    assert Edge(T(10, 0), T(4, 0), "nsubj") in iterated
    assert single <= iterated


def test_fixpoint_application_finds_each_sentences_conj_pairs_once(
        fig3c, monkeypatch):
    # every pass decides over the pairs the engine found, however many
    # passes the sentence takes (fig3c takes more than one)
    original = graph.conj_pairs
    calls = []

    def counting(sent):
        calls.append(sent.sent_id)
        return original(sent)

    for name, module in list(sys.modules.items()):
        if name.startswith("conjprop.") \
                and getattr(module, "conj_pairs", None) is original:
            monkeypatch.setattr(module, "conj_pairs", counting)
    corpus = [fig3c, shared_subject_sentence(1), own_subject_sentence(2)]
    for sent in corpus:
        apply_model(constant_model(True), sent,
                    config=ApplyConfig(iterate_to_fixpoint=True))
    assert calls == [sent.sent_id for sent in corpus]


def test_passive_rewrite_follows_fix_flag():
    sent = make_sentence([
        ("Mary", "PROPN", 3, "nsubj:pass"),
        ("was", "AUX", 3, "aux:pass"),
        ("fired", "VERB", 0, "root", {"Voice": "Pass"}),
        ("and", "CCONJ", 5, "cc"),
        ("resigned", "VERB", 3, "conj"),
        (".", "PUNCT", 3, "punct"),
    ])
    model = constant_model(True)
    plain = added_edges(sent, apply_model(model, sent))
    assert Edge(T(5, 0), T(1, 0), "nsubj:pass") in plain
    fixed = added_edges(
        sent, apply_model(model, sent,
                          config=ApplyConfig(passive_imperative_fix=True)))
    assert Edge(T(5, 0), T(1, 0), "nsubj") in fixed
    assert Edge(T(5, 0), T(1, 0), "nsubj:pass") not in fixed


def test_imperative_suppression_follows_fix_flag(fig3b):
    model = constant_model(True)
    plain = added_edges(fig3b, apply_model(model, fig3b))
    assert Edge(T(9, 0), T(1, 0), "nsubj") in plain
    fixed = added_edges(
        fig3b, apply_model(model, fig3b,
                           config=ApplyConfig(passive_imperative_fix=True)))
    assert not any(e.label.startswith("nsubj") and e.dep == T(1, 0)
                   for e in fixed)


def test_kernel_save_load_is_bit_identical(tmp_path):
    corpus = training_corpus()
    model = train_prop(corpus, "kernel")
    path = tmp_path / "kernel.model"
    model.save(path)
    again = PropModel.load(path)
    assert again.kind == "kernel"
    assert again.vocab == model.vocab
    assert again.feature_config == model.feature_config
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(10, len(model.vocab)))
    a = model.decision_function(probe)
    b = again.decision_function(probe)
    assert a.tobytes() == b.tobytes()


def test_mlp_save_load_is_bit_identical(tmp_path):
    corpus = training_corpus()
    options = PropTrainOptions(hidden_sizes=(8, 4), epochs=3)
    model = train_prop(corpus, "mlp", options)
    path = tmp_path / "mlp.model"
    model.save(path)
    again = PropModel.load(path)
    rng = np.random.default_rng(1)
    probe = rng.normal(size=(10, len(model.vocab)))
    assert model.decision_function(probe).tobytes() == \
        again.decision_function(probe).tobytes()


def test_mlp_trains_and_is_stored_in_float32(tmp_path, training_dtypes):
    dtypes, snapshots = training_dtypes
    options = PropTrainOptions(hidden_sizes=(8, 4), epochs=3, holdout=0.3)
    model = train_prop(training_corpus(), "mlp", options)
    assert dtypes == {"float32"}
    assert snapshots and {a.dtype.name for a in snapshots} == {"float32"}
    path = tmp_path / "mlp.model"
    model.save(path)
    _, _, arrays = load_model(path)
    assert {a.dtype.name for a in arrays.values()} == {"float32"}
    probe = np.random.default_rng(1).normal(size=(3, len(model.vocab)))
    assert PropModel.load(path).decision_function(probe).dtype == np.float32


def test_a_float64_mlp_file_decides_in_float64(tmp_path):
    corpus = training_corpus()
    options = PropTrainOptions(hidden_sizes=(16, 8), lr=1e-2, epochs=60,
                               holdout=0.0, seed=3)
    model = train_prop(corpus, "mlp", options)
    model.mlp = {k: v.astype(np.float64) for k, v in model.mlp.items()}
    path = tmp_path / "mlp64.model"
    model.save(path)
    again = PropModel.load(path)
    assert {a.dtype.name for a in again.mlp.values()} == {"float64"}
    rng = np.random.default_rng(2)
    probe = rng.normal(size=(10, len(model.vocab)))
    logits = _mlp_forward(model.mlp, probe)
    decision = again.decision_function(probe)
    assert decision.dtype == np.float64
    assert decision.tobytes() == (logits[:, 1] - logits[:, 0]).tobytes()
    sent = shared_subject_sentence(9)
    assert added_edges(sent, apply_model(again, sent)) == \
        {Edge(T(5, 0), T(1, 0), "nsubj")}


@pytest.fixture(scope="module")
def trained_models():
    corpus = training_corpus()
    mlp = train_prop(corpus, "mlp", PropTrainOptions(
        hidden_sizes=(16, 8), lr=1e-2, epochs=20, holdout=0.0, seed=3))
    assert mlp.mlp["w1"].dtype == np.float32
    return {"kernel": train_prop(corpus, "kernel"), "mlp": mlp,
            "always": constant_model(True)}


@pytest.mark.parametrize("name", ["kernel", "mlp", "always"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fix=st.booleans(),
       fixpoint=st.booleans())
def test_applied_graphs_reparse_without_dangling_heads_or_self_loops(
        trained_models, name, seed, fix, fixpoint):
    sent = random_sentence(random.Random(seed), f"a{seed}")
    out = apply_model(trained_models[name], sent,
                      config=ApplyConfig(fix, fixpoint))
    again, = parse_corpus(write_corpus([out]))
    ids = {t.id for t in again.tokens} | {ROOT}
    for t in again.tokens:
        for head, _ in t.deps:
            assert head in ids and head != t.id


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    shapes = {"w1": (6, 7), "b1": (7,), "w2": (7, 5), "b2": (5,),
              "w3": (5, 2), "b3": (2,)}
    arrays = {k: rng.normal(size=s) for k, s in shapes.items()}
    x = rng.normal(size=6)

    params = {k: ad.Tensor(v.copy(), requires_grad=True)
              for k, v in arrays.items()}
    mlp_loss(params, x, target=1).backward()

    step = 1e-5
    worst = 0.0
    for name in shapes:
        arr = arrays[name]
        flat = arr.reshape(-1)
        analytic = params[name].grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(mlp_loss({k: ad.Tensor(v) for k, v in arrays.items()},
                                x, target=1).data)
            flat[i] = orig - step
            lo = float(mlp_loss({k: ad.Tensor(v) for k, v in arrays.items()},
                                x, target=1).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(analytic[i]), 1e-8)
            worst = max(worst, abs(fd - analytic[i]) / scale)
    assert worst < 1e-4


def test_dense_model_requires_matching_provider(fig1):
    model = constant_model(True, width=12)
    model.dense_dim = 4
    with pytest.raises(ApplyError, match="provider"):
        apply_model(model, fig1)
    wrong = hash_provider(dim=3)
    with pytest.raises(ApplyError, match="dimension 3"):
        apply_model(model, fig1, provider=wrong)
    right = hash_provider(dim=4)
    out = apply_model(model, fig1, provider=right)
    assert len(added_edges(fig1, out)) == 3


def test_dense_vectors_reach_the_feature_matrix():
    corpus = training_corpus()
    provider = hash_provider(dim=5)
    model = train_prop(corpus, "kernel", provider=provider)
    assert model.dense_dim == 5
    assert model.svm.support_vectors.shape[1] == len(model.vocab) + 15


def test_class_weight_option_trains():
    corpus = training_corpus()
    options = PropTrainOptions(class_weights=True)
    model = train_prop(corpus, "kernel", options)
    probe = shared_subject_sentence(7)
    assert added_edges(probe, apply_model(model, probe)) == \
        {Edge(T(5, 0), T(1, 0), "nsubj")}


@pytest.mark.parametrize("class_weights", [False, True])
def test_kernel_logs_its_solver_state(class_weights):
    lines = []
    options = PropTrainOptions(tol=1e-4, class_weights=class_weights)
    model = train_prop(training_corpus(), "kernel", options, log=lines.append)
    assert len(lines) == 1
    found = re.fullmatch(r"# svm iterations (\d+) support-vectors (\d+) "
                         r"gap (\S+)", lines[0])
    assert found, lines
    assert int(found[1]) == model.svm.iterations > 0
    assert int(found[2]) == len(model.svm.dual_coef)
    assert float(found[3]) <= options.tol


def test_unnamed_sentences_key_dense_vectors_by_position(tmp_path):
    corpus = training_corpus()
    for sent in corpus:
        sent.comments = []
    assert len({len(sent.tokens) for sent in corpus}) > 1
    rng = np.random.default_rng(0)
    sidecar = tmp_path / "position.vec"
    sidecar.write_text("".join(
        f"{i}\t{t.id}\t{' '.join(map(str, rng.normal(size=3)))}\n"
        for i, sent in enumerate(corpus) for t in sent.tokens))
    provider = read_sidecar(sidecar)
    # the same sentences, named by their 0-based positions
    named = [sent.clone() for sent in corpus]
    for i, sent in enumerate(named):
        sent.comments = [f"# sent_id = {i}"]
    model = train_prop(corpus, "kernel", provider=provider)
    reference = train_prop(named, "kernel", provider=provider)
    assert np.array_equal(model.svm.support_vectors,
                          reference.svm.support_vectors)
    assert np.array_equal(model.svm.dual_coef, reference.svm.dual_coef)
    for i, (sent, twin) in enumerate(zip(corpus, named)):
        assert apply_model(model, sent, provider, index=i).tokens == \
            apply_model(reference, twin, provider).tokens


def test_the_model_records_the_kind_of_its_dense_vectors(tmp_path):
    corpus = training_corpus()
    write_sidecar(tmp_path / "train.vec", hash_provider(dim=3), corpus)
    for provider, fc, want in (
            (None, FeatureConfig(), "none"),
            (hash_provider(dim=3), FeatureConfig(), "hash"),
            (read_sidecar(tmp_path / "train.vec"), FeatureConfig(), "sidecar"),
            # vectors that the features leave out are not recorded
            (hash_provider(dim=3), FeatureConfig(token_features=False),
             "none")):
        model = train_prop(corpus, "kernel", provider=provider,
                           feature_config=fc)
        assert model.vectors == want
        model.save(tmp_path / "m.model")
        assert PropModel.load(tmp_path / "m.model").vectors == want


@pytest.mark.filterwarnings("error::RuntimeWarning")  # check_loss reports
def test_a_diverging_mlp_raises_training_error():
    options = PropTrainOptions(hidden_sizes=(8, 4), lr=1e30, epochs=3)
    with pytest.raises(TrainingError, match="training diverged"):
        train_prop(training_corpus(), "mlp", options)


def test_an_mlp_holdout_that_leaves_nothing_to_train_on_raises():
    options = PropTrainOptions(hidden_sizes=(8, 4), holdout=0.999)
    with pytest.raises(TrainingError, match="leaving none to train on"):
        train_prop(training_corpus(), "mlp", options)
