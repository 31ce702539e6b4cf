import numpy as np
import pytest

from conjprop.conllu import ROOT, TokenId
from conjprop.embeddings import (EmbeddingError, EmbeddingProvider,
                                  hash_provider)
from conftest import make_sentence, working_instances
from conjprop.graph import (
    InstanceConfig, basic_edges, conj_pairs, extract_instances, labels_match,
)
from conjprop.instances import (
    FeatureConfig, build_vocabulary, default_feature_config, featurize,
    vectorize,
)

T = TokenId


def by_target(instances):
    return {(i.target, i.direction): i for i in instances}


def basic_instances(sent, config=InstanceConfig(), gold=False):
    """sent's instances over its basic layer, as training extracts them."""
    return extract_instances(sent, conj_pairs(sent), basic_edges(sent),
                             config, gold)


def test_fig1_yields_three_gold_positive_instances(fig1_gold):
    instances = basic_instances(fig1_gold, gold=True)
    assert len(instances) == 3
    table = by_target(instances)
    nsubj = table[(T(4, 0), "outgoing")]
    obj = table[(T(9, 0), "outgoing")]
    obl = table[(T(3, 0), "outgoing")]
    assert nsubj.candidate_label == "nsubj" and nsubj.gold
    assert obj.candidate_label == "obj" and obj.gold
    assert obl.candidate_label == "obl" and obl.gold
    for inst in instances:
        assert (inst.conj_head, inst.conj_dep) == (T(5, 0), T(7, 0))


def test_gold_defaults_to_none_without_reference(fig1):
    instances = basic_instances(fig1)
    assert all(inst.gold is None for inst in instances)


def test_sentence_without_conj_yields_nothing():
    sent = make_sentence([("Dogs", "NOUN", 2, "nsubj"),
                          ("bark", "VERB", 0, "root")])
    assert basic_instances(sent) == []


def test_punct_cc_conj_mark_edges_are_not_candidates(fig1):
    labels = {i.candidate_label for i in basic_instances(fig1)}
    assert labels == {"nsubj", "obj", "obl"}


def test_exclusion_list_is_configurable(fig1):
    config = InstanceConfig(outgoing_exclusions=frozenset({"conj"}))
    labels = {i.candidate_label for i in basic_instances(fig1, config)}
    assert "punct" in labels


def test_incoming_edge_becomes_an_instance():
    # "(I) know Paul ate and Mary ..." : conj head has a non-root head
    sent = make_sentence([
        ("know", "VERB", 0, "root"),
        ("Paul", "PROPN", 3, "nsubj"),
        ("ate", "VERB", 1, "ccomp"),
        ("and", "CCONJ", 5, "cc"),
        ("drank", "VERB", 3, "conj"),
    ])
    instances = basic_instances(sent)
    incoming = [i for i in instances if i.direction == "incoming"]
    assert len(incoming) == 1
    inst = incoming[0]
    assert inst.target == T(1, 0)
    assert inst.candidate_label == "ccomp"
    assert inst.edge_at_conjunct().head == T(1, 0)
    assert inst.edge_at_conjunct().dep == T(5, 0)


def test_root_attachment_is_never_an_incoming_instance(fig1):
    directions = {i.direction for i in basic_instances(fig1)}
    assert directions == {"outgoing"}


def test_passive_rewrite_counts_as_gold(fig3a):
    gold = fig3a.clone()
    # gold graph carries nsubj (rewritten), candidate says nsubj:pass
    gold.tokens[0].deps = [(T(4, 0), "nsubj:pass"), (T(9, 0), "nsubj")]
    instances = basic_instances(gold, gold=True)
    table = by_target(instances)
    inst = table[(T(1, 0), "outgoing")]
    assert inst.candidate_label == "nsubj:pass"
    assert inst.gold


def test_labels_match_is_limited_to_subject_pass_family():
    assert labels_match("nsubj", "nsubj:pass")
    assert labels_match("csubj:pass", "csubj")
    assert labels_match("obl", "obl")
    assert not labels_match("nsubj", "nsubj:outer")
    assert not labels_match("obl", "obl:tmod")
    assert not labels_match("nsubj", "csubj")


def test_working_layer_sees_enhanced_edges(fig3c):
    work = fig3c.clone()
    for t in work.tokens:
        if not t.deps and t.head is not None:
            t.deps.append((t.head, t.deprel))
    work.tokens[0].deps.append((T(10, 0), "nsubj"))
    basic_only = basic_instances(fig3c)
    working = working_instances(work)
    extra = {(i.conj_head, i.conj_dep, i.target, i.candidate_label)
             for i in working} - \
            {(i.conj_head, i.conj_dep, i.target, i.candidate_label)
             for i in basic_only}
    assert (T(1, 0), T(4, 0), T(10, 0), "nsubj") in extra


# featurization


def test_fig1_nsubj_features(fig1):
    inst = by_target(basic_instances(fig1))[(T(4, 0), "outgoing")]
    fv = featurize(fig1, fig1.token_by_id(), [inst])[0]
    assert fv.named["label=nsubj"] == 1.0
    assert fv.named["direction=outgoing"] == 1.0
    assert fv.named["lindir=both-left"] == 1.0
    assert "existing-dep" not in fv.named
    assert fv.named["coord-items=2"] == 1.0
    assert fv.named["head-out=obl"] == 1.0
    assert fv.named["dep-out=cc"] == 1.0
    assert fv.dense == {}


def test_linear_direction_three_way():
    sent = make_sentence([
        ("a", "NOUN", 2, "nsubj"),
        ("b", "VERB", 0, "root"),
        ("c", "NOUN", 2, "obj"),
        ("and", "CCONJ", 5, "cc"),
        ("d", "VERB", 2, "conj"),
        ("e", "NOUN", 5, "obj"),
    ])
    instances = by_target(basic_instances(sent))
    before_both = instances[(T(1, 0), "outgoing")]
    between = instances[(T(3, 0), "outgoing")]
    fv = featurize(sent, sent.token_by_id(), [before_both])[0]
    assert fv.named["lindir=both-left"] == 1.0
    fv = featurize(sent, sent.token_by_id(), [between])[0]
    assert fv.named["lindir=differing-directions"] == 1.0


def test_linear_direction_both_right():
    sent = make_sentence([
        ("a", "VERB", 0, "root"),
        ("and", "CCONJ", 3, "cc"),
        ("b", "VERB", 1, "conj"),
        ("c", "NOUN", 1, "obj"),
    ])
    inst = by_target(basic_instances(sent))[(T(4, 0), "outgoing")]
    fv = featurize(sent, sent.token_by_id(), [inst])[0]
    assert fv.named["lindir=both-right"] == 1.0


def test_existing_dependency_flag():
    sent = make_sentence([
        ("eats", "VERB", 0, "root"),
        ("rice", "NOUN", 1, "obj"),
        ("and", "CCONJ", 4, "cc"),
        ("cooks", "VERB", 1, "conj"),
        ("beans", "NOUN", 4, "obj"),
    ])
    inst = by_target(basic_instances(sent))[(T(2, 0), "outgoing")]
    assert inst.candidate_label == "obj"
    fv = featurize(sent, sent.token_by_id(), [inst])[0]
    assert fv.named.get("existing-dep") == 1.0


def test_coordination_item_count():
    sent = make_sentence([
        ("a", "VERB", 0, "root"),
        ("b", "NOUN", 1, "obj"),
        ("c", "VERB", 1, "conj"),
        ("d", "VERB", 1, "conj"),
        ("e", "VERB", 1, "conj"),
    ])
    inst = basic_instances(sent)[0]
    fv = featurize(sent, sent.token_by_id(), [inst])[0]
    assert fv.named["coord-items=4"] == 1.0
    scalar = featurize(sent, sent.token_by_id(), [inst],
                       config=FeatureConfig(count_scalar=True))[0]
    assert scalar.named["coord-items"] == 4.0


def test_morphology_features_cover_three_roles(fig3a):
    instances = by_target(basic_instances(fig3a))
    inst = instances[(T(1, 0), "outgoing")]
    fv = featurize(fig3a, fig3a.token_by_id(), [inst])[0]
    assert fv.named.get("target:Number=Plur") == 1.0  # "They"
    assert fv.named.get("head:Voice=Pass") == 1.0  # "suppressed"
    # conjunct "organized" has no Voice feature
    assert not any(name.startswith("dep:Voice") for name in fv.named)


def test_feature_groups_toggle(fig1):
    inst = basic_instances(fig1)[0]
    bare = featurize(fig1, fig1.token_by_id(), [inst],
                     config=FeatureConfig(token_features=False,
                                          tree_features=False))[0]
    assert set(bare.named) == {f"label={inst.candidate_label}",
                               "direction=outgoing"}
    no_tree = featurize(fig1, fig1.token_by_id(), [inst],
                        config=FeatureConfig(tree_features=False))[0]
    assert not any(n.startswith(("lindir", "coord-items", "head-out",
                                 "dep-out", "existing-dep"))
                   for n in no_tree.named)


def test_dense_vectors_only_with_provider(fig1):
    provider = hash_provider(dim=4)
    inst = basic_instances(fig1)[0]
    config = FeatureConfig(dense_tokens=True)
    fv = featurize(fig1, fig1.token_by_id(), [inst], provider=provider,
                   config=config)[0]
    assert set(fv.dense) == {"head", "dep", "target"}
    assert fv.dense["head"].shape == (4,)
    without = featurize(fig1, fig1.token_by_id(), [inst], config=config)[0]
    assert without.dense == {}


def test_provider_lookup_failure_is_reported(fig1):
    provider = EmbeddingProvider({(fig1.sent_id, t.id): np.zeros(4)
                                  for t in fig1.tokens if t.id != T(4, 0)},
                                 dim=4)
    inst = [i for i in basic_instances(fig1) if i.target == T(4, 0)][0]
    with pytest.raises(EmbeddingError, match="4"):
        featurize(fig1, fig1.token_by_id(), [inst], provider=provider,
                  config=FeatureConfig(dense_tokens=True))


def test_featurize_ignores_enhanced_layer(fig1, fig1_gold):
    inst = basic_instances(fig1)[0]
    gold_inst = basic_instances(fig1_gold)[0]
    assert featurize(fig1, fig1.token_by_id(), [inst])[0].named == \
        featurize(fig1_gold, fig1_gold.token_by_id(), [gold_inst])[0].named


@pytest.mark.parametrize("name", ["fig1", "fig3a", "fig3c"])
@pytest.mark.parametrize("config", [
    FeatureConfig(), FeatureConfig(dense_tokens=True, count_scalar=True)])
def test_one_pass_matches_one_instance_at_a_time(name, config, request):
    sent = request.getfixturevalue(name)
    provider = hash_provider(dim=4)
    instances = working_instances(sent)
    assert instances
    by_id = sent.token_by_id()
    together = featurize(sent, by_id, instances, provider, config)
    assert len(together) == len(instances)
    for inst, fv in zip(instances, together):
        alone = featurize(sent, by_id, [inst], provider, config)[0]
        assert fv.named == alone.named
        assert fv.dense.keys() == alone.dense.keys()
        for role, vec in fv.dense.items():
            assert np.array_equal(vec, alone.dense[role])
    assert featurize(sent, by_id, [], provider, config) == []


def test_default_feature_configs_follow_model_kinds():
    kernel = default_feature_config("kernel")
    assert kernel.morphology and not kernel.dense_tokens
    assert not kernel.count_scalar
    mlp = default_feature_config("mlp")
    assert mlp.dense_tokens and not mlp.morphology
    assert mlp.count_scalar
    with pytest.raises(ValueError):
        default_feature_config("forest")


def test_vocabulary_and_vectorize_round_trip(fig1):
    instances = basic_instances(fig1)
    vectors = featurize(fig1, fig1.token_by_id(), instances)
    vocab = build_vocabulary(vectors)
    assert list(vocab.values()) == sorted(vocab.values())
    x = vectorize(vectors, vocab, dense_dim=0)
    assert x.shape == (len(vectors), len(vocab))
    for row, fv in zip(x, vectors):
        assert row.sum() == len(fv.named)
        for name, value in fv.named.items():
            assert row[vocab[name]] == value
    # names outside the vocabulary are dropped
    alien = vectors[0]
    alien.named["label=weird"] = 1.0
    assert np.array_equal(vectorize([alien], vocab, dense_dim=0), x[:1])
    assert vectorize([], vocab, dense_dim=0).shape == (0, len(vocab))


def test_vectorize_appends_dense_blocks(fig1):
    provider = hash_provider(dim=3)
    inst = basic_instances(fig1)[0]
    fv = featurize(fig1, fig1.token_by_id(), [inst], provider=provider,
                   config=FeatureConfig(dense_tokens=True))[0]
    vocab = build_vocabulary([fv])
    x = vectorize([fv], vocab, dense_dim=3)
    assert x.shape == (1, len(vocab) + 9)
    assert np.array_equal(x[0, len(vocab):len(vocab) + 3], fv.dense["head"])
    with pytest.raises(ValueError, match="dimension"):
        vectorize([fv], vocab, dense_dim=2)
