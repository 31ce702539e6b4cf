"""Toolkit for producing, learning, and scoring enhanced dependencies of coordinations."""

import importlib

__version__ = "0.1.0"

# Every export loads its module on first use (PEP 562), so a command imports
# only the layers it runs: the text commands never import numpy.
_LAZY = {name: module for module, names in (
    ("conllu", "ROOT ParseError Sentence Token TokenId iter_corpus "
               "parse_corpus read_file write_corpus write_file"),
    ("graph", "Edge coarse conj_pairs enhanced_edges propagated_links"),
    ("converter", "convert_mode"),
    ("evaluate", "agreement_matrix diff_stats score"),
    ("cli", "main"),
    ("propmodel", "ApplyConfig PropModel PropTrainOptions apply_model "
                  "train_prop"),
    ("edgepred", "EdgeParser ParserTrainConfig decode new_parser "
                 "train_epoch train_parser"),
    ("labels", "delexicalize_corpus lexicalize_label"),
    ("embeddings", "hash_provider read_sidecar"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
