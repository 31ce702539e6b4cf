"""Toolkit for producing, learning, and scoring enhanced dependencies of coordinations."""

import importlib

from .conllu import (  # noqa: F401
    ROOT, ParseError, Sentence, Token, TokenId, iter_corpus, parse_corpus,
    read_file, write_corpus, write_file,
)
from .graph import (  # noqa: F401
    Edge, coarse, conj_pairs, enhanced_edges, propagated_links,
)
from .converter import convert_mode  # noqa: F401
from .evaluate import agreement_matrix, diff_stats, score  # noqa: F401
from .cli import main  # noqa: F401

__version__ = "0.1.0"

# The numpy-backed exports load on first use (PEP 562), so the commands that
# only read and write CoNLL-U never import numpy.
_LAZY = {name: module for module, names in (
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
