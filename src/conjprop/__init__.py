"""Toolkit for producing, learning, and scoring enhanced dependencies of coordinations."""

__version__ = "0.1.0"

from .conllu import (  # noqa: F401
    ROOT, ParseError, Sentence, Token, TokenId, parse_corpus, read_file,
    write_corpus, write_file,
)
from .graph import (  # noqa: F401
    Edge, coarse, conj_pairs, enhanced_edges, propagated_links,
)
from .converter import convert_mode  # noqa: F401
from .propmodel import (  # noqa: F401
    ApplyConfig, PropModel, PropTrainOptions, apply_model, train_prop,
)
from .edgepred import (  # noqa: F401
    EdgeParser, ParserTrainConfig, decode, new_parser, train_epoch,
    train_parser,
)
from .evaluate import (  # noqa: F401
    agreement_matrix, diff_stats, score,
)
from .labels import delexicalize_corpus, lexicalize_label  # noqa: F401
from .embeddings import hash_provider, read_sidecar  # noqa: F401
from .cli import main  # noqa: F401
