"""Command-line surface binding the toolkit into reproducible pipelines.

One executable, subcommand style.  Every option can come from three places,
in order of precedence: the command line, a key-value config file (--config,
or the CONJPROP_CONFIG environment variable for a default path), and the
built-in default.  The fully resolved configuration is logged to stderr as
"# key = value" lines, so a run can be reproduced from its log.  Paths given
as "-" read stdin or write stdout.  Every command but the trainers streams
its input, and writes its output once, at the end.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

from .config import (AlignmentError, ConfigError, InputError, TrainingError,
                     parse_value, read_config_file)
from .conllu import ParseError, Sentence, decode_utf8, iter_corpus, \
    parse_corpus, split_text, write_corpus

# Every layer past conllu is imported by the commands that use it: the text
# commands never load numpy, convert never loads the scorers, and the
# scorers never load the converter.


class CliError(Exception):
    pass


# ------------------------------------------------------------------ options

@dataclass(frozen=True)
class Opt:
    name: str
    kind: str = "str"  # str, int, float, bool
    default: object = None
    help: str = ""
    choices: tuple[str, ...] | None = None
    required: bool = False
    low: float = -math.inf   # numeric values must lie in [low, below)
    below: float = math.inf
    fault: Callable[[Any], str] | None = None  # what is wrong, or ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_IN = Opt("in", default="-", help="input CoNLL-U file ('-' for stdin)")
_OUT = Opt("out", default="-", help="output file ('-' for stdout)")
_SEED = Opt("seed", "int", 0, "random seed")


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _features_fault(text: str) -> str:
    unknown = set(_comma_list(text)) - {"instance", "token", "tree"}
    if unknown:
        return f"names unknown groups: {', '.join(map(repr, sorted(unknown)))}"
    return ""


def _positive_fault(value: float) -> str:
    return "" if value > 0 else f"must be positive, got {value}"


def _widths_fault(text: str) -> str:
    try:
        widths = [int(w) for w in _comma_list(text)]
    except ValueError:
        widths = []
    if len(widths) == 2 and min(widths) >= 1:
        return ""
    return f"expects two comma-separated widths of at least 1, got {text!r}"


OPTIONS: dict[str, list[Opt]] = {
    "convert": [
        _IN, _OUT,
        Opt("jobs", "int", 1, "convert N contiguous slices of the input "
                              "text in up to N processes", low=1),
        Opt("mode", default="rbc", choices=("rbc", "rbc2", "rbc2+fix",
                                            "always"),
            help="propagation rule set"),
    ],
    "train-prop": [
        Opt("train", required=True, help="training corpus with gold deps"),
        Opt("model", required=True, help="model file to write"),
        Opt("kind", default="kernel", choices=("kernel", "mlp"),
            help="classifier family"),
        Opt("features", default="instance,token,tree",
            help="comma-separated feature groups; the instance group "
                 "(candidate label and direction) is always kept",
            fault=_features_fault),
        Opt("embeddings", help="single-layer embedding sidecar file"),
        Opt("hash-dim", "int", 0,
            help="use built-in hash embeddings of this dimension instead "
                 "of a sidecar (0 = off)", low=0),
        Opt("c", "float", 1.0, "kernel soft-margin constant",
            fault=_positive_fault),
        Opt("tol", "float", 1e-3, "kernel optimizer tolerance",
            fault=_positive_fault),
        Opt("class-weights", "bool", False,
            "weight classes by inverse frequency"),
        Opt("epochs", "int", 50, "mlp epoch budget", low=0),
        Opt("lr", "float", 5e-5, "mlp learning rate", fault=_positive_fault),
        Opt("patience", "int", 5, "mlp early-stopping patience", low=1),
        Opt("holdout", "float", 0.1, "mlp early-stopping holdout fraction",
            low=0, below=1),
        Opt("hidden", default="1500,500", help="mlp hidden layer widths",
            fault=_widths_fault),
        _SEED,
    ],
    "apply-prop": [
        _IN, _OUT,
        Opt("model", required=True, help="trained propagation model"),
        Opt("embeddings", help="the sidecar the model was trained on"),
        Opt("fixpoint", "bool", False,
            "reapply the model until the graph stops changing"),
        Opt("fix", "bool", False,
            "apply passive/imperative subject-label adjustments"),
    ],
    "train-parser": [
        Opt("train", required=True, help="training corpus with gold deps"),
        Opt("model", required=True, help="model file to write"),
        Opt("embeddings", help="multi-layer embedding sidecar file"),
        Opt("hash-dim", "int", 0, "use built-in hash embeddings of this "
            "dimension (0 = off)", low=0),
        Opt("hash-layers", "int", 1, "layer count for hash embeddings",
            low=1),
        Opt("dev", help="development corpus for early stopping"),
        Opt("patience", "int", 5, "early-stopping patience (with --dev)",
            low=1),
        Opt("delexicalize", "bool", False,
            "rewrite recoverable label subtypes to placeholders before "
            "building the label inventory"),
        Opt("hidden", "int", 1024, "projection width", low=1),
        Opt("batch", "int", 5, "batch size", low=1),
        Opt("lr", "float", 5e-6, "learning rate", fault=_positive_fault),
        Opt("epochs", "int", 10, "epoch budget", low=0),
        _SEED,
    ],
    "predict": [
        _IN, _OUT,
        Opt("model", required=True, help="trained edge-parser model"),
        Opt("embeddings", help="the sidecar the model was trained on"),
    ],
    "evaluate": [
        Opt("system", required=True, help="system output CoNLL-U file"),
        Opt("gold", required=True, help="gold CoNLL-U file"),
        _OUT,
        Opt("view", default="full", choices=("full", "coarse"),
            help="per-label table granularity"),
        Opt("keep-subtypes", default="",
            help="comma-separated full labels kept apart in the coarse view"),
        Opt("records", "bool", False,
            "emit tab-separated records instead of an aligned table"),
    ],
    "agree": [
        Opt("files", required=True,
            help="comma-separated annotator CoNLL-U files (at least two)"),
        Opt("names", help="comma-separated corpus names, one per file"),
        _OUT,
    ],
    "stats": [
        Opt("original", required=True, help="corpus before editing"),
        Opt("edited", required=True, help="corpus after editing"),
        _OUT,
        Opt("scope", default="conjunct",
            choices=("conjunct", "all"),
            help="edge sets compared: links incident to conjuncts, or all"),
        Opt("records", "bool", False,
            "emit tab-separated records instead of an aligned table"),
    ],
}

COMMAND_HELP = {
    "convert": "propagate dependencies across coordinations by rule",
    "train-prop": "train a binary propagation classifier",
    "apply-prop": "apply a trained propagation classifier",
    "train-parser": "train the biaffine edge predictor",
    "predict": "predict enhanced graphs with a trained edge parser",
    "evaluate": "score propagated links of a system against gold",
    "agree": "pairwise agreement between annotated corpora",
    "stats": "added/removed edge statistics between corpus versions",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjprop",
        description="Produce, learn, and score enhanced dependencies of "
                    "coordinate constructions.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, opts in OPTIONS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        p.add_argument("--config", metavar="FILE",
                       help="key-value config file (default: "
                            "$CONJPROP_CONFIG)")
        for opt in opts:
            flag = f"--{opt.name}"
            help_text = opt.help
            if opt.choices:
                help_text += f" (one of {', '.join(opt.choices)})"
            if opt.kind == "bool":
                p.add_argument(flag, dest=opt.dest, action="store_const",
                               const=True, default=None, help=help_text)
                p.add_argument(f"--no-{opt.name}", dest=opt.dest,
                               action="store_const", const=False,
                               default=None, help=argparse.SUPPRESS)
            else:
                p.add_argument(flag, dest=opt.dest, default=None,
                               help=help_text, metavar=opt.name.upper())
    return parser


def resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """Merge command line, config file, and defaults; log the result."""
    config_path = args.config or os.environ.get("CONJPROP_CONFIG")
    file_config = read_config_file(config_path) if config_path else {}
    resolved: dict[str, object] = {}
    for opt in OPTIONS[args.command]:
        value = getattr(args, opt.dest)
        where = "command line"
        if value is None and opt.name in file_config:
            value, where = file_config[opt.name], config_path
        if isinstance(value, str):
            value = parse_value(opt.name, value, opt.kind, where)
            if opt.choices and value not in opt.choices:
                raise ConfigError(
                    f"{where}: {opt.name} must be one of "
                    f"{', '.join(opt.choices)}, got {value!r}")
            fault = opt.fault(value) if opt.fault else ""
            if fault:
                raise ConfigError(f"{where}: {opt.name} {fault}")
            if opt.kind in ("int", "float") \
                    and not opt.low <= value < opt.below:
                raise ConfigError(f"{where}: {opt.name} must be in "
                                  f"[{opt.low}, {opt.below}), got {value}")
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise CliError(f"{args.command}: missing required option "
                           f"--{opt.name}")
        resolved[opt.name] = value
    print(f"# conjprop {args.command}", file=sys.stderr)
    for name in sorted(resolved):
        value = resolved[name]
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"# {name} = {'' if value is None else value}", file=sys.stderr)
    return resolved


def _log(line: str) -> None:
    print(line, file=sys.stderr)


# ------------------------------------------------------------------ file io

def _name(path: str) -> str:
    """The name that messages give the file at path."""
    return "<stdin>" if path == "-" else path


def _read_text(path: str) -> tuple[str, str]:
    """The file's decoded text, and the name that messages give it."""
    name = _name(path)
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    return decode_utf8(raw, name), name


def _read_corpus(path: str, keyed=False) -> list[Sentence]:
    """_stream's sentences, parsed at once into the list a trainer needs."""
    return list(_stream(path, keyed, parse_corpus))


def _stream(path: str, keyed=False, parse=iter_corpus) -> Iterator[Sentence]:
    """The file's sentences one at a time; the file is read on first use.
    Keyed, check_sentence_keys checks each sentence's key as it arrives."""
    sentences = parse(*_read_text(path))
    if keyed:  # only the commands that read vectors load embeddings
        from .embeddings import check_sentence_keys
        sentences = check_sentence_keys(sentences, _name(path))
    yield from sentences


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _model_path(path: str) -> str:
    if path == "-":
        raise CliError("model files are binary; a real path is required")
    return path


def _provider(cfg, record=None):
    """The EmbeddingProvider, or None, that a trainer's --embeddings or
    --hash-dim names, or a model file's (kind, layers, dim) record, whose
    sidecar --embeddings names and must fit (EmbeddingProvider.check)."""
    from .embeddings import hash_provider, read_sidecar
    sidecar, of_model = cfg["embeddings"], record is not None
    if record is None:
        if sidecar and (cfg["hash-dim"] or cfg.get("hash-layers", 1) != 1):
            raise CliError("--embeddings excludes --hash-dim and "
                           "--hash-layers: the sidecar gives its own shape")
        record = ("hash" if cfg["hash-dim"] else "sidecar" if sidecar
                  else "none", cfg.get("hash-layers", 1), cfg["hash-dim"])
    elif bool(sidecar) != (record[0] == "sidecar"):
        need = "give its sidecar with" if record[0] == "sidecar" \
            else "only a sidecar model takes"
        raise CliError(f"{cfg['model']}: the model records vectors "
                       f"{record[0]!r}; {need} --embeddings")
    kind, layers, dim = record
    if kind == "none":
        return None
    if kind != "sidecar":
        return hash_provider(dim, layers)
    provider = read_sidecar(sidecar)
    if of_model:
        provider.check(layers, dim)
    return provider


# ---------------------------------------------------------------- commands

# Characters of CoNLL-U text below which a slice is not worth a worker.
# On a 2-vCPU VM, convert --jobs 2 beat one process only from about 800k
# characters of the benchmark's treebank text; below that, starting the
# pool cost more than the second process saved.
_MIN_SLICE_CHARS = 400_000


def _split_text(text: str, pieces: int) -> list[tuple[int, str]]:
    """text in at most `pieces` split_text slices of about equal size, and
    of about _MIN_SLICE_CHARS or more."""
    pieces = max(1, min(pieces, len(text) // _MIN_SLICE_CHARS))
    return list(split_text(text, -(-len(text) // pieces))) or [(1, text)]


def _convert_chunk(chunk: tuple[int, str], name: str, mode: str) -> str:
    """The chunk's sentences converted in place: the stream owns them."""
    from .converter import convert_mode
    first_line, text = chunk
    return write_corpus(convert_mode(sent, mode, in_place=True)
                        for sent in iter_corpus(text, name, first_line))


def cmd_convert(cfg) -> None:
    from . import converter  # noqa: F401  (before the pool forks)
    text, name = _read_text(cfg["in"])
    chunks = _split_text(text, min(cfg["jobs"], os.cpu_count() or 1))
    convert = partial(_convert_chunk, name=name, mode=cfg["mode"])
    if len(chunks) > 1:
        # any start method works; fork, the default on Linux up to Python
        # 3.13, is safe because convert runs no other thread
        from multiprocessing import Pool
        with Pool(len(chunks)) as pool:
            # imap yields in input order, so the file's first error is raised
            out = "".join(pool.imap(convert, chunks))
    else:
        out = convert(chunks[0])
    _write_text(cfg["out"], out)


def cmd_train_prop(cfg) -> None:
    from .instances import FeatureConfig
    from .propmodel import PropTrainOptions, train_prop
    groups = _comma_list(cfg["features"])
    vectors = "token" in groups  # only the token group reads vectors
    corpus = _read_corpus(cfg["train"], keyed=vectors and bool(
        cfg["embeddings"] or cfg["hash-dim"]))
    provider = _provider(cfg) if vectors else None
    fc = FeatureConfig(token_features=vectors, tree_features="tree" in groups)
    options = PropTrainOptions(
        c=cfg["c"], tol=cfg["tol"], class_weights=cfg["class-weights"],
        epochs=cfg["epochs"], lr=cfg["lr"], patience=cfg["patience"],
        holdout=cfg["holdout"], seed=cfg["seed"],
        hidden_sizes=tuple(int(w) for w in _comma_list(cfg["hidden"])))
    try:
        model = train_prop(corpus, cfg["kind"], options, provider, fc,
                           log=_log)
    except TrainingError as err:
        raise TrainingError(f"{_name(cfg['train'])}: {err}") from None
    model.save(_model_path(cfg["model"]))
    _log(f"# trained {cfg['kind']} model on {len(corpus)} sentences")


def cmd_apply_prop(cfg) -> None:
    from .propmodel import ApplyConfig, PropModel, apply_model
    model = PropModel.load(_model_path(cfg["model"]))
    provider = _provider(cfg, (model.vectors, 1, model.dense_dim))
    apply_cfg = ApplyConfig(passive_imperative_fix=cfg["fix"],
                            iterate_to_fixpoint=cfg["fixpoint"])
    _write_text(cfg["out"], write_corpus(
        apply_model(model, sent, provider, apply_cfg, index=i)
        for i, sent in enumerate(_stream(cfg["in"], provider is not None))))


def cmd_train_parser(cfg) -> None:
    from .edgepred import EdgePredError, ParserTrainConfig, train_parser
    if not (cfg["embeddings"] or cfg["hash-dim"]):
        raise CliError("the edge parser needs embeddings: give "
                       "--embeddings or --hash-dim")
    corpus = _read_corpus(cfg["train"], keyed=True)
    provider = _provider(cfg)
    dev = _read_corpus(cfg["dev"], keyed=True) if cfg["dev"] else None
    try:
        parser = train_parser(corpus, provider, ParserTrainConfig(
            batch_size=cfg["batch"], lr=cfg["lr"], epochs=cfg["epochs"],
            patience=cfg["patience"], seed=cfg["seed"], hidden=cfg["hidden"],
            delexicalize=cfg["delexicalize"]), dev, log=_log)
    except (TrainingError, EdgePredError) as err:
        raise type(err)(f"{_name(cfg['train'])}: {err}") from None
    parser.save(_model_path(cfg["model"]))


def cmd_predict(cfg) -> None:
    from .edgepred import EdgeParser, decode_corpus
    parser = EdgeParser.load(_model_path(cfg["model"]))
    provider = _provider(cfg, (parser.vectors, parser.layers, parser.dim))
    _write_text(cfg["out"], write_corpus(
        decode_corpus(parser, _stream(cfg["in"], keyed=True), provider)))


def cmd_evaluate(cfg) -> None:
    from .evaluate import format_score, score
    report = score(_stream(cfg["system"]), _stream(cfg["gold"]),
                   frozenset(_comma_list(cfg["keep-subtypes"])),
                   (_name(cfg["system"]), _name(cfg["gold"])))
    _write_text(cfg["out"],
                format_score(report, cfg["view"], cfg["records"]) + "\n")


def cmd_agree(cfg) -> None:
    from .evaluate import agreement_matrix, format_agreement
    files = _comma_list(cfg["files"])
    if len(files) < 2:
        raise CliError("agree needs at least two --files")
    names = _comma_list(cfg["names"]) if cfg["names"] else \
        [os.path.splitext(os.path.basename(f))[0] for f in files]
    if len(names) != len(files):
        raise CliError("--names must list one name per file")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise CliError(f"agree: more than one file is named "
                       f"{', '.join(repeated)}; give distinct --names")
    report = agreement_matrix([_stream(f) for f in files], names)
    _write_text(cfg["out"], format_agreement(report) + "\n")


def cmd_stats(cfg) -> None:
    from .evaluate import diff_stats, format_diff
    report = diff_stats(_stream(cfg["original"]), _stream(cfg["edited"]),
                        cfg["scope"],
                        (_name(cfg["original"]), _name(cfg["edited"])))
    _write_text(cfg["out"], format_diff(report, cfg["records"]) + "\n")


HANDLERS = {
    "convert": cmd_convert,
    "train-prop": cmd_train_prop,
    "apply-prop": cmd_apply_prop,
    "train-parser": cmd_train_parser,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "agree": cmd_agree,
    "stats": cmd_stats,
}

_ERRORS = (CliError, ConfigError, ParseError, AlignmentError, InputError,
           OSError)


_VALUED = {f"--{o.name}" for opts in OPTIONS.values() for o in opts
           if o.kind != "bool"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads "-1e-3" after an option as an option of its own, unlike
    # "-1" or "-.5"; an option that takes a value is given it as "--lr=-1e-3"
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _VALUED and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    # Freezing at exit spares the interpreter's last collections, which
    # would walk numpy's heap only to free memory the process is giving
    # back anyway.
    atexit.unregister(gc.freeze)  # one registration per process
    atexit.register(gc.freeze)
    try:
        cfg = resolve_options(args)
        HANDLERS[args.command](cfg)
    except _ERRORS as err:
        if isinstance(err, OSError) and err.filename is not None:
            err = f"{err.filename}: {err.strerror}"
        print(f"conjprop: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
