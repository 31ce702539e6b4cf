"""CoNLL-U reading and writing.

The representation keeps everything needed to reproduce a validator-clean
file byte for byte: multiword range lines are kept verbatim and re-emitted
in place, FEATS serialize in the canonical case-insensitive key order, and
DEPS serialize sorted by head id. Columns that the toolkit never interprets
(FORM, LEMMA, UPOS, XPOS, MISC) are stored as raw strings.  The writer
spells ids from the parser's interned table (str() for ids built in code)
and reuses the text of each FEATS and DEPS list, memoized by its items.
The reader parses each distinct FEATS and DEPS text once per process: a
memo maps the text to its dict or tuple, and every token gets a dict and a
list of its own, copied from the memo's when the text was seen before,
since add_dep, clone and the converters change them.  Both memos are
emptied at _PARSED_MAX entries.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

class ParseError(ValueError):
    """Raised on malformed input; carries the 1-based line number, the
    column name and, when known, the file: "path:line, FIELD: message"."""

    def __init__(self, message: str, line: int, fieldname: str | None = None,
                 path: str | None = None):
        where = f"line {line}" if path is None else f"{path}:{line}"
        if fieldname is not None:
            where += f", {fieldname}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.field = fieldname
        self.path = path

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it crosses processes
        return type(self), (self.message, self.line, self.field, self.path)


class TokenId(NamedTuple):
    """Token index; minor > 0 marks an empty node (e.g. 8.1)."""

    major: int
    minor: int = 0

    def __str__(self) -> str:
        if self.minor:
            return f"{self.major}.{self.minor}"
        return str(self.major)


# Head value of the artificial root.
ROOT = TokenId(0, 0)


# One shared TokenId per id text for the ID, HEAD and DEPS fields, which
# accept only the canonical spelling str(tid); _ID_TEXT is the reverse.  The
# writer's FEATS and DEPS memos key a list by its items in the order given,
# which fixes the order of FEATS keys equal but for case.  The reader's map
# a text that parsed cleanly to its value.  Each is emptied when full, so
# ever-new lists and texts stay bounded; the reader's sooner, since every
# text it misses costs a probe and an insertion, which slow as it grows.
_TOKEN_IDS: dict[str, TokenId] = {}
_ID_TEXT: dict[TokenId, str] = {}
_FEATS_TEXT: dict[tuple[tuple[str, str], ...], str] = {}
_DEPS_TEXT: dict[tuple[tuple[TokenId, str], ...], str] = {}
_TEXT_MAX = 1 << 14
_FEATS_PARSED: dict[str, dict[str, str]] = {}
_DEPS_PARSED: dict[str, tuple[tuple[TokenId, str], ...]] = {}
_PARSED_MAX = 1 << 11


def _remember(memo: dict, key: tuple, text: str) -> str:
    if len(memo) >= _TEXT_MAX:
        memo.clear()
    memo[key] = text
    return text


def parse_token_id(text: str, line: int = 0, fieldname: str = "ID") -> TokenId:
    tid = _TOKEN_IDS.get(text)
    if tid is None:
        major, dot, minor = text.partition(".")
        try:
            tid = TokenId(int(major), int(minor) if dot else 0)
        except ValueError:
            pass
        # int() also reads "+1", " 1", "01", "1_0" and non-ASCII digits
        if tid is None or str(tid) != text or dot and tid.minor < 1:
            raise ParseError(f"unparseable token id {text!r}", line, fieldname)
        _TOKEN_IDS[text] = tid
        _ID_TEXT[tid] = text
    return tid


@dataclass(slots=True)
class Token:
    id: TokenId
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: dict[str, str]
    head: TokenId | None          # None on empty nodes
    deprel: str | None
    deps: list[tuple[TokenId, str]]
    misc: str

    def feats_str(self) -> str:
        if not self.feats:
            return "_"
        items = tuple(self.feats.items())
        return _FEATS_TEXT.get(items) or _remember(_FEATS_TEXT, items, "|".join(
            f"{k}={v}" for k, v in sorted(items, key=lambda kv: kv[0].lower())))

    def deps_str(self) -> str:
        if not self.deps:
            return "_"
        items = tuple(self.deps)
        return _DEPS_TEXT.get(items) or _remember(_DEPS_TEXT, items, "|".join(
            [(_ID_TEXT.get(h) or str(h)) + ":" + label for h, label in sorted(items)]))


@dataclass
class Sentence:
    comments: list[str] = field(default_factory=list)
    tokens: list[Token] = field(default_factory=list)
    # multiword range lines, keyed by the token-list position they precede
    ranges: dict[int, list[str]] = field(default_factory=dict)

    @property
    def sent_id(self) -> str | None:
        for c in self.comments:
            if c.startswith("# sent_id"):
                _, _, value = c.partition("=")
                return value.strip()
        return None

    def words(self) -> list[Token]:
        """Regular tokens only, empty nodes excluded."""
        return [t for t in self.tokens if not t.id.minor]

    def token_by_id(self) -> dict[TokenId, Token]:
        return {t.id: t for t in self.tokens}

    def clone(self) -> "Sentence":
        tokens = [
            Token(t.id, t.form, t.lemma, t.upos, t.xpos, dict(t.feats),
                  t.head, t.deprel, list(t.deps), t.misc)
            for t in self.tokens
        ]
        return Sentence(list(self.comments), tokens,
                        {i: list(lines) for i, lines in self.ranges.items()})


def _parse_feats(text: str, line: int) -> dict[str, str]:
    """FEATS text as a fresh dict; a copy of it enters _FEATS_PARSED unless
    the text is "_"."""
    if text == "_":
        return {}
    feats: dict[str, str] = {}
    for item in text.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ParseError(f"malformed feature {item!r}", line, "FEATS")
        if key in feats:
            raise ParseError(f"duplicate feature key {key!r}", line, "FEATS")
        feats[key] = value
    if len(_FEATS_PARSED) >= _PARSED_MAX:
        _FEATS_PARSED.clear()
    _FEATS_PARSED[text] = feats.copy()
    return feats


def _parse_deps(text: str, line: int) -> list[tuple[TokenId, str]]:
    """DEPS text other than "_" as a fresh list of (head, label) pairs in
    the order given; a tuple of them enters _DEPS_PARSED."""
    deps = []
    for item in text.split("|"):
        head, _, label = item.partition(":")
        if not label:
            raise ParseError(f"malformed deps item {item!r}", line, "DEPS")
        deps.append((_TOKEN_IDS.get(head)
                     or parse_token_id(head, line, "DEPS"), label))
    if len(_DEPS_PARSED) >= _PARSED_MAX:
        _DEPS_PARSED.clear()
    _DEPS_PARSED[text] = tuple(deps)
    return deps


# The ids of a sentence of up to 255 words and no empty node.
_WORD_IDS = [TokenId(i) for i in range(1, 256)]


def _finish_sentence(sent: Sentence, start_line: int) -> Sentence:
    """Checks the ids and heads of the sentence that starts at start_line.
    The common case, words 1 to n and no dangling head, is checked in bulk,
    and the loops find a problem."""
    tokens = sent.tokens
    ids = [t.id for t in tokens]
    heads = {None, ROOT, *ids}
    if (ids and ids == _WORD_IDS[:len(ids)]
            and {t.head for t in tokens} <= heads
            and {h for t in tokens for h, _ in t.deps} <= heads):
        return sent

    def line(i: int) -> int:
        """tokens[i]'s, after the comments and the range lines before it"""
        return start_line + len(sent.comments) + i + sum(
            len(lines) for at, lines in sent.ranges.items() if at <= i)

    expected = 1
    prev: TokenId | None = None
    for i, tid in enumerate(ids):
        if prev is not None and tid <= prev:
            raise ParseError(f"token id {tid} out of order", line(i), "ID")
        prev = tid
        if not tid.minor:
            if tid.major != expected:
                raise ParseError(
                    f"token ids not contiguous: expected {expected}, got {tid.major}",
                    line(i), "ID")
            expected += 1
    if expected == 1:
        raise ParseError("sentence has no word lines", start_line)
    for i, t in enumerate(tokens):
        if t.head not in heads:
            raise ParseError(f"token {t.id} has dangling head {t.head}",
                             line(i), "HEAD")
        for h, _ in t.deps:
            if h not in heads:
                raise ParseError(f"token {t.id} has dangling deps head {h}",
                                 line(i), "DEPS")
    return sent


def parse_corpus(text: str, path: str | None = None,
                 first_line: int = 1) -> list[Sentence]:
    """Parse a CoNLL-U document, or its slice from line first_line on.
    Raises ParseError on the first problem, naming path when given.  The
    cyclic collector is paused: the tokens hold no cycle for it to find."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_lines(text, first_line)
    except ParseError as err:
        if path is None:
            raise
        raise ParseError(err.message, err.line, err.field, path) from None
    finally:
        if enabled:
            gc.enable()


_BLOCK_CHARS = 1 << 16


def iter_corpus(text: str, path: str | None = None,
                first_line: int = 1) -> Iterator[Sentence]:
    """parse_corpus's sentences, parsed one split_text slice of about
    _BLOCK_CHARS characters at a time, so that a stream holds only one
    slice's sentences; a ParseError arrives when the stream reaches it."""
    for line, block in split_text(text, _BLOCK_CHARS, first_line):
        yield from parse_corpus(block, path, line)


def split_text(text: str, size: int,
               first_line: int = 1) -> Iterator[tuple[int, str]]:
    """text in contiguous slices, each with its first line number, cut just
    after the first blank line at or after each multiple of size."""
    start, target = 0, size
    while start < len(text):
        end = text.find("\n\n", max(start, target))
        cut = len(text) if end < 0 else end + 2
        yield first_line, text[start:cut]
        first_line += text.count("\n", start, cut)
        start, target = cut, target + size


def _parse_lines(text: str, first_line: int) -> list[Sentence]:
    interned = _TOKEN_IDS.get  # parse_token_id parses and interns the rest
    parsed_feats = _FEATS_PARSED.get
    parsed_deps = _DEPS_PARSED.get
    sentences: list[Sentence] = []
    current = Sentence()
    tokens = current.tokens
    start_line = first_line  # the line after the last blank one

    for lineno, line in enumerate(text.split("\n"), start=first_line):
        if line == "":
            if tokens or current.comments or current.ranges:
                sentences.append(_finish_sentence(current, start_line))
                current = Sentence()
                tokens = current.tokens
            start_line = lineno + 1
            continue
        if line[0] == "#":
            if tokens:
                raise ParseError("comment after token lines", lineno)
            current.comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 columns, got {len(cols)}", lineno)
        tid, form, lemma, upos, xpos, feats, head, deprel, deps, misc = cols
        if "-" in tid:
            a, _, b = tid.partition("-")
            if not (tid.isascii() and a.isdigit() and b.isdigit()
                    and int(a) <= int(b)):
                raise ParseError(f"malformed range id {tid!r}", lineno, "ID")
            current.ranges.setdefault(len(tokens), []).append(line)
            continue
        tid = interned(tid) or parse_token_id(tid, lineno)
        if head != "_":
            head = interned(head) or parse_token_id(head, lineno, "HEAD")
            if head.minor:
                raise ParseError("HEAD cannot reference an empty node",
                                 lineno, "HEAD")
        elif tid.minor:
            head = None
        else:
            raise ParseError("regular token lacks a HEAD", lineno, "HEAD")
        if deprel == "_":
            if head is not None:
                raise ParseError("HEAD given but DEPREL empty", lineno,
                                 "DEPREL")
            deprel = None
        # each token owns its dict and list, since add_dep and clone change
        # them: a text seen before is copied from its memo
        if feats == "_":
            feats = {}
        else:
            seen = parsed_feats(feats)
            feats = seen.copy() if seen else _parse_feats(feats, lineno)
        if deps == "_":
            deps = []
        else:
            seen = parsed_deps(deps)
            deps = [*seen] if seen else _parse_deps(deps, lineno)
        tokens.append(Token(tid, form, lemma, upos, xpos, feats, head, deprel,
                            deps, misc))
    if tokens or current.comments or current.ranges:
        sentences.append(_finish_sentence(current, start_line))
    return sentences


def token_line(t: Token) -> str:
    text = _ID_TEXT.get
    return "\t".join((
        text(t.id) or str(t.id), t.form, t.lemma, t.upos, t.xpos, t.feats_str(),
        "_" if t.head is None else text(t.head) or str(t.head),
        t.deprel if t.deprel is not None else "_", t.deps_str(), t.misc,
    ))


def write_sentence(sent: Sentence) -> str:
    lines: list[str] = list(sent.comments)
    for i, tok in enumerate(sent.tokens):
        lines.extend(sent.ranges.get(i, ()))
        lines.append(token_line(tok))
    lines.extend(sent.ranges.get(len(sent.tokens), ()))
    return "\n".join(lines) + "\n"


def write_corpus(sentences: Iterable[Sentence]) -> str:
    return "".join(write_sentence(s) + "\n" for s in sentences)


def decode_utf8(raw: bytes, name: str) -> str:
    """raw as text with its newlines translated, as text-mode open() reads it.

    Bytes that are not UTF-8 raise a ParseError naming name and the line,
    counted in raw up to the first bad byte.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{raw[err.start]:02x}", line,
                         path=name) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_file(path: str) -> list[Sentence]:
    with open(path, "rb") as fh:
        return parse_corpus(decode_utf8(fh.read(), path), path)


def write_file(sentences: Iterable[Sentence], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_corpus(sentences))
