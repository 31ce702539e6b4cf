"""CoNLL-U reading and writing.

The representation keeps everything needed to reproduce a validator-clean
file byte for byte: multiword range lines are kept verbatim and re-emitted
in place, FEATS serialize in the canonical case-insensitive key order, and
DEPS serialize sorted by head id. Columns that the toolkit never interprets
(FORM, LEMMA, UPOS, XPOS, MISC) are stored as raw strings.  The writer
spells ids from the parser's interned table (str() for ids built in code)
and reuses the text of each FEATS and DEPS list, memoized by its items.
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

    @property
    def is_empty(self) -> bool:
        return self.minor > 0


# Head value of the artificial root.
ROOT = TokenId(0, 0)


# One shared TokenId per canonical spelling (str(tid)) for the ID, HEAD and
# DEPS fields; other spellings ("01", "+1") are parsed anew, never stored.
# _ID_TEXT is the reverse.  The FEATS and DEPS memos key a list by its items
# in the order given, which fixes the order of FEATS keys equal but for case,
# and are emptied at _TEXT_MAX entries, so ever-new lists stay bounded.
_TOKEN_IDS: dict[str, TokenId] = {}
_ID_TEXT: dict[TokenId, str] = {}
_FEATS_TEXT: dict[tuple[tuple[str, str], ...], str] = {}
_DEPS_TEXT: dict[tuple[tuple[TokenId, str], ...], str] = {}
_TEXT_MAX = 1 << 14


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
            if dot and tid.minor < 1:
                raise ValueError
        except ValueError:
            raise ParseError(f"unparseable token id {text!r}", line,
                             fieldname) from None
        if str(tid) == text:
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
        return [t for t in self.tokens if not t.id.is_empty]

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
    return feats


def _finish_sentence(sent: Sentence, start_line: int,
                     token_lines: list[int]) -> Sentence:
    """Checks the sentence's ids and heads; token_lines[i] is the line of
    sent.tokens[i], which errors name."""
    ids = {t.id for t in sent.tokens}
    expected = 1
    prev: TokenId | None = None
    for t, line in zip(sent.tokens, token_lines):
        if prev is not None and t.id <= prev:
            raise ParseError(f"token id {t.id} out of order", line, "ID")
        prev = t.id
        if not t.id.is_empty:
            if t.id.major != expected:
                raise ParseError(
                    f"token ids not contiguous: expected {expected}, got {t.id.major}",
                    line, "ID")
            expected += 1
    if expected == 1:
        raise ParseError("sentence has no word lines", start_line)
    for t, line in zip(sent.tokens, token_lines):
        if t.head is not None and t.head != ROOT and t.head not in ids:
            raise ParseError(f"token {t.id} has dangling head {t.head}",
                             line, "HEAD")
        for h, _ in t.deps:
            if h != ROOT and h not in ids:
                raise ParseError(f"token {t.id} has dangling deps head {h}",
                                 line, "DEPS")
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
    sentences: list[Sentence] = []
    current = Sentence()
    token_lines: list[int] = []
    start_line = first_line
    in_sentence = False

    for lineno, line in enumerate(text.split("\n"), start=first_line):
        if line == "":
            if in_sentence:
                sentences.append(
                    _finish_sentence(current, start_line, token_lines))
                current = Sentence()
                in_sentence = False
            continue
        if not in_sentence:
            start_line = lineno
            token_lines = []
            in_sentence = True
        if line.startswith("#"):
            if current.tokens:
                raise ParseError("comment after token lines", lineno)
            current.comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 columns, got {len(cols)}", lineno)
        if "-" in cols[0]:
            a, _, b = cols[0].partition("-")
            if not (a.isdigit() and b.isdigit() and int(a) <= int(b)):
                raise ParseError(f"malformed range id {cols[0]!r}", lineno, "ID")
            current.ranges.setdefault(len(current.tokens), []).append(line)
            continue
        tid = interned(cols[0]) or parse_token_id(cols[0], lineno)
        head = None
        if cols[6] != "_":
            head = interned(cols[6]) or parse_token_id(cols[6], lineno, "HEAD")
            if head.is_empty:
                raise ParseError("HEAD cannot reference an empty node",
                                 lineno, "HEAD")
        elif not tid.is_empty:
            raise ParseError("regular token lacks a HEAD", lineno, "HEAD")
        deprel = None if cols[7] == "_" else cols[7]
        if head is not None and deprel is None:
            raise ParseError("HEAD given but DEPREL empty", lineno, "DEPREL")
        feats = _parse_feats(cols[5], lineno)
        deps = []
        if cols[8] != "_":
            for item in cols[8].split("|"):
                dep_head, sep, label = item.partition(":")
                if not sep or not label:
                    raise ParseError(f"malformed deps item {item!r}", lineno,
                                     "DEPS")
                deps.append((interned(dep_head)
                             or parse_token_id(dep_head, lineno, "DEPS"),
                             label))
        token_lines.append(lineno)
        current.tokens.append(Token(
            tid, cols[1], cols[2], cols[3], cols[4],  # FORM to XPOS
            feats, head, deprel, deps, cols[9]))
    if in_sentence:
        sentences.append(_finish_sentence(current, start_line, token_lines))
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
