"""Plain-text run configuration.

A config file holds one "key = value" pair per line; full-line comments
start with "#".  Keys mirror the long command-line flag names (without the
leading dashes), command-line flags override file values, and built-in
defaults fill the rest.  The resolved result is logged by the command-line
layer so any run can be reproduced from its log.
"""

from __future__ import annotations

import math
import os

from .conllu import decode_utf8


class ConfigError(Exception):
    """Malformed configuration; the message names the file and line."""


class InputError(Exception):
    """Base of the bad-input errors of the numpy-backed modules."""


class AlignmentError(ValueError):
    """Two corpora whose sentences do not pair up."""


def physical_memory() -> float:
    """Bytes of RAM; infinite where sysconf does not know them.  The
    trainers check their footprint against it before they allocate."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf


def read_config_file(path: str) -> dict[str, str]:
    """Key-value pairs from a config file; a later repeated key wins."""
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        out[key] = value.strip()
    return out


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}

# kind -> (converter, what a bad value should have been)
_KINDS = {"int": (int, "an integer"), "float": (float, "a number"),
          "bool": (lambda text: _BOOLEANS[text.lower()], "true or false")}


def parse_value(key: str, text: str, kind: str, where: str):
    """Converts a raw config string to kind; errors name the source."""
    if kind not in _KINDS:
        return text
    convert, expected = _KINDS[kind]
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{where}: {key} expects {expected}, got {text!r}") from None
