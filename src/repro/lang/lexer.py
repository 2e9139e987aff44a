"""Tokenizer for the concrete WOL syntax.

The concrete syntax follows the paper's notation as closely as ASCII allows:

* implication is ``<=`` (the paper's left double arrow),
* less-or-equal is therefore written ``=<`` (Prolog style) to stay
  unambiguous; ``>=`` and ``>`` are accepted and normalised by the parser,
* variant injection is ``ins_<label>(payload)``,
* Skolem functions are ``Mk_<ClassName>(args)``,
* comments run from ``--`` or ``#`` to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


class LexError(Exception):
    """Raised on unrecognisable input, with line/column context."""


#: Token kinds.
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
SYMBOL = "SYMBOL"
EOF = "EOF"

KEYWORDS = frozenset({"in", "true", "false", "transformation", "constraint"})

# Longest-match-first symbol table.
_SYMBOLS = ("<=", "=<", ">=", "!=", "<>", "(", ")", ",", ";", ":", ".",
            "=", "<", ">")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def is_symbol(self, text: str) -> bool:
        return self.kind == SYMBOL and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == IDENT and self.text == text

    def __str__(self) -> str:
        if self.kind == EOF:
            return "end of input"
        return f"{self.text!r}"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`LexError` on bad input."""
    tokens: List[Token] = []
    line = 1
    column = 1
    pos = 0
    length = len(source)

    def advance(count: int) -> None:
        nonlocal pos, line, column
        for _ in range(count):
            if pos < length and source[pos] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            pos += 1

    while pos < length:
        ch = source[pos]
        if ch.isspace():
            advance(1)
            continue
        if source.startswith("--", pos) or ch == "#":
            while pos < length and source[pos] != "\n":
                advance(1)
            continue
        if ch == '"':
            token, consumed = _read_string(source, pos, line, column)
            tokens.append(token)
            advance(consumed)
            continue
        if ch.isdigit() or (ch == "-" and pos + 1 < length
                            and source[pos + 1].isdigit()):
            token = _read_number(source, pos, line, column)
            tokens.append(token)
            advance(len(token.text))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            end = pos
            while end < length and (source[end].isalnum()
                                    or source[end] == "_"):
                end += 1
            text = source[start:end]
            tokens.append(Token(IDENT, text, line, column))
            advance(end - start)
            continue
        for symbol in _SYMBOLS:
            if source.startswith(symbol, pos):
                tokens.append(Token(SYMBOL, symbol, line, column))
                advance(len(symbol))
                break
        else:
            raise LexError(
                f"unexpected character {ch!r} at line {line}, column {column}")
    tokens.append(Token(EOF, "", line, column))
    return tokens


def find_unquoted(source: str, char: str) -> Optional[int]:
    """The index of the first ``char`` in ``source`` outside a comment
    or string literal, read as :func:`tokenize` reads them, or None
    (also when an unterminated string comes first: the text does not
    lex up to any such ``char``)."""
    pos = 0
    length = len(source)
    while pos < length:
        ch = source[pos]
        if source.startswith("--", pos) or ch == "#":
            pos = source.find("\n", pos)
            if pos < 0:
                return None
        elif ch == '"':
            try:
                _, consumed = _read_string(source, pos, 0, 0)
            except LexError:
                return None
            pos += consumed
        elif ch == char:
            return pos
        else:
            pos += 1
    return None


def _read_string(source: str, pos: int, line: int,
                 column: int) -> Tuple[Token, int]:
    """Read a double-quoted string with ``\\"`` and ``\\\\`` escapes.

    Returns the token and the number of source characters consumed
    (which differs from the token text length when escapes occur).
    """
    out: List[str] = []
    i = pos + 1
    while i < len(source):
        ch = source[i]
        if ch == "\\" and i + 1 < len(source) and source[i + 1] in '"\\':
            out.append(source[i + 1])
            i += 2
            continue
        if ch == '"':
            return Token(STRING, "".join(out), line, column), i + 1 - pos
        if ch == "\n":
            break
        out.append(ch)
        i += 1
    raise LexError(f"unterminated string at line {line}, column {column}")


def _read_number(source: str, pos: int, line: int, column: int) -> Token:
    end = pos
    if source[end] == "-":
        end += 1
    while end < len(source) and source[end].isdigit():
        end += 1
    if (end < len(source) and source[end] == "."
            and end + 1 < len(source) and source[end + 1].isdigit()):
        end += 1
        while end < len(source) and source[end].isdigit():
            end += 1
    return Token(NUMBER, source[pos:end], line, column)
