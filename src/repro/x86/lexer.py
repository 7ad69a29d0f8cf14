"""Tokenization of assembly source text.

The lexer is line-oriented, matching how gas treats assembly input.  It
splits a source string into logical statements (handling ``;`` statement
separators and ``#`` comments outside string literals) and provides a small
regex tokenizer for operand expressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class SourceLine:
    """One logical assembly statement with its source line number."""

    text: str
    lineno: int


def _split_quoted(line: str) -> List[str]:
    """Split *line* on ``;`` and cut it at ``#``, both outside string
    literals.  A quote after an odd run of backslashes is escaped."""
    parts: List[str] = []
    start = 0
    in_string = False
    backslashes = 0
    for i, ch in enumerate(line):
        if ch == "\\":
            backslashes += 1
            continue
        if ch == '"' and not backslashes % 2:
            in_string = not in_string
        elif not in_string:
            if ch == "#":
                line = line[:i]
                break
            if ch == ";":
                parts.append(line[start:i])
                start = i + 1
        backslashes = 0
    parts.append(line[start:])
    return parts


_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def logical_lines(source: str) -> Iterator[SourceLine]:
    """Yield trimmed, comment-free statements from assembly source."""
    # Preserve line structure (and numbering) when removing /* */ blocks.
    source = _BLOCK_COMMENT.sub(
        lambda match: "\n" * match.group().count("\n"), source)
    for lineno, line in enumerate(source.splitlines(), start=1):
        if '"' in line:
            parts = _split_quoted(line)
        else:
            # No string literal: the first '#' starts the comment and
            # every ';' separates statements.
            comment = line.find("#")
            if comment >= 0:
                line = line[:comment]
            parts = line.split(";")
        for stmt in parts:
            stmt = stmt.strip()
            if stmt:
                yield SourceLine(stmt, lineno)


# ---------------------------------------------------------------------------
# Operand-expression tokenizer.
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(r"""
    (?P<REG>%[a-zA-Z][a-zA-Z0-9]*)
  | (?P<NUMBER>-?0[xX][0-9a-fA-F]+|-?\d+)
  | (?P<IDENT>[.@_a-zA-Z][.@_$a-zA-Z0-9]*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<PLUS>\+)
  | (?P<MINUS>-)
  | (?P<STAR>\*)
  | (?P<DOLLAR>\$)
  | (?P<WS>\s+)
""", re.VERBOSE)


Token = Tuple[str, str]


class LexError(Exception):
    pass


def tokenize_operand(text: str) -> List[Token]:
    """Tokenize an operand string into (kind, text) pairs (whitespace
    dropped)."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = TOKEN_RE.match(text, pos)
        if match is None:
            raise LexError("cannot tokenize operand %r at %r"
                           % (text, text[pos:]))
        kind = match.lastgroup
        if kind != "WS":
            tokens.append((kind, match.group()))
        pos = match.end()
    return tokens


def split_operands(text: str) -> List[str]:
    """Split an operand list on top-level commas (not inside parentheses)."""
    if "(" not in text and ")" not in text:
        parts = [part.strip() for part in text.split(",")]
        if not parts[-1]:
            parts.pop()
        return parts
    return _split_nested(text)


def _split_nested(text: str) -> List[str]:
    """:func:`split_operands` for text with parentheses: track depth."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_integer(text: str) -> int:
    """Parse a decimal or hex integer literal (with optional sign)."""
    text = text.strip()
    return int(text, 0)
