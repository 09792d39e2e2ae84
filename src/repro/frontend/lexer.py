"""Tokenizer for the mini-C frontend."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import List


KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "const", "static", "extern", "struct", "union", "enum",
    "typedef", "if", "else", "while", "for", "do", "return", "break",
    "continue", "sizeof", "switch", "case", "default", "goto",
})

# Ordered longest-first so maximal munch falls out of the regex alternation.
_PUNCT = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ",", ";", "(", ")", "[", "]", "{", "}", ".",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?)
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)[uUlL]*
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)')
  | (?P<punct>""" + "|".join(re.escape(p) for p in _PUNCT) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(slots=True)
class Token:
    kind: str          # 'kw', 'ident', 'int', 'float', 'string', 'char', 'punct', 'eof'
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexError(ValueError):
    pass


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    line = 1
    n = len(source)
    # finditer with a contiguity check beats a match-per-token loop: the
    # scan stays inside the regex engine, and any gap between matches is
    # exactly the "cannot tokenize" case the old loop detected.
    for m in _TOKEN_RE.finditer(source):
        if m.start() != pos:
            snippet = source[pos:pos + 20]
            raise LexError(f"line {line}: cannot tokenize at {snippet!r}")
        pos = m.end()
        kind = m.lastgroup
        text = m.group(0)
        if kind == "ws" or kind == "comment":
            line += text.count("\n")
            continue
        if kind == "ident":
            if text in KEYWORDS:
                kind = "kw"
            text = sys.intern(text)
        elif kind == "int":
            text = m.group("int")  # strip u/l suffixes
        elif kind == "punct":
            # Identifiers and punctuation recur heavily across a corpus
            # (MPI_COMM_WORLD, loop variables, operators); interning
            # makes downstream dict probes pointer comparisons.
            text = sys.intern(text)
        assert kind is not None
        tokens.append(Token(kind, text, line))
        # No token class other than ws/comment can span a newline (the
        # string/char patterns exclude raw newlines), so `line` only
        # advances in the whitespace branch above.
    if pos != n:
        snippet = source[pos:pos + 20]
        raise LexError(f"line {line}: cannot tokenize at {snippet!r}")
    tokens.append(Token("eof", "", line))
    return tokens
