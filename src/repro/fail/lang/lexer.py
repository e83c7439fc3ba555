"""Tokenizer for the FAIL language.

The token set covers everything appearing in the paper's scenario
listings (Figs. 4, 5a, 7a, 8a/8b, 10a/10b): keywords, integer
literals, identifiers, the ``<>`` inequality of the paper's dialect,
``?msg`` receive triggers, ``!msg(dest)`` send actions and C-style
comments (``//`` and ``/* */``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.fail.lang.errors import FailSyntaxError

KEYWORDS = {
    "Daemon", "Deploy", "node", "int", "time", "always", "goto",
    "halt", "stop", "continue", "timer", "onload", "onexit", "onerror",
    "before", "after", "on", "group", "partition", "heal",
}

#: multi-char operators first so maximal munch works
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>|==|<=|>=|&&|\|\||->|[{}():;,!?\[\]<>=+\-*/%\.])
""", re.VERBOSE | re.DOTALL)


@dataclass
class Token:
    """One lexical token with its source position."""

    kind: str       # 'number' | 'ident' | 'keyword' | operator literal | 'eof'
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"Token({self.kind!r}, {self.value!r}, L{self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list ending with an ``eof`` token."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            raise FailSyntaxError(f"unexpected character {source[pos]!r}",
                                  line=line, col=col)
        text = m.group(0)
        kind = m.lastgroup
        col = pos - line_start + 1
        if kind in ("ws", "comment"):
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        elif kind == "number":
            tokens.append(Token("number", text, line, col))
        elif kind == "ident":
            if text in KEYWORDS:
                tokens.append(Token("keyword", text, line, col))
            else:
                tokens.append(Token("ident", text, line, col))
        else:  # operator
            tokens.append(Token(text, text, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens
