"""Lexer for LOLCODE 1.2 with the paper's parallel extensions.

The lexer is line oriented, mirroring LOLCODE's statement model:

* a physical newline ends a statement (emitted as a ``NEWLINE`` token);
* a comma is a *virtual* newline (paper Table I) and is emitted as the
  same ``NEWLINE`` token;
* ``...`` (or the unicode ellipsis) at end of line continues the logical
  line, exactly as used throughout the paper's n-body listing;
* ``BTW`` starts a line comment, ``OBTW``/``TLDR`` bracket a block comment;
  ``OBTW`` opens one only where a statement may start (first on its
  line or after a comma), elsewhere it is a word.

Multi-word keywords (``TXT MAH BFF``, ``IM SRSLY MESIN WIF``, ...) are
matched greedily, longest phrase first, so ``MAH FRENZ`` lexes as one
keyword while ``MAH x`` lexes as the ``MAH`` qualifier followed by an
identifier.

The lexer makes one pass over the source.  Each token on a line is one
match of :data:`_TOKEN_RE`, whose leading ``[ \\t\\r]*`` swallows the
blanks before it, so whitespace costs no Python-level work and a
:class:`SourcePos` is built only for the tokens it emits.  Keyword
phrases are grouped on the fly: a word that can begin a multi-word
phrase opens a pending run of words (kept as text, line and column),
which is grouped (greedily, left to right) when the next non-word
token or newline arrives.  A ``...`` continuation emits no newline, so
a phrase may span it.

String literals support the LOLCODE 1.2 colon escapes:

====== ==========================
``:)`` newline
``:>`` tab
``:o`` bell
``:"`` double quote
``::`` literal colon
``:(<hex>)`` unicode code point
``:{<var>}`` variable interpolation
====== ==========================
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .errors import LolSyntaxError, SourcePos
from .tokens import KEYWORD_PHRASES, Token, TokType

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: One token, blanks before it included.  The alternatives begin with
#: disjoint characters; ``end`` matches a blank rest of line and ``bad``
#: any character no token can start with.  Numbers take ASCII digits
#: only (``\d`` would admit other scripts' digits).
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<float>-?[0-9]+(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<comma>,)"
    r"|(?P<punct>[?!]|'Z)"
    r"|(?P<string>\")"
    r"|(?P<ellipsis>\.\.\.|\u2026)"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.)"
    r")"
)
_TLDR_RE = re.compile(r"(?<![A-Za-z0-9_])TLDR(?![A-Za-z0-9_])")
_PUNCT = {"?": TokType.QMARK, "!": TokType.BANG, "'Z": TokType.KW}


def _build_phrase_trie() -> dict[str, list]:
    trie: dict[str, list] = {}
    for phrase in KEYWORD_PHRASES:
        level = trie
        for word in phrase.split(" "):
            node = level.setdefault(word, [None, {}])
            level = node[1]
        node[0] = phrase
    return trie


#: Word -> [phrase ending at this word or None, next word -> node].
_PHRASE_TRIE = _build_phrase_trie()
#: Words that begin a multi-word phrase: only these open a pending run.
_PHRASE_HEADS = frozenset(word for word, node in _PHRASE_TRIE.items() if node[1])


def _group_words(
    words: list[str],
    lines: list[int],
    cols: list[int],
    filename: str,
    emit: Callable[[Token], None],
) -> None:
    """Emit a run of adjacent words as KW/IDENT tokens, taking the
    longest phrase that starts at each word, and empty the run."""
    i = 0
    n = len(words)
    while i < n:
        phrase = None
        end = j = i
        node = _PHRASE_TRIE.get(words[i])
        while node is not None:
            j += 1
            if node[0] is not None:
                phrase, end = node[0], j
            node = node[1].get(words[j]) if j < n else None
        pos = SourcePos(lines[i], cols[i], filename)
        if phrase is None:
            emit(Token(TokType.IDENT, words[i], pos))
            i += 1
        else:
            emit(Token(TokType.KW, phrase, pos))
            i = end
    words.clear()
    lines.clear()
    cols.clear()


class Lexer:
    """Tokenize LOLCODE source text into a flat token stream."""

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename

    def tokenize(self) -> list[Token]:
        filename = self.filename
        tokens: list[Token] = []
        emit = tokens.append
        # The pending run of words, with each word's line and column.
        words: list[str] = []
        word_lines: list[int] = []
        word_cols: list[int] = []
        match = _TOKEN_RE.match
        heads = _PHRASE_HEADS
        keywords = _PHRASE_TRIE
        KW, IDENT, NEWLINE = TokType.KW, TokType.IDENT, TokType.NEWLINE

        def newline(line: int, col: int) -> None:
            # Runs of newlines (and commas) collapse into one token.
            if words:
                _group_words(words, word_lines, word_cols, filename, emit)
            if not tokens or tokens[-1].type is not NEWLINE:
                emit(Token(NEWLINE, "\n", SourcePos(line, col, filename)))

        in_comment = False
        continuing = False
        lines = self.source.split("\n")
        for lineno, raw in enumerate(lines, 1):
            i = 0
            # Whether code precedes this point of the line (a comma ends
            # it, like a newline), so that ``OBTW`` here is a word.
            has_content = False
            continues = False
            while True:
                if in_comment:
                    m = _TLDR_RE.search(raw, i)
                    if m is None:
                        break
                    in_comment = False
                    i = m.end()
                m = match(raw, i)
                kind = m.lastgroup
                start, i = m.span(kind)
                if kind == "word":
                    word = raw[start:i]
                    if word == "BTW":
                        break
                    if word == "OBTW" and not has_content:
                        in_comment = True
                        continue
                    has_content = True
                    if words or word in heads:
                        words.append(word)
                        word_lines.append(lineno)
                        word_cols.append(start + 1)
                    else:
                        emit(
                            Token(
                                KW if word in keywords else IDENT,
                                word,
                                SourcePos(lineno, start + 1, filename),
                            )
                        )
                    continue
                if kind == "end":
                    break
                if kind == "comma":
                    newline(lineno, start + 1)
                    has_content = False
                    continue
                pos = SourcePos(lineno, start + 1, filename)
                if kind == "ellipsis":
                    # Only blanks or a comment may follow a continuation.
                    rest = raw[i:].strip()
                    if rest and not rest.startswith("BTW"):
                        raise LolSyntaxError(
                            "unexpected text after '...' line continuation", pos
                        )
                    continues = True
                    break
                if kind == "bad":
                    raise LolSyntaxError(f"unexpected character {raw[start]!r}", pos)
                if words:
                    _group_words(words, word_lines, word_cols, filename, emit)
                has_content = True
                if kind == "int":
                    emit(Token(TokType.INT, int(raw[start:i]), pos))
                elif kind == "float":
                    emit(Token(TokType.FLOAT, float(raw[start:i]), pos))
                elif kind == "string":
                    parts, i = self._scan_string(raw, start, lineno)
                    emit(Token(TokType.STRING, parts, pos))
                else:
                    text = raw[start:i]
                    emit(Token(_PUNCT[text], text, pos))
            if in_comment:
                continue
            if continues:
                continuing = True
                continue
            if has_content or continuing:
                newline(lineno, len(raw) + 1)
            continuing = False
        newline(len(lines) + 1, 1)
        tokens.append(Token(TokType.EOF, None, tokens[-1].pos))
        return tokens

    def _scan_string(
        self, raw: str, start: int, lineno: int
    ) -> tuple[list[object], int]:
        """Scan a double-quoted string starting at ``raw[start]``.

        Returns a list of parts: plain ``str`` segments interleaved with
        ``("interp", varname)`` tuples for ``:{var}`` interpolation.
        """
        i = start + 1
        length = len(raw)
        parts: list[object] = []
        buf: list[str] = []

        def flush() -> None:
            if buf:
                parts.append("".join(buf))
                buf.clear()

        while i < length:
            ch = raw[i]
            if ch == '"':
                flush()
                return parts, i + 1
            if ch == ":":
                if i + 1 >= length:
                    break
                esc = raw[i + 1]
                if esc == ")":
                    buf.append("\n")
                    i += 2
                elif esc == ">":
                    buf.append("\t")
                    i += 2
                elif esc == "o":
                    buf.append("\a")
                    i += 2
                elif esc == '"':
                    buf.append('"')
                    i += 2
                elif esc == ":":
                    buf.append(":")
                    i += 2
                elif esc == "(":
                    end = raw.find(")", i + 2)
                    if end < 0:
                        raise LolSyntaxError(
                            "unterminated :(<hex>) escape",
                            SourcePos(lineno, i + 1, self.filename),
                        )
                    hexpart = raw[i + 2 : end]
                    try:
                        buf.append(chr(int(hexpart, 16)))
                    except ValueError as exc:
                        raise LolSyntaxError(
                            f"bad hex escape {hexpart!r}",
                            SourcePos(lineno, i + 1, self.filename),
                        ) from exc
                    i = end + 1
                elif esc == "{":
                    end = raw.find("}", i + 2)
                    if end < 0:
                        raise LolSyntaxError(
                            "unterminated :{var} interpolation",
                            SourcePos(lineno, i + 1, self.filename),
                        )
                    varname = raw[i + 2 : end]
                    if not _WORD_RE.fullmatch(varname):
                        raise LolSyntaxError(
                            f"bad interpolation variable {varname!r}",
                            SourcePos(lineno, i + 1, self.filename),
                        )
                    flush()
                    parts.append(("interp", varname))
                    i = end + 1
                else:
                    raise LolSyntaxError(
                        f"unknown string escape ':{esc}'",
                        SourcePos(lineno, i + 1, self.filename),
                    )
                continue
            buf.append(ch)
            i += 1
        raise LolSyntaxError(
            "unterminated string literal", SourcePos(lineno, start + 1, self.filename)
        )


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Convenience wrapper: tokenize ``source`` into a token list."""
    return Lexer(source, filename).tokenize()
