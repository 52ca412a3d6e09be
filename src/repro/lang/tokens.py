"""Token model and the multi-word keyword table for extended LOLCODE.

LOLCODE keywords are frequently multi-word phrases (``SUM OF``, ``IM IN
YR``, ``TXT MAH BFF``).  The lexer performs greedy longest-phrase matching
against :data:`KEYWORD_PHRASES`, emitting a single ``KW`` token whose value
is the canonical phrase (space separated, upper case).

The table covers the LOLCODE 1.2 core (paper Table I), the parallel and
distributed computing extensions (Table II), and the additional math and
random-number extensions (Table III).
"""

from __future__ import annotations

import enum

from .errors import SourcePos


class TokType(enum.Enum):
    KW = "keyword"
    IDENT = "identifier"
    INT = "integer literal"
    FLOAT = "float literal"
    STRING = "string literal"
    NEWLINE = "newline"
    QMARK = "'?'"
    BANG = "'!'"
    EOF = "end of file"


class Token:
    """One token: a plain ``__slots__`` record, like :class:`SourcePos`,
    with a dataclass's equality, hash and repr."""

    __slots__ = ("type", "value", "pos")

    def __init__(self, type: TokType, value: object, pos: SourcePos) -> None:
        self.type = type
        #: canonical phrase for KW, name for IDENT, parsed literal otherwise
        self.value = value
        self.pos = pos

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.type, self.value, self.pos) == (
            other.type,
            other.value,
            other.pos,
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value, self.pos))

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, value={self.value!r}, "
            f"pos={self.pos!r})"
        )

    def is_kw(self, phrase: str) -> bool:
        return self.type is TokType.KW and self.value == phrase

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.type is TokType.KW:
            return f"KW({self.value})"
        return f"{self.type.name}({self.value!r})"


# ---------------------------------------------------------------------------
# Keyword phrases.
#
# Longest phrases must win, e.g. ``MAH FRENZ`` before ``MAH`` and
# ``SMALLR OF`` (min, LOLCODE 1.2) before the paper's bare ``SMALLR``
# (less-than comparison, Table I).  The lexer sorts internally, so order
# here is purely for readability.
# ---------------------------------------------------------------------------

KEYWORD_PHRASES: tuple[str, ...] = (
    # -- program structure ---------------------------------------------------
    "HAI",
    "KTHXBYE",
    "CAN HAS",
    # -- I/O ------------------------------------------------------------------
    "VISIBLE",
    "GIMMEH",
    # -- declarations / assignment -------------------------------------------
    "I HAS A",
    "WE HAS A",
    "ITZ SRSLY LOTZ A",
    "ITZ SRSLY A",
    "ITZ LOTZ A",
    "ITZ A",
    "ITZ",
    "AN THAR IZ",
    "AN IM SHARIN IT",
    "IM SHARIN IT",
    "AN ITZ",
    "R",
    # -- types ----------------------------------------------------------------
    "NUMBR",
    "NUMBRS",
    "NUMBAR",
    "NUMBARS",
    "YARN",
    "YARNS",
    "TROOF",
    "TROOFS",
    "NOOB",
    "BUKKIT",
    # -- literals ---------------------------------------------------------
    "WIN",
    "FAIL",
    # -- operators (LOLCODE 1.2, Table I) --------------------------------------
    "SUM OF",
    "DIFF OF",
    "PRODUKT OF",
    "QUOSHUNT OF",
    "MOD OF",
    "BIGGR OF",
    "SMALLR OF",
    "BOTH SAEM",
    "DIFFRINT",
    "BIGGER",   # paper Table I: greater-than comparison
    "SMALLR",   # paper Table I: less-than comparison
    "BOTH OF",
    "EITHER OF",
    "WON OF",
    "NOT",
    "ALL OF",
    "ANY OF",
    "SMOOSH",
    "MKAY",
    "AN",
    "IT",
    # -- casting ----------------------------------------------------------
    "MAEK",
    "IS NOW A",
    "A",
    "SRS",
    # -- control flow -------------------------------------------------------
    "O RLY",
    "YA RLY",
    "NO WAI",
    "MEBBE",
    "OIC",
    "WTF",
    "OMGWTF",
    "OMG",
    "GTFO",
    "IM IN YR",
    "IM OUTTA YR",
    "UPPIN",
    "NERFIN",
    "TIL",
    "WILE",
    "YR",
    # -- functions ----------------------------------------------------------
    "HOW IZ I",
    "IF U SAY SO",
    "I IZ",
    "FOUND YR",
    # -- parallel & distributed extensions (paper Table II) -------------------
    "MAH FRENZ",
    "ME",
    "IM SRSLY MESIN WIF",
    "IM MESIN WIF",
    "DUN MESIN WIF",
    "HUGZ",
    "TXT MAH BFF",
    "AN STUFF",
    "TTYL",
    "UR",
    "MAH",
    "'Z",
    # -- additional extensions (paper Table III) -------------------------------
    "WHATEVR",
    "WHATEVAR",
    "SQUAR OF",
    "UNSQUAR OF",
    "FLIP OF",
)

#: Type-name keywords (singular and the plural forms used by
#: ``LOTZ A NUMBARS``) mapped to their canonical singular spelling.
TYPE_KEYWORDS: dict[str, str] = {
    "NUMBR": "NUMBR",
    "NUMBRS": "NUMBR",
    "NUMBAR": "NUMBAR",
    "NUMBARS": "NUMBAR",
    "YARN": "YARN",
    "YARNS": "YARN",
    "TROOF": "TROOF",
    "TROOFS": "TROOF",
    "NOOB": "NOOB",
}

#: Binary arithmetic/comparison operator phrases -> semantic op name.
BINARY_OPS: dict[str, str] = {
    "SUM OF": "add",
    "DIFF OF": "sub",
    "PRODUKT OF": "mul",
    "QUOSHUNT OF": "div",
    "MOD OF": "mod",
    "BIGGR OF": "max",
    "SMALLR OF": "min",
    "BOTH SAEM": "eq",
    "DIFFRINT": "ne",
    "BIGGER": "gt",
    "SMALLR": "lt",
    "BOTH OF": "and",
    "EITHER OF": "or",
    "WON OF": "xor",
}

#: Unary operator phrases -> semantic op name (Table III extensions + NOT).
UNARY_OPS: dict[str, str] = {
    "NOT": "not",
    "SQUAR OF": "square",
    "UNSQUAR OF": "sqrt",
    "FLIP OF": "recip",
}

#: Variadic operator phrases -> semantic op name.
VARIADIC_OPS: dict[str, str] = {
    "ALL OF": "all",
    "ANY OF": "any",
    "SMOOSH": "smoosh",
}

#: Phrases that begin a statement and therefore terminate greedy
#: expression-list parsing (used by VISIBLE argument parsing).
STATEMENT_STARTERS: frozenset[str] = frozenset(
    {
        "VISIBLE",
        "GIMMEH",
        "I HAS A",
        "WE HAS A",
        "O RLY",
        "WTF",
        "IM IN YR",
        "IM OUTTA YR",
        "HOW IZ I",
        "IF U SAY SO",
        "FOUND YR",
        "GTFO",
        "HUGZ",
        "TXT MAH BFF",
        "TTYL",
        "IM SRSLY MESIN WIF",
        "IM MESIN WIF",
        "DUN MESIN WIF",
        "KTHXBYE",
        "OIC",
        "YA RLY",
        "NO WAI",
        "MEBBE",
        "OMG",
        "OMGWTF",
        "CAN HAS",
    }
)
