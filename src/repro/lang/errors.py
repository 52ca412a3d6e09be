"""Diagnostics for the LOLCODE toolchain.

Every error raised by the lexer, parser, static analyzer, interpreter, or
compiler carries a source location so the CLI tools (``lcc``, ``loli``,
``lolrun``) can print ``file:line:col`` style messages, mirroring the
behaviour of the paper's lex/yacc-based ``lcc`` compiler.
"""

from __future__ import annotations


class SourcePos:
    """A position in a LOLCODE source file (1-based line and column).

    The lexer builds one for every token it emits, so this is a plain
    ``__slots__`` record (a quarter of a frozen dataclass's construction
    cost, and no larger) with a dataclass's equality, hash and repr.
    It is hashed: treat it as immutable.
    """

    __slots__ = ("line", "col", "filename")

    def __init__(
        self, line: int = 0, col: int = 0, filename: str = "<string>"
    ) -> None:
        self.line = line
        self.col = col
        self.filename = filename

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourcePos):
            return NotImplemented
        return (self.line, self.col, self.filename) == (
            other.line,
            other.col,
            other.filename,
        )

    def __hash__(self) -> int:
        return hash((self.line, self.col, self.filename))

    def __repr__(self) -> str:
        return (
            f"SourcePos(line={self.line!r}, col={self.col!r}, "
            f"filename={self.filename!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.filename}:{self.line}:{self.col}"


class LolError(Exception):
    """Base class for all toolchain errors."""

    def __init__(self, message: str, pos: SourcePos | None = None) -> None:
        self.message = message
        self.pos = pos or SourcePos()
        super().__init__(self.render())

    def render(self) -> str:
        if self.pos.line:
            return f"{self.pos}: {self.message}"
        return self.message


class LolSyntaxError(LolError):
    """Lexing or parsing failure."""


class LolTypeError(LolError):
    """Static or dynamic type violation (casting, static typing extension)."""


class LolNameError(LolError):
    """Reference to an undeclared variable, function, or loop label."""


class LolRuntimeError(LolError):
    """Any other runtime failure (division by zero, bad index, ...)."""


class LolParallelError(LolError):
    """Misuse of the parallel extensions (e.g. ``UR`` outside ``TXT MAH BFF``,
    locking a variable that was not declared ``AN IM SHARIN IT``)."""


class LolStaticError(LolError):
    """Static-analysis errors rejected before execution.

    Raised by :func:`repro.launcher.spmd.run_lolcode` under
    ``check="error"`` (and by ``lcc --check``) when
    the checker reports any ``E``-code diagnostic.  ``render`` shows
    the first diagnostic; ``diagnostics`` carries the full list.
    """

    def __init__(self, message: str, pos: SourcePos | None = None,
                 diagnostics: tuple = ()) -> None:
        self.diagnostics = diagnostics
        super().__init__(message, pos)
