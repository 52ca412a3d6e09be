"""Lexical environments for the interpreter.

LOLCODE requires declaration (``I HAS A``) before use; assignment to an
undeclared name is an error.  Scoping is a simple chain:

* one global scope per PE;
* one scope per function call (parameters live there; the enclosing global
  scope remains readable/writable when not shadowed);
* one scope per loop holding the ``UPPIN YR i`` counter (loop-local, per
  the 1.2 spec — the paper's n-body reuses ``i``/``j``/``k`` freely this
  way), and one fresh child scope per iteration for the body's
  declarations, so an iteration never sees the previous one's bindings;
* one scope per ``O RLY?`` arm or ``WTF?`` case body.  ``TXT MAH BFF``
  bodies run in the enclosing scope.

A binding is a :class:`Binding` carrying the value plus the static-type
metadata introduced by the paper's ``ITZ SRSLY A <type>`` extension, and a
marker for symmetric (``WE HAS A``) variables whose storage actually lives
in the symmetric heap rather than in the environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.errors import LolNameError, SourcePos
from ..lang.types import LolType


class _Undeclared:
    """Sentinel filling VM frame slots before their ``I HAS A``
    executes (a lexically resolved slot is not yet *declared* until its
    declaration statement actually runs — reads raise ``LolNameError``
    exactly like the tree-walker's missing-binding path)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undeclared>"


#: The shared sentinel instance; compare with ``is``.
UNDECLARED = _Undeclared()


def new_frame(n_slots: int) -> list:
    """A VM frame: slot 0 is ``IT`` (NOOB), the rest undeclared."""
    frame = [UNDECLARED] * n_slots
    frame[0] = None
    return frame


@dataclass(slots=True)
class Binding:
    value: object = None
    static_type: Optional[LolType] = None  # None => dynamically typed
    is_array: bool = False
    symmetric: bool = False  # storage lives in the symmetric heap


class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Env"] = None) -> None:
        self.vars: dict[str, Binding] = {}
        self.parent = parent

    def declare(self, name: str, binding: Binding, pos: SourcePos | None = None) -> None:
        # Redeclaration in the same scope replaces the binding (matches the
        # reference lci interpreter, which treats it as a fresh variable).
        self.vars[name] = binding

    def find(self, name: str) -> Optional[Binding]:
        env: Optional[Env] = self
        while env is not None:
            b = env.vars.get(name)
            if b is not None:
                return b
            env = env.parent
        return None

    def lookup(self, name: str, pos: SourcePos | None = None) -> Binding:
        b = self.find(name)
        if b is None:
            raise LolNameError(
                f"variable '{name}' has not been declared (I HAS A {name})", pos
            )
        return b

    def is_declared(self, name: str) -> bool:
        return self.find(name) is not None

    def child(self) -> "Env":
        return Env(self)
