"""Static scope resolution: names -> integer frame slots.

The VM compiler (:mod:`repro.vm.compile`) replaces the tree-walker's
dict-chain :class:`~repro.interp.env.Env` lookups with flat, slot-indexed
frames.  This module provides the compile-time bookkeeping: which frame a
name lives in, at which slot, with what static metadata.

The scope model mirrors the tree-walker (see the divergence list below
for the corners where static resolution cannot reproduce its dynamic
behaviour):

* one *frame* per function activation plus one root frame for top-level
  code (slot 0 of every frame is reserved for ``IT``);
* every scoped block (``O RLY?`` arm, ``WTF?`` case, loop body — but
  *not* a ``TXT MAH BFF`` body, which the tree-walker executes in the
  enclosing environment) opens a lexical *block scope* inside the
  current frame — declarations in a block are invisible once the block
  closes, but their slots stay allocated for the frame's lifetime;
* re-declaring a name in the same block **reuses its slot** when the
  static metadata (type, array-ness) is unchanged — the declaration
  statement overwrites the value exactly like the tree-walker's
  fresh-binding replacement, and slot identity keeps function bodies
  (which resolve against the final root scope) pointing at storage that
  is live from the *first* declaration onward; a redeclaration that
  *changes* type or array-ness allocates a fresh slot so compiled
  coercions stay valid;
* symmetric (``WE HAS A``) names always bind into the *root* scope,
  regardless of the block depth of the declaration, because their storage
  lives in the symmetric heap and the tree-walker declares them on the
  globals environment;
* function bodies resolve against their parameters plus the **final**
  root scope (the tree-walker gives calls ``globals.child()``; a global
  that has not been declared by the time the function runs reads as the
  UNDECLARED sentinel and raises the same ``LolNameError``).

Known, documented divergences from the tree-walker:

* a re-declaration that *changes* a name's static type or array-ness
  allocates a fresh slot, so a function compiled against the final root
  scope reads the post-redeclaration storage (same-shape redeclarations
  reuse the slot and behave identically to the tree-walker);
* loop-body *scalar* declarations are pre-bound with a runtime fallback
  (see :meth:`~repro.vm.compile.VMCompiler._prescan_loop_decls`),
  reproducing the tree-walker's persistent per-loop environment —
  iteration N's reads and re-evaluated initializers see iteration N-1's
  binding.  *Array* declarations in loop bodies are not pre-bound: a
  read of the name that textually precedes the array declaration stays
  bound to the enclosing variable on every iteration;
* a loop body that redeclares its own ``UPPIN YR`` counter *terminates*
  (the condition stays bound to the counter's slot, which the increment
  keeps updating), where the tree-walker's redeclaration detaches the
  counter binding and spins forever — the divergence is kept
  deliberately, since reproducing a hang helps no one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .types import LolType

#: Variable storage kinds resolved at compile time.
LOCAL = "local"  # slot in the current (function or root) frame
GLOBAL = "global"  # slot in the root frame, accessed from a function
SYMMETRIC = "symmetric"  # storage in the symmetric heap, addressed by name
MISSING = "missing"  # pre-declaration fallback for a name with no outer binding


@dataclass(frozen=True, slots=True)
class VarInfo:
    """Everything the compiler knows about one resolved name.

    ``fallback`` marks a *pre-declared* loop-body binding: the tree-walker
    keeps one environment per loop execution, so a name declared in the
    body is bound to the enclosing (fallback) variable until the first
    iteration's declaration runs, and to the loop-local storage from then
    on.  The compiler pre-allocates the slot, and accesses compiled while
    ``fallback`` is set test the slot's UNDECLARED sentinel at runtime to
    pick the binding — exactly the tree-walker's dynamic behaviour.
    ``fallback`` may be ``None``-kind too: a pre-declared name with no
    enclosing binding simply raises before its declaration runs.
    """

    kind: str  # LOCAL | GLOBAL | SYMMETRIC
    name: str
    slot: int = -1  # frame slot for LOCAL/GLOBAL
    static_type: Optional[LolType] = None
    is_array: bool = False
    fallback: Optional["VarInfo"] = None

    def as_global(self) -> "VarInfo":
        """The view of a root-frame binding from inside a function."""
        if self.kind != LOCAL:
            return self
        return VarInfo(GLOBAL, self.name, self.slot, self.static_type, self.is_array)


@dataclass
class FrameLayout:
    """Slot allocator for one frame.  Slot 0 is reserved for ``IT``."""

    n_slots: int = 1

    def new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot


class ScopeStack:
    """The resolver state for one frame (root or one function).

    ``push``/``pop`` bracket lexical blocks.  ``declare`` allocates a slot
    in the frame and binds the name in the innermost block;
    ``declare_symmetric`` binds into the outermost (root) block.
    """

    def __init__(
        self,
        layout: FrameLayout,
        root: Optional["ScopeStack"] = None,
    ) -> None:
        self.layout = layout
        self.root = root  # set when resolving a function body
        self.blocks: list[dict[str, VarInfo]] = [{}]

    # -- lexical blocks ---------------------------------------------------

    def push(self) -> None:
        self.blocks.append({})

    def pop(self) -> None:
        self.blocks.pop()

    # -- declarations -----------------------------------------------------

    def declare(
        self,
        name: str,
        *,
        static_type: Optional[LolType] = None,
        is_array: bool = False,
    ) -> VarInfo:
        prev = self.blocks[-1].get(name)
        if (
            prev is not None
            and prev.kind == LOCAL
            and prev.static_type is static_type
            and prev.is_array == is_array
        ):
            # Same-shape (re)declaration: reuse the slot.  If it was only
            # *pre*-declared so far, later references may now take the
            # fast unconditional path — the declaration dominates them.
            if prev.fallback is not None:
                prev = VarInfo(LOCAL, name, prev.slot, static_type, is_array)
                self.blocks[-1][name] = prev
            return prev
        info = VarInfo(LOCAL, name, self.layout.new_slot(), static_type, is_array)
        self.blocks[-1][name] = info
        return info

    def predeclare(
        self,
        name: str,
        *,
        static_type: Optional[LolType] = None,
    ) -> VarInfo:
        """Pre-bind a scalar that a loop body will declare (see VarInfo)."""
        if name in self.blocks[-1]:
            return self.blocks[-1][name]
        fallback = self.lookup(name) or VarInfo(MISSING, name)
        info = VarInfo(
            LOCAL, name, self.layout.new_slot(), static_type, False, fallback
        )
        self.blocks[-1][name] = info
        return info

    def declare_symmetric(
        self, name: str, *, static_type: Optional[LolType], is_array: bool
    ) -> VarInfo:
        info = VarInfo(SYMMETRIC, name, -1, static_type, is_array)
        # Symmetric storage binds at the root, like Interpreter does with
        # ``self.globals.declare`` — even from nested blocks or functions.
        target = self.root if self.root is not None else self
        target.blocks[0][name] = info
        return info

    # -- lookups ----------------------------------------------------------

    def lookup(self, name: str) -> Optional[VarInfo]:
        for block in reversed(self.blocks):
            info = block.get(name)
            if info is not None:
                return info
        if self.root is not None:
            for block in reversed(self.root.blocks):
                info = block.get(name)
                if info is not None:
                    return info.as_global()
        return None

    def snapshot(self) -> dict[str, VarInfo]:
        """The full visible-name map at the current program point.

        Used to compile ``SRS <expr>`` computed identifiers: the *set* of
        visible bindings at an SRS site is static even though the chosen
        name is dynamic, so the runtime lookup is one dict get against
        this snapshot.
        """
        merged: dict[str, VarInfo] = {}
        if self.root is not None:
            for block in self.root.blocks:
                for name, info in block.items():
                    merged[name] = info.as_global()
        for block in self.blocks:
            merged.update(block)
        return merged
