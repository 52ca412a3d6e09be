"""Static scope resolution: names -> integer frame slots.

The VM compiler (:mod:`repro.vm.compile`) replaces the tree-walker's
dict-chain :class:`~repro.interp.env.Env` lookups with flat, slot-indexed
frames.  This module provides the compile-time bookkeeping: which frame a
name lives in, at which slot, with what static metadata.

The scope model mirrors the tree-walker (see the divergence at the end
for the one corner where static resolution cannot reproduce its dynamic
behaviour):

* one *frame* per function activation plus one root frame for top-level
  code (slot 0 of every frame is reserved for ``IT``);
* every scoped block (``O RLY?`` arm, ``WTF?`` case, loop body — but
  *not* a ``TXT MAH BFF`` body, which the tree-walker executes in the
  enclosing environment) opens a lexical *block scope* inside the
  current frame — declarations in a block are visible from the next
  statement to the end of the block, and invisible once it closes, but
  their slots stay allocated for the frame's lifetime.  A loop body is
  one block per iteration (nested inside the block holding the counter),
  and since every name resolves statically, an iteration cannot observe
  the slots the previous one left behind;
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

Known, documented divergence from the tree-walker: a re-declaration
that *changes* a name's static type or array-ness allocates a fresh
slot, so a function compiled against the final root scope reads the
post-redeclaration storage (same-shape redeclarations reuse the slot and
behave identically to the tree-walker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .types import LolType

#: Variable storage kinds resolved at compile time.
LOCAL = "local"  # slot in the current (function or root) frame
GLOBAL = "global"  # slot in the root frame, accessed from a function
SYMMETRIC = "symmetric"  # storage in the symmetric heap, addressed by name


@dataclass(frozen=True, slots=True)
class VarInfo:
    """Everything the compiler knows about one resolved name."""

    kind: str  # LOCAL | GLOBAL | SYMMETRIC
    name: str
    slot: int = -1  # frame slot for LOCAL/GLOBAL
    static_type: Optional[LolType] = None
    is_array: bool = False

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
            return prev  # same-shape (re)declaration: reuse the slot
        info = VarInfo(LOCAL, name, self.layout.new_slot(), static_type, is_array)
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
