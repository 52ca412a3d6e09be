"""Coverage features for fuzzing feedback.

The signal is deliberately cheap and engine-native — no tracing hooks:

* **Dynamic opcode coverage** — the per-opcode dispatch counters the VM
  gate already collects (the same counters ``lolprof`` reports), bucketed
  AFL-style into power-of-two hit ranges so "executed once" and
  "executed thousands of times" are distinct features.
* **Static opcode bigrams** — consecutive opcode pairs in the compiled
  bytecode.  Superinstruction fusion (``INC_JMP``, ``ADD_SC``,
  ``ORLY_*``, ``TXT_GET``) changes exactly these pairs, so a candidate
  that tickles a new fusion pattern registers as new coverage.
* **Vector plan shapes** — what each ``LOOP_VEC`` plan batches (draws,
  masks, nests, remote slices), so a candidate that gets the
  vectorizer to a new kind of plan counts as new coverage.
* **CFG edge shapes** — edges from the analysis package's control-flow
  graphs (one per function definition), abstracted to (scope,
  block-kind, successor-kind) triples so they generalize across
  programs instead of keying on per-program block ids.  A block's kind
  is its parallel content (barrier, lock, TXT) or else its terminator
  (loop head, branch).

A :class:`CoverageMap` accumulates the global feature set; candidates
contributing unseen features are "interesting" and enter the fuzzer's
mutation pool.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..analysis.cfg import CFG, Branch, Dispatch, TxtPe, build_program_cfgs
from ..analysis.summary import summarize
from ..lang import ast

Feature = tuple

_HIT_BUCKETS = (1, 2, 4, 8, 32, 128, 1024, 16384)


def _bucket(n: int) -> int:
    b = 0
    for limit in _HIT_BUCKETS:
        if n <= limit:
            return limit
        b = limit
    return b * 2


def opcode_features(counts: Optional[Iterable[int]]) -> set[Feature]:
    """Dynamic features from merged VM dispatch counters."""
    if counts is None:
        return set()
    from ..vm.isa import OPNAMES

    feats: set[Feature] = set()
    for op, n in enumerate(counts):
        if n:
            name = OPNAMES[op] if op < len(OPNAMES) else str(op)
            feats.add(("op", name))
            feats.add(("hits", name, _bucket(n)))
    return feats


def bigram_features(source: str, filename: str = "<fuzz>") -> set[Feature]:
    """Static opcode-pair and vector-plan features from the compiled
    (vectorized) bytecode."""
    from ..lang.parser import parse
    from ..vm import compile as vm_compile
    from ..vm.isa import LOOP_VEC, OPNAMES

    feats: set[Feature] = set()
    try:
        program = parse(source, filename)
        vmp = vm_compile.compile_program_vm(program)
    except Exception:  # a host crash is the gate's finding, not a feature
        return feats
    seen_cos = [vmp.co]
    # Function bodies are separate code objects in the hoisted pool.
    for fn in vmp.hoisted.values():
        if fn.co is not None:
            seen_cos.append(fn.co)
    for co in seen_cos:
        prev: Optional[str] = None
        for instr in co.code:
            name = OPNAMES[instr[0]] if instr[0] < len(OPNAMES) else str(instr[0])
            if prev is not None:
                feats.add(("pair", prev, name))
            prev = name
            if instr[0] == LOOP_VEC:
                feats.add(("vec",) + instr[1].shapes)
    return feats


def cfg_features(program: ast.Program) -> set[Feature]:
    """Structural edge features from the analysis CFGs."""
    feats: set[Feature] = set()
    try:
        cfgs = build_program_cfgs(program, summarize(program).functions)
    except Exception:
        return feats
    for func, cfg in cfgs:
        scope = "main" if func is None else "func"
        for block in cfg.blocks:
            kind = _block_kind(cfg, block.bid)
            for succ in block.succs:
                feats.add(("edge", scope, kind, _block_kind(cfg, succ)))
    return feats


def _block_kind(cfg: CFG, bid: int) -> str:
    """Classify a block by its parallel content, then by its terminator."""
    if bid == cfg.exit:
        return "exit"
    block = cfg.blocks[bid]
    kinds = {type(stmt) for stmt, _ctx in block.stmts}
    if ast.Hugz in kinds:
        return "barrier"
    if ast.LockStmt in kinds:
        return "lock"
    if TxtPe in kinds or any(ctx is not None for _s, ctx in block.stmts):
        return "txt"
    term = block.term
    if isinstance(term, Branch) and isinstance(term.owner, ast.Loop):
        return "loop"
    if isinstance(term, (Branch, Dispatch)):
        return "branch"
    return "plain" if kinds else "empty"


class CoverageMap:
    """Global feature set with "is this new?" bookkeeping."""

    def __init__(self) -> None:
        self.features: set[Feature] = set()

    def observe(self, feats: set[Feature]) -> int:
        """Merge ``feats``; return how many were previously unseen."""
        new = feats - self.features
        if new:
            self.features |= new
        return len(new)

    def __len__(self) -> int:
        return len(self.features)


def candidate_features(
    program: ast.Program,
    source: str,
    opcode_counts: Optional[Iterable[int]],
) -> set[Feature]:
    """All features one candidate contributes."""
    feats = opcode_features(opcode_counts)
    feats |= bigram_features(source)
    feats |= cfg_features(program)
    return feats
