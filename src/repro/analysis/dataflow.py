"""Generic iterative (worklist) dataflow over :mod:`repro.analysis.cfg`.

A forward analysis supplies a join-semilattice of states and monotone
transfer functions; :func:`run_forward` iterates blocks in reverse
postorder until the in-states stabilise.  ``refine_edge`` lets an
analysis sharpen the out-state per successor edge (used by the lock
analysis to model ``IM MESIN WIF`` try-lock results flowing into
``O RLY?``).  ``requeued`` lets an analysis whose transfer functions
grow during the solve (PE taint, once a branch is found divergent)
name the blocks to transfer again, so one solve reaches the fixpoint.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from typing import Generic, TypeVar

from .cfg import CFG, BasicBlock, CfgStmt, Term

S = TypeVar("S")


class ForwardAnalysis(Generic[S]):
    """Interface for a forward dataflow problem (states must be
    immutable values comparable with ``==``)."""

    def boundary(self) -> S:
        """State at the CFG entry."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer_stmt(self, state: S, entry: CfgStmt, block: BasicBlock) -> S:
        raise NotImplementedError

    def transfer_term(self, state: S, term: Term, block: BasicBlock) -> S:
        """Account for the terminator's expression evaluation."""
        return state

    def refine_edge(
        self, state: S, block: BasicBlock, succ_index: int, succ: int
    ) -> S:
        """Sharpen the out-state along one successor edge."""
        return state

    def requeued(self) -> Sequence[int]:
        """Blocks to transfer again although their in-states did not
        change, asked for after every block's transfer.  An analysis
        whose transfer functions grew while solving that block names
        the blocks they changed for, once; unreached ones are skipped."""
        return ()


def transfer_block(
    analysis: ForwardAnalysis[S], state: S, block: BasicBlock
) -> S:
    for entry in block.stmts:
        state = analysis.transfer_stmt(state, entry, block)
    return analysis.transfer_term(state, block.term, block)


def run_forward(cfg: CFG, analysis: ForwardAnalysis[S]) -> dict[int, S]:
    """Solve to fixpoint; returns the in-state of every reachable block."""
    order = cfg.rpo()
    position = cfg.rpo_index()
    in_states: dict[int, S] = {cfg.entry: analysis.boundary()}
    # Deterministic worklist: always pick the earliest block in RPO (a
    # heap of RPO positions; RPO is sorted, so it starts as a heap).
    worklist = list(range(len(order)))
    pending = set(order)
    while worklist:
        bid = order[heapq.heappop(worklist)]
        pending.discard(bid)
        if bid not in in_states:
            continue  # not yet reached
        block = cfg.blocks[bid]
        out = transfer_block(analysis, in_states[bid], block)
        for again in analysis.requeued():
            if again in in_states and again not in pending:
                heapq.heappush(worklist, position[again])
                pending.add(again)
        for i, succ in enumerate(cfg.succs[bid]):
            edge_state = analysis.refine_edge(out, block, i, succ)
            if succ not in in_states:
                in_states[succ] = edge_state
                changed = True
            else:
                joined = analysis.join(in_states[succ], edge_state)
                changed = joined != in_states[succ]
                in_states[succ] = joined
            if changed and succ not in pending:
                heapq.heappush(worklist, position[succ])
                pending.add(succ)
    return in_states


def exit_state(
    cfg: CFG, analysis: ForwardAnalysis[S], in_states: dict[int, S]
) -> S:
    """The state at the CFG exit (boundary if the exit is unreachable)."""
    if cfg.exit in in_states:
        return transfer_block(
            analysis, in_states[cfg.exit], cfg.blocks[cfg.exit]
        )
    return analysis.boundary()
