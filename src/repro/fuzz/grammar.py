"""Grammar-based generator and mutator for random SPMD LOLCODE programs.

The generator builds :class:`repro.lang.ast.Program` values directly (no
string templating) and renders them through the formatter, so every
candidate is well-formed by construction.  Programs follow the skeleton
every registry kernel uses::

    declarations  (symmetric + local)
    local init    (compute statements, own-slot symmetric writes)
    [a loop shaped for the VM vectorizer: draws, a mask, or a nest]
    HUGZ
    1..N comm rounds   (publish -> HUGZ -> get/put/lock-merge -> HUGZ)
    final VISIBLEs     (every tracked local, so divergence is observable)

Safety rules keep candidates deadlock-free and race-free *by
construction* (the ``lollint`` gate in :mod:`repro.fuzz.diff` is a second
line of defence, not the first):

* ``HUGZ`` and lock statements are only emitted in uniform context —
  never inside ``O RLY?``/``WTF?`` arms, ``TXT`` bodies, or loops other
  than the counted constant-bound loops the generator itself builds.
* Remote puts target the writer's own ``ME`` slot of a ``MAH FRENZ``-sized
  symmetric array (disjoint by construction), or go through the shared
  lock with a commutative merge.
* Remote reads only happen in epochs separated from writes by ``HUGZ``.
* Divisors and modulus operands are non-zero constants; loop bounds are
  integer constants (at most ``max_loop_bound``, or 32-64 trips over
  arrays sized to match in a vectorizer-shaped loop), so every program
  terminates.
* Locals are segregated into int / float / yarn pools so statically
  typed symmetric stores receive the right type.

Randomness inside generated programs (``WHATEVR`` and ``WHATEVAR``) is
allowed: every engine, ``c`` included, draws the same per-PE Mersenne
Twister, so results stay deterministic and comparable.  Generated
arithmetic may go negative, even under ``MOD``: every engine truncates
toward zero (``MOD OF -7 AN 2`` is ``-1``).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from ..lang import ast
from ..lang.formatter import format_program

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class GenConfig:
    """Tunable knobs for :func:`generate_program`."""

    max_locals: int = 4
    max_sym_scalars: int = 2
    max_sym_arrays: int = 2
    max_rounds: int = 3
    max_stmts_per_block: int = 3
    max_expr_depth: int = 3
    max_loop_bound: int = 5
    array_sizes: tuple[int, ...] = (3, 4, 6, 8)
    p_float_local: float = 0.5
    p_yarn_local: float = 0.3
    p_random: float = 0.08
    p_function: float = 0.2
    p_lock_round: float = 0.35
    p_local_array: float = 0.4
    mutations_per_child: int = 3


#: Exact-in-binary float constants: sums and products stay bit-identical
#: across engines.
_FLOATS = (0.5, 0.25, 1.5, 2.0, 0.125, 3.0)

#: Chance of one loop shaped for the VM vectorizer (a draw or masked loop
#: of ``_VEC_TRIPS`` trips, at least the draw/mask plans' 32-trip floor,
#: or a 2-deep affine nest) per program.
_P_VEC_BLOCK = 0.25
_VEC_TRIPS = (32, 64)

_NUM_OPS = ("add", "sub", "mul", "max", "min")
_CMP_OPS = ("eq", "ne", "gt", "lt")
_BOOL_OPS = ("and", "or", "xor")


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@dataclass
class _Names:
    """Names the generator has declared, by role."""

    ints: list[str] = field(default_factory=list)  # int-only thread-locals
    floats: list[str] = field(default_factory=list)
    yarns: list[str] = field(default_factory=list)
    local_arrays: list[tuple[str, int]] = field(default_factory=list)
    sym_scalars: list[str] = field(default_factory=list)
    sym_pe_arrays: list[str] = field(default_factory=list)  # size MAH FRENZ
    sym_const_arrays: list[tuple[str, int]] = field(default_factory=list)
    shared: list[str] = field(default_factory=list)  # AN IM SHARIN IT arrays
    funcs: list[tuple[str, int]] = field(default_factory=list)  # (name, arity)
    loop_vars: list[str] = field(default_factory=list)


class _Gen:
    def __init__(
        self, rng: random.Random, cfg: GenConfig, vec_rng: random.Random
    ) -> None:
        self.rng = rng
        self.cfg = cfg
        self.scope = _Names()
        self._counter = 0
        # Vectorizer-shaped blocks draw from their own stream and name
        # their own variables, so the rest of a seed's program is the
        # same with or without one.
        self.vec_rng = vec_rng
        self._vec_counter = 0

    # -- helpers ----------------------------------------------------------

    def fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}{self._counter}"

    def pick(self, seq):
        return self.rng.choice(seq)

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    # -- expressions ------------------------------------------------------

    def int_lit(self, lo: int = -9, hi: int = 30) -> ast.IntLit:
        return ast.IntLit(self.rng.randint(lo, hi))

    def num_leaf(self, *, ints_only: bool = False) -> ast.Expr:
        choices: list[str] = ["int", "int", "me", "frenz"]
        if self.scope.ints:
            choices += ["local"] * 3
        if self.scope.loop_vars:
            choices += ["loopvar"] * 2
        if self.scope.local_arrays:
            choices.append("larr")
        if self.scope.sym_scalars:
            choices.append("sym")
        if not ints_only:
            if self.scope.floats:
                choices += ["flocal"] * 2
            choices.append("float")
            if self.chance(self.cfg.p_random):
                choices.append("rand")
        kind = self.pick(choices)
        if kind == "int":
            return self.int_lit()
        if kind == "float":
            return ast.FloatLit(self.pick(_FLOATS))
        if kind == "me":
            return ast.MeExpr()
        if kind == "frenz":
            return ast.FrenzExpr()
        if kind == "local":
            return ast.VarRef(self.pick(self.scope.ints))
        if kind == "flocal":
            return ast.VarRef(self.pick(self.scope.floats))
        if kind == "loopvar":
            return ast.VarRef(self.pick(self.scope.loop_vars))
        if kind == "larr":
            name, size = self.pick(self.scope.local_arrays)
            return ast.Index(ast.VarRef(name), self.safe_index(size))
        if kind == "sym":
            # Unqualified symmetric read outside TXT == own copy.
            return ast.VarRef(self.pick(self.scope.sym_scalars))
        if kind == "rand":
            return ast.RandomExpr(self.pick(["int", "float"]))
        raise AssertionError(kind)

    def safe_index(self, size: int) -> ast.Expr:
        """An index expression guaranteed in ``[0, size)``."""
        kind = self.pick(["lit", "lit", "mod", "loopmod"])
        if kind == "lit" or (kind == "loopmod" and not self.scope.loop_vars):
            return ast.IntLit(self.rng.randrange(size))
        inner: ast.Expr
        if kind == "loopmod":
            inner = ast.VarRef(self.pick(self.scope.loop_vars))
        else:
            inner = ast.BinOp("add", ast.MeExpr(), self.int_lit(0, 12))
        return ast.BinOp("mod", inner, ast.IntLit(size))

    def num_expr(self, depth: int = 0, *, ints_only: bool = False) -> ast.Expr:
        if depth >= self.cfg.max_expr_depth or self.chance(0.35):
            return self.num_leaf(ints_only=ints_only)
        kind = self.pick(["bin"] * 6 + ["divmod", "square", "cast", "call"])
        if kind == "call" and self.scope.funcs:
            name, arity = self.pick(self.scope.funcs)
            args = [self.num_expr(depth + 1, ints_only=True) for _ in range(arity)]
            return ast.FuncCall(name, args)
        if kind == "square":
            return ast.UnaryOp("square", self.num_leaf(ints_only=ints_only))
        if kind == "cast":
            return ast.Cast(self.num_expr(depth + 1), "NUMBR")
        if kind == "divmod":
            op = self.pick(["div", "mod", "mod"])
            divisor = ast.IntLit(self.rng.randint(2, 9))
            if op == "div" and not ints_only:
                return ast.BinOp(op, self.num_expr(depth + 1), divisor)
            # QUOSHUNT of two NUMBRs truncates toward zero (-7/2 is -3);
            # keep operands integral.
            return ast.BinOp(op, self.num_expr(depth + 1, ints_only=True), divisor)
        lhs = self.num_expr(depth + 1, ints_only=ints_only)
        rhs = self.num_expr(depth + 1, ints_only=ints_only)
        return ast.BinOp(self.pick(_NUM_OPS), lhs, rhs)

    def troof_expr(self, depth: int = 0) -> ast.Expr:
        if depth >= 2 or self.chance(0.6):
            return ast.BinOp(
                self.pick(_CMP_OPS), self.num_expr(depth + 1), self.num_expr(depth + 1)
            )
        if self.chance(0.3):
            return ast.UnaryOp("not", self.troof_expr(depth + 1))
        return ast.BinOp(
            self.pick(_BOOL_OPS), self.troof_expr(depth + 1), self.troof_expr(depth + 1)
        )

    # -- local (barrier-free) statements ----------------------------------

    def local_stmts(self, depth: int = 0) -> list[ast.Stmt]:
        """One logical statement; If/Switch come paired with their IT setter."""
        kinds = ["assign"] * 4 + ["visible"] * 2
        if self.scope.local_arrays:
            kinds += ["arr_write"] * 2
        if self.scope.yarns:
            kinds.append("smoosh")
        if depth < 2:
            kinds += ["if", "loop", "switch"]
        kind = self.pick(kinds)
        if kind == "assign":
            if self.scope.floats and self.chance(0.4):
                return [ast.Assign(ast.VarRef(self.pick(self.scope.floats)),
                                   self.num_expr())]
            return [ast.Assign(ast.VarRef(self.pick(self.scope.ints)),
                               self.num_expr(ints_only=True))]
        if kind == "arr_write":
            name, size = self.pick(self.scope.local_arrays)
            return [ast.Assign(ast.Index(ast.VarRef(name), self.safe_index(size)),
                               self.num_expr(ints_only=True))]
        if kind == "visible":
            return [self.visible_stmt()]
        if kind == "smoosh":
            parts: list[ast.Expr] = [self.num_expr(2)]
            parts.append(ast.StringLit([self.pick(["/", ":", "-"])]))
            parts.append(self.num_expr(2))
            return [ast.Assign(ast.VarRef(self.pick(self.scope.yarns)),
                               ast.NaryOp("smoosh", parts))]
        if kind == "if":
            return self.if_stmts(depth)
        if kind == "switch":
            return self.switch_stmts(depth)
        if kind == "loop":
            return [self.counted_loop(depth)]
        raise AssertionError(kind)

    def block(self, depth: int, n_min: int = 1, n_max: int | None = None) -> list[ast.Stmt]:
        n_max = n_max or self.cfg.max_stmts_per_block
        out: list[ast.Stmt] = []
        for _ in range(self.rng.randint(n_min, n_max)):
            out.extend(self.local_stmts(depth + 1))
        return out

    def if_stmts(self, depth: int) -> list[ast.Stmt]:
        # O RLY? tests IT, so pair the If with a bare TROOF expression.
        mebbe = []
        if self.chance(0.3):
            mebbe.append((self.troof_expr(), self.block(depth)))
        no_wai = self.block(depth) if self.chance(0.6) else []
        return [ast.ExprStmt(self.troof_expr()),
                ast.If(self.block(depth), mebbe, no_wai)]

    def switch_stmts(self, depth: int) -> list[ast.Stmt]:
        n_cases = self.rng.randint(1, 3)
        cases = []
        for v in range(n_cases):
            body = self.block(depth)
            if self.chance(0.7):
                body.append(ast.Gtfo())
            cases.append((ast.IntLit(v), body))
        default = self.block(depth) if self.chance(0.5) else []
        # WTF? compares IT; keep the scrutinee a small non-negative int so
        # cases are actually reachable.
        scrutinee = ast.BinOp("mod", ast.UnaryOp("square", self.num_leaf(ints_only=True)),
                              ast.IntLit(n_cases + 1))
        return [ast.ExprStmt(scrutinee), ast.Switch(cases, default)]

    def counted_loop(self, depth: int, body: list[ast.Stmt] | None = None,
                     bound: ast.Expr | None = None) -> ast.Loop:
        var = self.fresh("i")
        label = self.fresh("lp")
        self.scope.loop_vars.append(var)
        if body is None:
            body = self.block(depth)
        self.scope.loop_vars.remove(var)
        if bound is None:
            bound = ast.IntLit(self.rng.randint(1, self.cfg.max_loop_bound))
        return ast.Loop(label, "UPPIN", var, "TIL",
                        ast.BinOp("eq", ast.VarRef(var), bound), body)

    def visible_stmt(self) -> ast.Visible:
        args: list[ast.Expr] = []
        if self.chance(0.5):
            args.append(ast.StringLit([self.pick(["pe ", "v ", "x=", "out "])]))
        args.append(self.num_expr())
        if self.chance(0.3):
            args.append(self.num_expr())
        return ast.Visible(args)

    # -- declarations ------------------------------------------------------

    def decls(self) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        for _ in range(self.rng.randint(1, self.cfg.max_sym_scalars)):
            name = self.fresh("s")
            self.scope.sym_scalars.append(name)
            out.append(ast.VarDecl("WE", name, static_type="NUMBR", srsly=True,
                                   init=ast.IntLit(0)))
        for k in range(self.rng.randint(1, self.cfg.max_sym_arrays)):
            name = self.fresh("a")
            if k == 0:
                # Always at least one MAH FRENZ-sized array: the disjoint
                # put round needs per-PE slots.
                self.scope.sym_pe_arrays.append(name)
                size: ast.Expr = ast.FrenzExpr()
            else:
                n = self.pick(self.cfg.array_sizes)
                self.scope.sym_const_arrays.append((name, n))
                size = ast.IntLit(n)
            out.append(ast.VarDecl("WE", name, static_type="NUMBR", srsly=True,
                                   is_array=True, size=size))
        if self.chance(self.cfg.p_lock_round):
            name = self.fresh("h")
            self.scope.shared.append(name)
            out.append(ast.VarDecl("WE", name, static_type="NUMBR", srsly=True,
                                   is_array=True, size=ast.IntLit(4),
                                   shared_lock=True))
        for _ in range(self.rng.randint(2, self.cfg.max_locals)):
            name = self.fresh("v")
            self.scope.ints.append(name)
            out.append(ast.VarDecl("I", name, init=self.int_lit(0, 9)))
        if self.chance(self.cfg.p_float_local):
            name = self.fresh("f")
            self.scope.floats.append(name)
            out.append(ast.VarDecl("I", name, init=ast.FloatLit(self.pick(_FLOATS))))
        if self.chance(self.cfg.p_yarn_local):
            name = self.fresh("y")
            self.scope.yarns.append(name)
            out.append(ast.VarDecl("I", name, init=ast.StringLit([])))
        if self.chance(self.cfg.p_local_array):
            name = self.fresh("t")
            n = self.pick(self.cfg.array_sizes)
            self.scope.local_arrays.append((name, n))
            out.append(ast.VarDecl("I", name, static_type="NUMBR", srsly=True,
                                   is_array=True, size=ast.IntLit(n)))
        return out

    def func_def(self) -> ast.FuncDef:
        name = self.fresh("fn")
        arity = self.rng.randint(1, 2)
        params = [self.fresh("p") for _ in range(arity)]
        # Pure expression function over its params: no decls, no comm.
        expr: ast.Expr = ast.VarRef(params[0])
        for p in params[1:]:
            expr = ast.BinOp(self.pick(_NUM_OPS), expr, ast.VarRef(p))
        expr = ast.BinOp(self.pick(_NUM_OPS), expr, self.int_lit(1, 9))
        self.scope.funcs.append((name, arity))
        return ast.FuncDef(name, params, [ast.Return(expr)])

    # -- communication rounds ---------------------------------------------

    def target_pe(self) -> ast.Expr:
        """A PE-number expression guaranteed in ``[0, MAH FRENZ)``."""
        kind = self.pick(["zero", "next", "prev", "mod"])
        if kind == "zero":
            return ast.IntLit(0)
        if kind == "next":
            return ast.BinOp("mod",
                             ast.BinOp("add", ast.MeExpr(), ast.IntLit(1)),
                             ast.FrenzExpr())
        if kind == "prev":
            return ast.BinOp("mod",
                             ast.BinOp("add",
                                       ast.BinOp("add", ast.MeExpr(), ast.FrenzExpr()),
                                       ast.IntLit(-1)),
                             ast.FrenzExpr())
        return ast.BinOp("mod",
                         ast.BinOp("add", ast.MeExpr(), self.int_lit(0, 7)),
                         ast.FrenzExpr())

    def round_get(self) -> list[ast.Stmt]:
        """Publish own value, HUGZ, read a neighbour's copy."""
        if not self.scope.sym_scalars:
            return []
        src = self.pick(self.scope.sym_scalars)
        dst = self.pick(self.scope.ints)
        return [
            ast.Assign(ast.VarRef(src), self.num_expr(ints_only=True)),
            ast.Hugz(),
            ast.TxtStmt(self.target_pe(),
                        [ast.Assign(ast.VarRef(dst), ast.VarRef(src, "UR"))]),
            ast.Hugz(),
            ast.Visible([ast.StringLit(["got "]), ast.VarRef(dst)]),
        ]

    def round_array_get(self) -> list[ast.Stmt]:
        """Publish into const-array slots, HUGZ, gather a remote PE's slots."""
        if not self.scope.sym_const_arrays:
            return []
        name, size = self.pick(self.scope.sym_const_arrays)
        out: list[ast.Stmt] = []
        for _ in range(self.rng.randint(1, 2)):
            out.append(ast.Assign(ast.Index(ast.VarRef(name), self.safe_index(size)),
                                  self.num_expr(ints_only=True)))
        out.append(ast.Hugz())
        acc = self.pick(self.scope.ints)
        jv = self.fresh("j")
        gather = ast.Loop(
            self.fresh("lp"), "UPPIN", jv, "TIL",
            ast.BinOp("eq", ast.VarRef(jv), ast.IntLit(size)),
            [ast.Assign(ast.VarRef(acc),
                        ast.BinOp("add", ast.VarRef(acc),
                                  ast.Index(ast.VarRef(name, "UR"), ast.VarRef(jv))))],
        )
        out.append(ast.TxtStmt(self.target_pe(), [gather], block=True))
        out.append(ast.Hugz())
        out.append(ast.Visible([ast.StringLit(["sum "]), ast.VarRef(acc)]))
        return out

    def round_put(self) -> list[ast.Stmt]:
        """Disjoint puts: every PE writes its own ME slot of a remote array."""
        if not self.scope.sym_pe_arrays:
            return []
        arr = self.pick(self.scope.sym_pe_arrays)
        tmp = self.pick(self.scope.ints)
        acc = self.pick(self.scope.ints)
        kv = self.fresh("k")
        reduce_loop = ast.Loop(
            self.fresh("lp"), "UPPIN", kv, "TIL",
            ast.BinOp("eq", ast.VarRef(kv), ast.FrenzExpr()),
            [ast.Assign(ast.VarRef(acc),
                        ast.BinOp("add", ast.VarRef(acc),
                                  ast.Index(ast.VarRef(arr), ast.VarRef(kv))))],
        )
        return [
            ast.Assign(ast.VarRef(tmp), self.num_expr(ints_only=True)),
            ast.Hugz(),
            # Remote value exprs stay simple: put a precomputed local.
            ast.TxtStmt(self.target_pe(),
                        [ast.Assign(ast.Index(ast.VarRef(arr, "UR"), ast.MeExpr()),
                                    ast.VarRef(tmp))]),
            ast.Hugz(),
            ast.Assign(ast.VarRef(acc), ast.IntLit(0)),
            reduce_loop,
            ast.Visible([ast.StringLit(["slots "]), ast.VarRef(acc)]),
        ]

    def round_lock(self) -> list[ast.Stmt]:
        """Commutative merge into PE 0's shared array under the lock."""
        if not self.scope.shared:
            return []
        h = self.pick(self.scope.shared)
        contrib = self.pick(self.scope.ints)
        idx = ast.IntLit(self.rng.randrange(4))
        slot = ast.Index(ast.VarRef(h, "UR"), idx)
        return [
            ast.Assign(ast.VarRef(contrib), self.num_expr(ints_only=True)),
            ast.LockStmt("lock", ast.VarRef(h)),
            ast.TxtStmt(ast.IntLit(0),
                        [ast.Assign(slot, ast.BinOp("add", copy.deepcopy(slot),
                                                    ast.VarRef(contrib)))],
                        block=True),
            ast.LockStmt("unlock", ast.VarRef(h)),
            ast.Hugz(),
            ast.ExprStmt(ast.BinOp("eq", ast.MeExpr(), ast.IntLit(0))),
            ast.If([ast.Visible([ast.StringLit(["merged "]),
                                 ast.Index(ast.VarRef(h), copy.deepcopy(idx))])],
                   [], []),
            # Close the read epoch: without this, the *next* round's
            # locked merges into the same slot race PE 0's unlocked
            # VISIBLE above (found by the fuzzer fuzzing itself).
            ast.Hugz(),
        ]

    # -- loops shaped for the vectorizer -----------------------------------

    def vec_name(self, stem: str) -> str:
        self._vec_counter += 1
        return f"w{stem}{self._vec_counter}"

    def vec_int_expr(self, leaves: list[ast.Expr], depth: int = 0) -> ast.Expr:
        """An int expression over ``leaves`` with every int-lane op;
        divisors are non-zero literals."""
        rng = self.vec_rng
        if depth >= 2 or rng.random() < 0.3:
            if rng.random() < 0.3:
                return ast.IntLit(rng.randint(-9, 9))
            return copy.deepcopy(rng.choice(leaves))
        op = rng.choice(_NUM_OPS + ("div", "mod"))
        lhs = self.vec_int_expr(leaves, depth + 1)
        if op in ("div", "mod"):
            return ast.BinOp(op, lhs, ast.IntLit(rng.choice((-7, -3, 2, 5, 9))))
        return ast.BinOp(op, lhs, self.vec_int_expr(leaves, depth + 1))

    def vec_block(self) -> list[ast.Stmt]:
        """One draw loop, masked loop or 2-deep affine nest over fresh
        local arrays sized to match, then a line printing its results."""
        kind = self.vec_rng.choice(["draw", "mask", "nest"])
        if kind == "nest":
            return self.vec_nest()
        rng = self.vec_rng
        n = rng.randint(*_VEC_TRIPS)
        arr, acc, i = self.vec_name("a"), self.vec_name("s"), self.vec_name("i")
        x = self.vec_name("x")
        body: list[ast.Stmt] = [
            ast.VarDecl("I", x, init=ast.RandomExpr(rng.choice(["float", "int"])))
        ]
        if kind == "draw":
            value = ast.BinOp(rng.choice(["add", "mul"]), ast.VarRef(x), ast.VarRef(i))
            body += [
                ast.Assign(ast.Index(ast.VarRef(arr), ast.VarRef(i)), value),
                ast.Assign(ast.VarRef(acc),
                           ast.BinOp("add", ast.VarRef(acc), ast.VarRef(x))),
            ]
        else:
            test = ast.BinOp(rng.choice(["gt", "lt"]),
                             ast.BinOp("mod", ast.VarRef(i), ast.IntLit(rng.randint(2, 9))),
                             ast.IntLit(rng.randint(0, 4)))
            count = ast.Assign(ast.VarRef(acc),
                               ast.BinOp("add", ast.VarRef(acc), ast.IntLit(1)))
            last = ast.Assign(ast.Index(ast.VarRef(arr), ast.VarRef(i)), ast.VarRef(x))
            body += [ast.ExprStmt(test), ast.If([count], [], []), last]
        loop = ast.Loop(self.vec_name("l"), "UPPIN", i, "TIL",
                        ast.BinOp("eq", ast.VarRef(i), ast.IntLit(n)), body)
        return [
            ast.VarDecl("I", arr, static_type="NUMBAR", srsly=True, is_array=True,
                        size=ast.IntLit(n)),
            ast.VarDecl("I", acc, init=ast.IntLit(0)),
            loop,
            ast.Visible([ast.StringLit([f"{kind} "]), ast.VarRef(acc), ast.StringLit([" "]),
                         ast.Index(ast.VarRef(arr), ast.IntLit(rng.randrange(n)))]),
        ]

    def vec_nest(self) -> list[ast.Stmt]:
        rng = self.vec_rng
        rows, cols = rng.randint(2, 8), rng.randint(4, 12)
        grid, acc, tot = self.vec_name("g"), self.vec_name("c"), self.vec_name("t")
        i, j, row = self.vec_name("i"), self.vec_name("j"), self.vec_name("r")
        at = ast.BinOp("add", ast.VarRef(row), ast.VarRef(j))
        value = self.vec_int_expr([ast.VarRef(i), ast.VarRef(j), ast.VarRef(row)])
        inner = [
            ast.Assign(ast.Index(ast.VarRef(grid), at), value),
            ast.Assign(ast.VarRef(tot),
                       ast.BinOp("add", ast.VarRef(tot),
                                 ast.Index(ast.VarRef(grid), copy.deepcopy(at)))),
            ast.Assign(ast.Index(ast.VarRef(acc), ast.VarRef(i)),
                       ast.BinOp("add", ast.Index(ast.VarRef(acc), ast.VarRef(i)),
                                 ast.BinOp("mul", ast.VarRef(j), ast.FloatLit(0.5)))),
        ]
        nest = ast.Loop(
            self.vec_name("l"), "UPPIN", i, "TIL",
            ast.BinOp("eq", ast.VarRef(i), ast.IntLit(rows)),
            [
                ast.VarDecl("I", row, init=ast.BinOp("mul", ast.VarRef(i), ast.IntLit(cols))),
                ast.Loop(self.vec_name("l"), "UPPIN", j, "TIL",
                         ast.BinOp("eq", ast.VarRef(j), ast.IntLit(cols)), inner),
            ],
        )
        return [
            ast.VarDecl("I", grid, static_type="NUMBR", srsly=True, is_array=True,
                        size=ast.IntLit(rows * cols)),
            ast.VarDecl("I", acc, static_type="NUMBAR", srsly=True, is_array=True,
                        size=ast.IntLit(rows)),
            ast.VarDecl("I", tot, init=ast.IntLit(0)),
            nest,
            ast.Visible([ast.StringLit(["nest "]), ast.VarRef(tot), ast.StringLit([" "]),
                         ast.Index(ast.VarRef(acc), ast.IntLit(rows - 1)),
                         ast.StringLit([" "]),
                         ast.Index(ast.VarRef(grid), ast.IntLit(rng.randrange(rows * cols)))]),
        ]

    # -- whole programs ----------------------------------------------------

    def program(self) -> ast.Program:
        body: list[ast.Stmt] = []
        if self.chance(self.cfg.p_function):
            body.append(self.func_def())
        body.extend(self.decls())
        for _ in range(self.rng.randint(1, 3)):
            body.extend(self.local_stmts())
        if self.vec_rng.random() < _P_VEC_BLOCK:
            body.extend(self.vec_block())
        body.append(ast.Hugz())
        rounds = [self.round_get, self.round_array_get, self.round_put, self.round_lock]
        for _ in range(self.rng.randint(1, self.cfg.max_rounds)):
            body.extend(self.pick(rounds)())
            for _ in range(self.rng.randint(0, 2)):
                body.extend(self.local_stmts())
        # Final summary line: every local becomes observable output, so a
        # miscompiled intermediate can't hide.
        tail: list[ast.Expr] = [ast.StringLit(["end pe "]), ast.MeExpr()]
        for name in (*self.scope.ints, *self.scope.floats, *self.scope.yarns):
            tail.extend([ast.StringLit([" "]), ast.VarRef(name)])
        body.append(ast.Visible(tail))
        return ast.Program("1.2", body)


def generate_program(seed: int, config: GenConfig | None = None) -> ast.Program:
    """Generate a deterministic random SPMD program for ``seed``."""
    gen = _Gen(random.Random(seed), config or GenConfig(), random.Random(f"vec{seed}"))
    return gen.program()


def generate_source(seed: int, config: GenConfig | None = None) -> str:
    """Like :func:`generate_program`, rendered through the formatter."""
    return format_program(generate_program(seed, config))


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

_SAFE_DUP = (ast.Assign, ast.Visible, ast.ExprStmt)


def _expr_roots_of(stmt: ast.Stmt) -> list[ast.Expr]:
    if isinstance(stmt, ast.Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ast.ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, ast.Visible):
        return list(stmt.args)
    if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
        return [stmt.init]
    if isinstance(stmt, ast.Return):
        return [stmt.expr]
    if isinstance(stmt, ast.Loop) and stmt.cond is not None:
        return [stmt.cond]
    if isinstance(stmt, ast.TxtStmt):
        return [stmt.pe]
    return []


def _literal_sites(program: ast.Program) -> list[ast.IntLit]:
    """Int literals safe to perturb: not loop bounds, sizes, or PE targets."""
    skip: set[int] = set()
    for stmt in ast.walk_statements(program.body):
        frozen: list[ast.Expr] = []
        if isinstance(stmt, ast.Loop) and stmt.cond is not None:
            frozen.append(stmt.cond)
        if isinstance(stmt, ast.VarDecl) and stmt.size is not None:
            frozen.append(stmt.size)
        if isinstance(stmt, ast.TxtStmt):
            frozen.append(stmt.pe)
        for root in frozen:
            skip.update(id(e) for e in ast.walk_expr(root))
    sites: list[ast.IntLit] = []
    for stmt in ast.walk_statements(program.body):
        for root in _expr_roots_of(stmt):
            for node in ast.walk_expr(root):
                if isinstance(node, ast.IntLit) and id(node) not in skip:
                    sites.append(node)
    return sites


_BINOP_CLASSES = (set(_NUM_OPS), set(_CMP_OPS), set(_BOOL_OPS))


def mutate_program(program: ast.Program, rng: random.Random,
                   config: GenConfig | None = None) -> ast.Program:
    """Return a mutated deep copy of ``program``.

    Mutations preserve the barrier structure: literals are perturbed
    (never loop bounds, array sizes, or TXT targets), binary operators
    are swapped within their arity class, and simple leaf statements are
    duplicated or deleted at top level only.
    """
    cfg = config or GenConfig()
    mutant = copy.deepcopy(program)
    for _ in range(rng.randint(1, cfg.mutations_per_child)):
        kind = rng.choice(["lit", "lit", "op", "dup", "del"])
        if kind == "lit":
            sites = _literal_sites(mutant)
            if sites:
                lit = rng.choice(sites)
                lit.value = max(-9, min(64, lit.value + rng.choice([-2, -1, 1, 2, 7])))
        elif kind == "op":
            ops = [e for stmt in ast.walk_statements(mutant.body)
                   if not isinstance(stmt, (ast.Loop, ast.TxtStmt))
                   for root in _expr_roots_of(stmt)
                   for e in ast.walk_expr(root) if isinstance(e, ast.BinOp)]
            if ops:
                node = rng.choice(ops)
                for cls in _BINOP_CLASSES:
                    if node.op in cls:
                        others = sorted(cls - {node.op})
                        if others:
                            node.op = rng.choice(others)
                        break
        elif kind == "dup":
            idxs = [i for i, s in enumerate(mutant.body) if isinstance(s, _SAFE_DUP)]
            if idxs:
                i = rng.choice(idxs)
                mutant.body.insert(i, copy.deepcopy(mutant.body[i]))
        elif kind == "del":
            idxs = [i for i, s in enumerate(mutant.body)
                    if isinstance(s, (ast.Visible, ast.ExprStmt))]
            if idxs:
                del mutant.body[rng.choice(idxs)]
    return mutant


def program_size(program: ast.Program) -> int:
    """Statement + expression node count — the minimizer's cost metric."""
    n = 0
    for stmt in ast.walk_statements(program.body):
        n += 1
        for root in _expr_roots_of(stmt):
            n += sum(1 for _ in ast.walk_expr(root))
    return n
