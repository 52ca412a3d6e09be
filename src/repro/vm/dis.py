"""Disassembler for VM code objects (the ``loldis`` tool).

Renders the flat instruction tuples produced by
:mod:`repro.vm.compile` in a readable, deterministic form — register
operands as ``r3``, jump targets as ``->12``, callables by name, and
nested code objects (function bodies, symmetric-declaration
initializers) in definition order after the code object that references
them.  The output is stable across runs so it can be snapshot-tested.
"""

from __future__ import annotations

import enum

from . import isa
from .isa import CodeObject, VMFunction, VMProgram


def _fmt_val(v) -> str:
    if isinstance(v, enum.Enum):
        return v.name
    if isinstance(v, VMFunction):
        return f"<function {v.name}>"
    if isinstance(v, CodeObject):
        return f"<code {v.name}>"
    if callable(v):
        return getattr(v, "__name__", "<callable>")
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt_val(x) for x in v) + ")"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_val(x) for x in v) + "]"
    if isinstance(v, dict):
        items = ", ".join(
            f"{_fmt_val(k)}: {_fmt_val(x)}" for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    return repr(v)


def _fmt_operand(kind: str, v) -> str:
    if kind == "r":
        return f"r{v}"
    if kind == "j":
        return f"->{v}"
    if kind == "n":
        return repr(v)
    if kind == "f":
        return getattr(v, "__name__", "<callable>") if callable(v) else _fmt_val(v)
    if kind == "v":
        return f"<plan {_fmt_val(v)}>"
    return _fmt_val(v)  # "c" constants and "m" meta


def _collect_nested(co: CodeObject, seen: set, out: list) -> None:
    """Append code objects referenced by ``co``'s instructions, in order."""
    for ins in co.code:
        kinds = isa.OPFIELDS[ins[0]]
        for i, kind in enumerate(kinds, start=1):
            v = ins[i]
            stack = [v]
            while stack:
                x = stack.pop()
                if isinstance(x, VMFunction):
                    x = x.co
                if isinstance(x, CodeObject):
                    if id(x) not in seen:
                        seen.add(id(x))
                        out.append(x)
                elif isinstance(x, (tuple, list)):
                    stack.extend(x)


def disassemble_code(co: CodeObject) -> str:
    lines = [f"code {co.name}  (slots={co.n_slots}, caches={co.n_caches})"]
    for pc, ins in enumerate(co.code):
        op = ins[0]
        kinds = isa.OPFIELDS[op]
        operands = ", ".join(
            _fmt_operand(kind, ins[i]) for i, kind in enumerate(kinds, start=1)
        )
        pos = co.positions[pc]
        loc = f"  ; line {pos.line}" if pos is not None else ""
        lines.append(f"  {pc:4d}  {isa.OPNAMES[op]:<12s} {operands}{loc}".rstrip())
    return "\n".join(lines)


def disassemble(obj) -> str:
    """Disassemble a :class:`VMProgram` or a single :class:`CodeObject`."""
    if isinstance(obj, CodeObject):
        roots = [obj]
        extra = []
    elif isinstance(obj, VMProgram):
        roots = [obj.co]
        extra = [f.co for f in obj.hoisted.values()]
    else:
        raise TypeError(f"cannot disassemble {type(obj).__name__}")
    seen = {id(c) for c in roots}
    out: list[CodeObject] = []
    for co in roots:
        _collect_nested(co, seen, out)
    for co in extra:
        if id(co) not in seen:
            seen.add(id(co))
            out.append(co)
    pending = list(out)
    while pending:
        co = pending.pop(0)
        before = len(out)
        _collect_nested(co, seen, out)
        pending.extend(out[before:])
    chunks = [disassemble_code(co) for co in roots + out]
    return "\n\n".join(chunks)


def disassemble_source(
    source: str,
    filename: str = "<string>",
    *,
    count_flops: bool = False,
    count_steps: bool = False,
) -> str:
    """Parse + compile LOLCODE ``source`` and return its disassembly."""
    from ..lang.parser import parse
    from .compile import compile_program_vm

    program = parse(source, filename)
    vmp = compile_program_vm(
        program, count_flops=count_flops, count_steps=count_steps
    )
    return disassemble(vmp)
