"""Register-bytecode VM engine — the default, and the fast interpreter.

LOLCODE AST is compiled once into flat register-machine bytecode
(:mod:`repro.vm.compile` over the ISA in :mod:`repro.vm.isa`) and
executed by a dispatch loop with superinstructions and inline caches
(:mod:`repro.vm.machine`).  ``loldis`` (:mod:`repro.vm.dis`)
disassembles the bytecode for inspection and snapshot tests.

``run_lolcode`` and every CLI run it unless another engine is named
(``engine="ast"`` for the reference tree-walker, ``"c"`` for native).
"""

from .compile import compile_program_vm
from .dis import disassemble, disassemble_source
from .isa import CodeObject, VMFunction, VMProgram
from .machine import Machine

__all__ = [
    "CodeObject",
    "Machine",
    "VMFunction",
    "VMProgram",
    "compile_program_vm",
    "disassemble",
    "disassemble_source",
]
