"""Unit tests for the interpreter environment chain and the symmetric
heap cell types."""

import numpy as np
import pytest

from repro.interp.env import Binding, Env
from repro.lang.errors import LolNameError, LolRuntimeError
from repro.lang.types import LolType
from repro.shmem.heap import ArrayCell, NumpyScalarCell, ScalarCell, SymmetricPlan
from repro.lang.errors import LolParallelError


class TestEnv:
    def test_declare_and_lookup(self):
        env = Env()
        env.declare("x", Binding(5))
        assert env.lookup("x").value == 5

    def test_chain_lookup(self):
        parent = Env()
        parent.declare("x", Binding(1))
        child = parent.child()
        assert child.lookup("x").value == 1

    def test_shadowing(self):
        parent = Env()
        parent.declare("x", Binding(1))
        child = parent.child()
        child.declare("x", Binding(2))
        assert child.lookup("x").value == 2
        assert parent.lookup("x").value == 1

    def test_child_writes_visible_through_binding(self):
        parent = Env()
        b = Binding(1)
        parent.declare("x", b)
        child = parent.child()
        child.lookup("x").value = 9
        assert parent.lookup("x").value == 9

    def test_missing_name(self):
        with pytest.raises(LolNameError):
            Env().lookup("ghost")

    def test_redeclaration_replaces(self):
        env = Env()
        env.declare("x", Binding(1))
        env.declare("x", Binding("now a yarn"))
        assert env.lookup("x").value == "now a yarn"

    def test_is_declared(self):
        env = Env()
        assert not env.is_declared("x")
        env.declare("x", Binding())
        assert env.is_declared("x")


class TestScalarCell:
    def test_read_write(self):
        cell = ScalarCell(0)
        cell.write(42)
        assert cell.read() == 42

    def test_numpy_backed_scalar(self):
        buf = np.zeros(1, dtype="int64")
        cell = NumpyScalarCell(buf, LolType.NUMBR)
        cell.write(7)
        assert cell.read() == 7
        assert isinstance(cell.read(), int)

    def test_numpy_troof_scalar(self):
        buf = np.zeros(1, dtype="bool")
        cell = NumpyScalarCell(buf, LolType.TROOF)
        cell.write(True)
        assert cell.read() is True


class TestArrayCell:
    def test_numeric_array_typed_reads(self):
        cell = ArrayCell(LolType.NUMBR, 4)
        cell.write(0, 5)
        v = cell.read(0)
        assert v == 5 and isinstance(v, int)

    def test_numbar_array(self):
        cell = ArrayCell(LolType.NUMBAR, 2)
        cell.write(1, 2.5)
        assert isinstance(cell.read(1), float)

    def test_yarn_array_list_backed(self):
        cell = ArrayCell(LolType.YARN, 3)
        cell.write(2, "cat")
        assert cell.read(2) == "cat"
        assert cell.read(0) == ""

    def test_bounds_checking(self):
        cell = ArrayCell(LolType.NUMBR, 2)
        with pytest.raises(LolRuntimeError):
            cell.read(2)
        with pytest.raises(LolRuntimeError):
            cell.read(-1)
        with pytest.raises(LolRuntimeError):
            cell.write(5, 1)

    def test_non_integer_index_rejected(self):
        cell = ArrayCell(LolType.NUMBR, 2)
        with pytest.raises(LolRuntimeError):
            cell.read("zero")

    def test_read_all_is_copy(self):
        cell = ArrayCell(LolType.NUMBR, 2)
        cell.write(0, 9)
        snapshot = cell.read_all()
        snapshot[0] = 0
        assert cell.read(0) == 9

    def test_write_all_length_check(self):
        cell = ArrayCell(LolType.YARN, 2)
        with pytest.raises(LolRuntimeError):
            cell.write_all(["a", "b", "c"])

    def test_nbytes(self):
        assert ArrayCell(LolType.NUMBAR, 10).nbytes == 80

    def test_out_of_range_numbr_is_a_typed_error(self):
        # NUMBR arithmetic is unbounded; int64 storage is not.
        cell = ArrayCell(LolType.NUMBR, 2)
        with pytest.raises(LolRuntimeError, match="does not fit"):
            cell.write(0, 2**70)
        assert cell.read(0) == 0


class TestSymmetricPlan:
    def test_add_and_conflict(self):
        plan = SymmetricPlan()
        plan.add("x", LolType.NUMBR, False, 1, False)
        plan.add("x", LolType.NUMBR, False, 1, False)  # idempotent
        with pytest.raises(LolParallelError):
            plan.add("x", LolType.NUMBAR, False, 1, False)
