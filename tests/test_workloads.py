"""Workload registry: lookup, parameter validation, and the smoke sweep
asserting every registered workload runs on 1 and 4 PEs with
bit-identical output across the vm and ast engines."""

import pytest

from repro import run_lolcode
from repro.workloads import (
    Param,
    Workload,
    WorkloadError,
    all_workloads,
    get_workload,
    nbody_source,
    register,
    workload_names,
)
from repro.workloads.irregular import (
    bfs_reference,
    sample_sort_reference,
    spmv_reference,
)
from repro.workloads.stencil import (
    heat1d_reference,
    heat2d_reference,
    heat3d_reference,
)

pytestmark = pytest.mark.workload

EXPECTED_NAMES = {
    "ring",
    "transpose",
    "heat1d",
    "heat2d",
    "heat3d",
    "nbody",
    "nbody_racy",
    "tree_reduce",
    "scan",
    "histogram",
    "pi_montecarlo",
    "bfs",
    "sample_sort",
    "spmv",
}


# ---------------------------------------------------------------------------
# Registry lookup
# ---------------------------------------------------------------------------


def test_registry_has_expected_workloads():
    names = set(workload_names())
    assert EXPECTED_NAMES <= names
    assert len(names) >= 8


def test_get_workload_roundtrip():
    for w in all_workloads():
        assert get_workload(w.name) is w


def test_get_unknown_workload_lists_registry():
    with pytest.raises(WorkloadError, match="unknown workload 'nope'") as exc:
        get_workload("nope")
    assert "heat2d" in str(exc.value)


def test_duplicate_register_rejected():
    w = get_workload("ring")
    with pytest.raises(WorkloadError, match="duplicate"):
        register(w)


def test_every_workload_is_documented():
    for w in all_workloads():
        assert w.domain and w.comm_pattern and w.description


# ---------------------------------------------------------------------------
# Parameter binding and validation
# ---------------------------------------------------------------------------


def test_bind_params_defaults_and_overrides():
    heat = get_workload("heat2d")
    params = heat.bind_params({"steps": 3})
    assert params["steps"] == 3
    assert params["rows"] == heat.param("rows").default


def test_bind_params_smoke_sizes():
    heat = get_workload("heat1d")
    assert heat.bind_params(smoke=True)["cells"] == heat.smoke["cells"]
    # explicit overrides beat smoke sizes
    assert heat.bind_params({"cells": 3}, smoke=True)["cells"] == 3


def test_unknown_param_rejected():
    with pytest.raises(WorkloadError, match="no parameter 'bogus'"):
        get_workload("ring").bind_params({"bogus": 1})


def test_param_bounds_enforced():
    with pytest.raises(WorkloadError, match="must be >= 2"):
        get_workload("nbody").bind_params({"particles": 1})
    with pytest.raises(WorkloadError, match="must be an int"):
        get_workload("ring").bind_params({"scale": "big"})
    with pytest.raises(WorkloadError, match="must be an int"):
        get_workload("ring").bind_params({"scale": True})


def test_param_maximum():
    p = Param("x", 1, 1, 4)
    assert p.validate(4) == 4
    with pytest.raises(WorkloadError, match="<= 4"):
        p.validate(5)


def test_source_is_parameterized():
    ring = get_workload("ring")
    assert "PRODUKT OF pe AN 7" in ring.source({"scale": 7})


def test_packaged_nbody_listings_match_examples():
    # The package ships its own copies (so an installed lolbench works
    # without a repo checkout); they must never drift from the
    # documentation copies under examples/lol.
    import pathlib

    import repro.workloads.nbody as nbody_mod

    packaged = pathlib.Path(nbody_mod.__file__).parent / "lol"
    examples = pathlib.Path(__file__).parent.parent / "examples" / "lol"
    for name in ("nbody2d.lol", "nbody2d_fixed.lol"):
        assert (packaged / name).read_text() == (examples / name).read_text()


def test_nbody_source_scales_particles():
    src = nbody_source(12, 3)
    assert "THAR IZ 12" in src
    assert "time AN 3" in src
    racy = nbody_source(12, 3, racy=True)
    assert racy != src  # the racy listing is missing the init barrier


# ---------------------------------------------------------------------------
# Reference simulations (checker internals)
# ---------------------------------------------------------------------------


def test_heat1d_reference_conserves_at_zero_steps():
    # One hot cell, no evolution.
    assert heat1d_reference(4, 8, 0)[0] == pytest.approx(100.0)
    assert sum(heat1d_reference(4, 8, 0)) == pytest.approx(100.0)


def test_heat2d_reference_source_dominates():
    totals = heat2d_reference(2, 2, 4, 5)
    assert totals[0] > totals[1] >= 0.0


def test_heat3d_reference_source_dominates():
    totals = heat3d_reference(2, 2, 3, 3, 4)
    assert totals[0] > totals[1] >= 0.0
    # zero steps: all heat sits in the single hot cell on PE 0
    assert heat3d_reference(2, 2, 3, 3, 0) == [100.0, 0.0]


def test_bfs_reference_reaches_root_first():
    out = bfs_reference(2, 4, 3, 6)
    # vertex 0 (PE 0, slot 0) is the root at dist 1, so PE 0's checksum
    # includes the (u+1)*dist = 1*1 term and its count is >= 1
    assert out[0][0] >= 1
    total = sum(cnt for cnt, _ in out)
    assert 1 <= total <= 8
    # more rounds can only reach more vertices
    assert sum(c for c, _ in bfs_reference(2, 4, 3, 1)) <= total


def test_sample_sort_reference_conserves_keys():
    n_pes, keys, span = 4, 8, 64
    out = sample_sort_reference(n_pes, keys, span)
    assert sum(cnt for cnt, _ in out) == n_pes * keys


def test_spmv_reference_is_positive():
    for chk in spmv_reference(4, 3, 2):
        assert chk > 0.0


class _FakeResult:
    def __init__(self, outputs):
        self.outputs = outputs


@pytest.mark.parametrize("name", ["bfs", "sample_sort", "spmv", "heat3d"])
def test_new_workload_checkers_catch_corruption(name):
    # The checkers must accept the reference answer and reject a
    # corrupted one — otherwise the differential rows prove nothing.
    w = get_workload(name)
    params = w.bind_params(smoke=True)
    n_pes = 2
    if name == "bfs":
        rows = bfs_reference(n_pes, params["verts"], params["maxdeg"], params["rounds"])
        good = [f"PE {pe} REACHED {c} CHK {k}\n" for pe, (c, k) in enumerate(rows)]
    elif name == "sample_sort":
        rows = sample_sort_reference(n_pes, params["keys"], params["span"])
        good = [f"PE {pe} CNT {c} CHK {k}\n" for pe, (c, k) in enumerate(rows)]
    elif name == "spmv":
        vals = spmv_reference(n_pes, params["rows"], params["nnzrow"])
        good = [f"PE {pe} CHK {v}\n" for pe, v in enumerate(vals)]
    else:
        vals = heat3d_reference(
            n_pes, params["nz"], params["nx"], params["ny"], params["steps"]
        )
        good = [f"PE {pe} CUBE HEAT: {v}\n" for pe, v in enumerate(vals)]
    assert w.check(_FakeResult(good), n_pes, params) == []
    bad = list(good)
    bad[1] = bad[1].replace(" ", "  ", 1) if name in ("spmv", "heat3d") else (
        bad[1][:-2] + "9\n" if not bad[1].rstrip().endswith("9") else bad[1][:-2] + "8\n"
    )
    problems = w.check(_FakeResult(bad), n_pes, params)
    assert problems and "PE 1" in problems[0]


# ---------------------------------------------------------------------------
# The smoke sweep: every workload, 1 and 4 PEs, both engines,
# bit-identical output (the tentpole acceptance criterion).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
@pytest.mark.parametrize("n_pes", [1, 4])
def test_workload_smoke_cross_engine(name, n_pes):
    w = get_workload(name)
    params = w.bind_params(smoke=True)
    src = w.source(params)
    outputs = {}
    for engine in ("vm", "ast"):
        result = run_lolcode(src, n_pes, seed=42, engine=engine)
        assert w.check(result, n_pes, params) == [], (name, n_pes, engine)
        outputs[engine] = result.output
    if w.deterministic:
        assert outputs["vm"] == outputs["ast"], (name, n_pes)
