"""CLAMR AMR mesh: refinement, coarsening, painting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import SimulationAborted
from repro.benchmarks.clamr.mesh import AmrMesh
from repro.util.bits import flip_bit_inplace


def _mesh(base=4, max_level=2, capacity=400) -> AmrMesh:
    mesh = AmrMesh(base, max_level, capacity)
    mesh.init_dam_break()
    return mesh


def test_init_covers_domain():
    mesh = _mesh()
    n = mesh.live()
    assert n == 16
    assert np.all((mesh.x[:n] > 0) & (mesh.x[:n] < 1))
    assert np.all(mesh.lev[:n] == 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        AmrMesh(1, 1, 100)
    with pytest.raises(ValueError):
        AmrMesh(4, -1, 100)
    with pytest.raises(ValueError):
        AmrMesh(4, 1, 2)


def test_cell_size_by_level():
    mesh = _mesh(base=4)
    assert mesh.cell_size(0) == pytest.approx(0.25)
    assert mesh.cell_size(2) == pytest.approx(0.0625)
    assert mesh.finest_size == pytest.approx(0.0625)


def test_cell_size_rejects_corrupt_level():
    mesh = _mesh()
    with pytest.raises(IndexError):
        mesh.cell_size(99)
    with pytest.raises(IndexError):
        mesh.cell_size(-1)


def test_live_validates_counter():
    mesh = _mesh()
    mesh.ncells[...] = 0
    with pytest.raises(IndexError):
        mesh.live()
    mesh.ncells[...] = 10**6
    with pytest.raises(IndexError):
        mesh.live()


def test_refine_adds_three_cells_per_split():
    mesh = _mesh()
    created = mesh.refine(np.array([5]))
    assert created == 3
    assert mesh.live() == 19
    # Children share a fresh parent id and distinct slots.
    children = np.flatnonzero(mesh.parent[:19] == 0)
    assert len(children) == 4
    assert sorted(mesh.slot[children]) == [0, 1, 2, 3]
    assert np.all(mesh.lev[children] == 1)


def test_refine_conserves_state_values():
    mesh = _mesh()
    h_before = mesh.h[5]
    mesh.refine(np.array([5]))
    children = np.flatnonzero(mesh.parent[: mesh.live()] == 0)
    assert np.all(mesh.h[children] == h_before)


def test_refine_children_inside_parent():
    mesh = _mesh()
    cx, cy = mesh.x[5], mesh.y[5]
    size = float(mesh.cell_size(0))
    mesh.refine(np.array([5]))
    children = np.flatnonzero(mesh.parent[: mesh.live()] == 0)
    assert np.all(np.abs(mesh.x[children] - cx) <= size / 2)
    assert np.all(np.abs(mesh.y[children] - cy) <= size / 2)


def test_refine_at_max_level_is_noop():
    mesh = _mesh(max_level=0)
    assert mesh.refine(np.array([3])) == 0


def test_refine_past_capacity_aborts():
    mesh = _mesh(capacity=17)
    with pytest.raises(SimulationAborted):
        mesh.refine(np.arange(16))


def test_refine_rejects_corrupt_index():
    mesh = _mesh()
    with pytest.raises(IndexError):
        mesh.refine(np.array([500]))


def test_refine_empty_is_noop():
    mesh = _mesh()
    assert mesh.refine(np.array([], dtype=np.int64)) == 0
    assert mesh.live() == 16


def test_coarsen_merges_quiet_quartet():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    removed = mesh.coarsen(np.ones(n, dtype=bool))
    assert removed == 3
    assert mesh.live() == 16
    assert np.all(mesh.lev[:16] == 0)


def test_coarsen_respects_quiet_mask():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    quiet = np.ones(n, dtype=bool)
    children = np.flatnonzero(mesh.parent[:n] == 0)
    quiet[children[0]] = False  # one loud sibling blocks the merge
    assert mesh.coarsen(quiet) == 0


def test_coarsen_averages_state():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    children = np.flatnonzero(mesh.parent[:n] == 0)
    mesh.h[children] = [1.0, 2.0, 3.0, 4.0]
    mesh.coarsen(np.ones(n, dtype=bool))
    assert 2.5 in mesh.h[: mesh.live()]


def test_coarsen_mask_shape_checked():
    mesh = _mesh()
    with pytest.raises(ValueError):
        mesh.coarsen(np.ones(3, dtype=bool))


def test_refine_coarsen_roundtrip_preserves_cell_count():
    mesh = _mesh()
    mesh.refine(np.array([2, 7, 11]))
    assert mesh.live() == 16 + 9
    mesh.coarsen(np.ones(mesh.live(), dtype=bool))
    assert mesh.live() == 16


def test_sample_grid_shape_and_values():
    mesh = _mesh(base=4, max_level=1)
    grid = mesh.sample_grid()
    assert grid.shape == (8, 8)
    assert set(np.unique(grid)) <= set(np.unique(mesh.h[: mesh.live()]))


def test_sample_grid_finer_cells_paint_over():
    mesh = _mesh(base=4, max_level=1)
    mesh.refine(np.array([0]))
    children = np.flatnonzero(mesh.parent[: mesh.live()] == 0)
    mesh.h[children] = 42.0
    grid = mesh.sample_grid()
    assert (grid == 42.0).sum() == 4  # each level-1 child covers one pixel


# -- differential oracle: the per-quartet loop the masked coarsen replaced --

_MESH_ARRAYS = ("x", "y", "lev", "h", "hu", "hv", "parent", "slot", "ncells", "next_parent")


def _coarsen_per_quartet(mesh, quiet):
    """Reference ``coarsen``: walk the sorted sibling runs one by one."""
    n = mesh.live()
    quiet = np.asarray(quiet, dtype=bool)
    if quiet.shape != (n,):
        raise ValueError("quiet mask must cover live cells")
    parents = mesh.parent[:n]
    if not np.any(parents >= 0):
        return 0
    order = np.argsort(parents, kind="stable")
    keep = np.ones(n, dtype=bool)
    removed = 0
    pos = 0
    sorted_parents = parents[order]
    while pos < n:
        pid = sorted_parents[pos]
        end = pos
        while end < n and sorted_parents[end] == pid:
            end += 1
        if pid >= 0 and end - pos == 4:
            members = order[pos:end]
            levs = mesh.lev[members]
            if np.all(levs == levs[0]) and levs[0] > 0 and bool(np.all(quiet[members])):
                keep_idx = int(members[np.argmin(mesh.slot[members])])
                mesh.x[keep_idx] = float(mesh.x[members].mean())
                mesh.y[keep_idx] = float(mesh.y[members].mean())
                mesh.h[keep_idx] = float(mesh.h[members].mean())
                mesh.hu[keep_idx] = float(mesh.hu[members].mean())
                mesh.hv[keep_idx] = float(mesh.hv[members].mean())
                mesh.lev[keep_idx] = levs[0] - 1
                mesh.parent[keep_idx] = -1
                mesh.slot[keep_idx] = 0
                drop = members[members != keep_idx]
                keep[drop] = False
                removed += drop.size
        pos = end
    if removed:
        mesh._compact(keep, n)
    return removed


def _coarsen_outcome(coarsen, mesh, quiet):
    try:
        result = coarsen(mesh, quiet)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        result = (type(exc), str(exc))
    return result, {name: getattr(mesh, name).tobytes() for name in _MESH_ARRAYS}


@pytest.mark.filterwarnings("ignore:.*encountered in reduce:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 3),
    quiet_share=st.sampled_from([0.5, 0.9, 1.0]),
    flips=st.lists(st.sampled_from(["parent", "lev", "slot", "ncells"]), max_size=3),
    scramble=st.booleans(),
    specials=st.booleans(),
)
def test_coarsen_matches_per_quartet_oracle(
    seed, rounds, quiet_share, flips, scramble, specials
):
    _assert_coarsen_matches_oracle(seed, rounds, quiet_share, flips, scramble, specials)


@pytest.mark.filterwarnings("ignore:.*encountered in reduce:RuntimeWarning")
def test_coarsen_scrambled_topology_matches_oracle():
    """Fixed sweep that reliably hits level-0 and duplicate-slot quartets."""
    for seed in range(64):
        _assert_coarsen_matches_oracle(seed, 2, 1.0, [], True, seed % 2 == 0)


def _assert_coarsen_matches_oracle(seed, rounds, quiet_share, flips, scramble, specials):
    rng = np.random.default_rng(seed)
    mesh = AmrMesh(4, 3, 600)
    mesh.init_dam_break()
    for _ in range(rounds):
        n = mesh.live()
        mesh.refine(np.flatnonzero(rng.random(n) < 0.4))
    n = mesh.live()
    # Distinct values per cell make the quartet means order-sensitive.
    for name in ("x", "y", "h", "hu", "hv"):
        getattr(mesh, name)[:n] += rng.normal(scale=1e-3, size=n)
    if scramble:
        # Corrupted topology: shared parents, level-0 and negative-level
        # quartets, duplicate slots.
        mesh.parent[:n] = rng.integers(-1, max(1, n // 4), n)
        mesh.lev[:n] = rng.choice([-1, 0, 1], n, p=[0.3, 0.35, 0.35])
        mesh.slot[:n] = rng.integers(0, 3, n)
    if specials:
        # Signed zeros, NaN and infinities stress the quartet means.
        for name in ("x", "y", "h", "hu", "hv"):
            arr = getattr(mesh, name)
            hit = rng.random(n) < 0.2
            arr[:n][hit] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308], hit.sum())
    for name in flips:
        arr = getattr(mesh, name)
        index = 0 if name == "ncells" else int(rng.integers(n))
        bit = int(rng.integers(arr.itemsize * 8)) if name != "ncells" else int(rng.integers(4))
        flip_bit_inplace(arr, index, bit)
    quiet = rng.random(n) < quiet_share
    expected = _coarsen_outcome(_coarsen_per_quartet, mesh.clone(), quiet)
    assert _coarsen_outcome(AmrMesh.coarsen, mesh, quiet) == expected


def test_coarsen_signed_zero_mean_matches_oracle():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    children = np.flatnonzero(mesh.parent[:n] == 0)
    mesh.hu[children] = -0.0
    mesh.hv[children] = [-0.0, 0.0, -0.0, -0.0]
    quiet = np.ones(n, dtype=bool)
    expected = _coarsen_outcome(_coarsen_per_quartet, mesh.clone(), quiet)
    assert _coarsen_outcome(AmrMesh.coarsen, mesh, quiet) == expected
