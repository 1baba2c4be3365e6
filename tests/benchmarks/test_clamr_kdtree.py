"""CLAMR K-D tree: build/query correctness and corruption behaviour."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import BenchmarkHang
from repro.benchmarks.clamr import kdtree
from repro.benchmarks.clamr.kdtree import _MAX_DESCENT, KdTree
from repro.util.bits import flip_bit_inplace
from repro.util.rng import derive_rng


def _points(n=50, seed=3):
    rng = derive_rng(seed, "kd")
    return rng.random(n), rng.random(n)


def test_build_leaf_only_for_small_sets():
    x, y = _points(5)
    tree = KdTree.build(x, y, leaf_size=8)
    assert int(tree.n_nodes[()]) == 1
    assert tree.left[0] == -1


def test_build_empty_rejected():
    with pytest.raises(ValueError):
        KdTree.build(np.array([]), np.array([]))


def test_build_leaf_size_validated():
    x, y = _points(5)
    with pytest.raises(ValueError):
        KdTree.build(x, y, leaf_size=0)


def test_perm_is_permutation():
    x, y = _points(64)
    tree = KdTree.build(x, y, leaf_size=4)
    assert sorted(tree.perm) == list(range(64))


def test_query_on_exact_points_returns_self():
    x, y = _points(40)
    tree = KdTree.build(x, y, leaf_size=4)
    found = tree.query_nearest(x, y, x, y)
    assert np.array_equal(found, np.arange(40))


def test_query_near_points_mostly_exact():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=6)
    qx = x + 1e-6
    qy = y - 1e-6
    found = tree.query_nearest(x, y, qx, qy)
    # Points that are themselves split pivots can fall just across
    # their own plane: leaf-local search misses those, by design.
    assert (found == np.arange(60)).mean() > 0.85


def test_query_matches_brute_force_majority():
    x, y = _points(80, seed=9)
    tree = KdTree.build(x, y, leaf_size=8)
    rng = derive_rng(10, "q")
    qx, qy = rng.random(40), rng.random(40)
    found = tree.query_nearest(x, y, qx, qy)
    d2 = (qx[:, None] - x[None, :]) ** 2 + (qy[:, None] - y[None, :]) ** 2
    exact = d2.argmin(axis=1)
    # Leaf-local search is approximate: requires a strong majority of
    # exact hits (the CLAMR neighbour queries are near-interior points).
    assert (found == exact).mean() > 0.6


def test_corrupted_child_pointer_crashes():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.left[0] = 10_000
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x[:5], y[:5])


def test_corrupted_cycle_hangs():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.left[0] = 0  # root points at itself for half the queries
    tree.right[0] = 0
    with pytest.raises(BenchmarkHang):
        tree.query_nearest(x, y, x[:5], y[:5])


def test_corrupted_node_count_crashes():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.n_nodes[...] = -3
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x[:2], y[:2])


def test_corrupted_split_dim_crashes():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.split_dim[0] = 7
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x[:2], y[:2])


def test_corrupted_leaf_range_crashes():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    leaves = np.flatnonzero(tree.left[: int(tree.n_nodes[()])] == -1)
    tree.leaf_lo[leaves[0]] = 999
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x, y)


def test_corrupted_leaf_candidate_crashes():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.perm[0] = 500
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x, y)


def test_corrupted_split_value_wrong_neighbour_not_crash():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.split_val[0] = -100.0  # every query now descends right
    found = tree.query_nearest(x, y, x, y)
    assert found.shape == (60,)  # silent wrong answers (SDC path)


def test_variables_expose_backing_stores():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    variables = tree.variables()
    assert variables["tree_left"] is tree.left
    assert set(variables) >= {"tree_split_val", "tree_perm", "tree_n_nodes"}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 120), leaf=st.integers(1, 16))
def test_build_covers_all_points_in_leaves(n, leaf):
    x, y = _points(n, seed=n)
    tree = KdTree.build(x, y, leaf_size=leaf)
    nodes = int(tree.n_nodes[()])
    covered = []
    for node in range(nodes):
        if tree.left[node] == -1:
            covered.extend(tree.perm[tree.leaf_lo[node] : tree.leaf_hi[node]])
    assert sorted(covered) == list(range(n))


# -- differential oracle: the per-leaf query loop the padded scan replaced --


def _query_nearest_per_leaf(tree, x, y, qx, qy):
    """Reference ``query_nearest``: descend, then scan leaf by leaf."""
    n_nodes = int(tree.n_nodes[()])
    if not 0 < n_nodes <= tree.left.shape[0]:
        raise IndexError(f"corrupted kd-tree node count {n_nodes}")
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    m = qx.shape[0]
    cur = np.zeros(m, dtype=np.int64)
    coords = (qx, qy)
    for _sweep in range(_MAX_DESCENT):
        left = tree.left[cur]
        internal = left >= 0
        if not internal.any():
            break
        idx = np.flatnonzero(internal)
        nodes = cur[idx]
        dims = tree.split_dim[nodes]
        if np.any((dims < 0) | (dims > 1)):
            raise IndexError("corrupted kd-tree split dimension")
        pts = np.where(dims == 0, qx[idx], qy[idx])
        go_left = pts <= tree.split_val[nodes]
        nxt = np.where(go_left, tree.left[nodes], tree.right[nodes])
        if np.any((nxt < 0) | (nxt >= n_nodes)):
            raise IndexError("corrupted kd-tree child pointer")
        cur[idx] = nxt
    else:
        raise BenchmarkHang("kd-tree descent did not terminate")

    out = np.empty(m, dtype=np.int64)
    n_points = x.shape[0]
    for leaf in np.unique(cur):
        lo, hi = int(tree.leaf_lo[leaf]), int(tree.leaf_hi[leaf])
        if not (0 <= lo < hi <= tree.perm.shape[0]):
            raise IndexError(f"corrupted kd-tree leaf range [{lo}, {hi})")
        cand = tree.perm[lo:hi]
        if np.any((cand < 0) | (cand >= n_points)):
            raise IndexError("corrupted kd-tree leaf candidate")
        sel = np.flatnonzero(cur == leaf)
        with np.errstate(over="ignore", invalid="ignore"):
            dx = coords[0][sel][:, None] - x[cand][None, :]
            dy = coords[1][sel][:, None] - y[cand][None, :]
            out[sel] = cand[np.argmin(dx * dx + dy * dy, axis=1)]
    return out


def _outcome(query, *args):
    try:
        found = query(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    assert found.dtype == np.int64
    return "ok", found.tobytes()


def _assert_matches_oracle(tree, x, y, qx, qy):
    expected = _outcome(_query_nearest_per_leaf, copy.deepcopy(tree), x, y, qx, qy)
    assert _outcome(tree.query_nearest, x, y, qx, qy) == expected
    # Tiny chunks force the row-chunked path through every branch.
    with mock.patch.object(kdtree, "_SCAN_CELLS", 3):
        assert _outcome(tree.query_nearest, x, y, qx, qy) == expected


def _leaves(tree):
    return np.flatnonzero(tree.left[: int(tree.n_nodes[()])] == -1)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 120),
    leaf=st.integers(1, 16),
    m=st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.booleans(),
    nan_share=st.sampled_from([0.0, 0.05, 0.3]),
    flip=st.booleans(),
)
def test_query_matches_per_leaf_oracle(n, leaf, m, seed, duplicates, nan_share, flip):
    rng = np.random.default_rng(seed)
    if duplicates:
        pool = rng.random(3)
        x, y = rng.choice(pool, n), rng.choice(pool, n)
    else:
        x, y = rng.random(n), rng.random(n)
    tree = KdTree.build(x, y, leaf_size=leaf)
    # Queries straddle the domain edge; some sit exactly on points.
    qx, qy = rng.uniform(-0.5, 1.5, m), rng.uniform(-0.5, 1.5, m)
    on_point = rng.random(m) < 0.3
    picks = rng.integers(0, n, m)
    qx[on_point], qy[on_point] = x[picks[on_point]], y[picks[on_point]]
    for arr in (x, y, qx, qy):
        arr[rng.random(arr.shape[0]) < nan_share] = np.nan
    if flip:
        arrays = list(tree.variables().values())
        arr = arrays[rng.integers(len(arrays))]
        flip_bit_inplace(arr, int(rng.integers(arr.size)), int(rng.integers(arr.itemsize * 8)))
    _assert_matches_oracle(tree, x, y, qx, qy)


def test_corrupted_perm0_unreached_leaf_matches_oracle():
    """Padding slots read perm[0]; a corrupted one must not leak out."""
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    first = next(leaf for leaf in _leaves(tree) if tree.leaf_lo[leaf] == 0)
    owned = set(tree.perm[tree.leaf_lo[first] : tree.leaf_hi[first]].tolist())
    tree.perm[0] = 8367
    # Each point descends to the leaf that holds it.
    others = np.array([i for i in range(60) if i not in owned])
    _assert_matches_oracle(tree, x, y, x[others], y[others])
    assert np.array_equal(tree.query_nearest(x, y, x[others], y[others]), others)


@pytest.mark.parametrize(
    "bad_first, message",
    [
        ("candidate", "corrupted kd-tree leaf candidate"),
        ("range", "corrupted kd-tree leaf range [999, "),
    ],
)
def test_lowest_failing_leaf_raises_first(bad_first, message):
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    low, high = _leaves(tree)[[0, -1]]
    corrupt = {
        "candidate": lambda leaf: tree.perm.__setitem__(tree.leaf_lo[leaf], 500),
        "range": lambda leaf: tree.leaf_lo.__setitem__(leaf, 999),
    }
    bad_second = "range" if bad_first == "candidate" else "candidate"
    corrupt[bad_second](high)
    corrupt[bad_first](low)
    with pytest.raises(IndexError) as excinfo:
        tree.query_nearest(x, y, x, y)
    assert str(excinfo.value).startswith(message)
    _assert_matches_oracle(tree, x, y, x, y)


def test_whole_set_leaf_is_scanned_in_chunks():
    """A flipped leaf_hi widening one leaf to every point still matches."""
    x, y = _points(120)
    tree = KdTree.build(x, y, leaf_size=4)
    first = next(leaf for leaf in _leaves(tree) if tree.leaf_lo[leaf] == 0)
    tree.leaf_hi[first] = 120
    _assert_matches_oracle(tree, x, y, x, y)
