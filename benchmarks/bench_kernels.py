"""Substrate performance: golden runtimes of the six benchmarks.

Campaign throughput is benchmark-runtime bound (one injection = one
full re-execution), so these are the numbers that size every figure's
wall-clock cost.
"""

import pytest

from repro.benchmarks.registry import create, names
from repro.util.rng import derive_rng


@pytest.mark.parametrize("name", names())
def test_golden_run(benchmark, name):
    bench = create(name)
    counter = iter(range(10**9))
    result = benchmark(lambda: bench.golden(derive_rng(next(counter), "kernel")))
    assert result.size > 0


def test_clamr_kdtree_build(benchmark):
    from repro.benchmarks.clamr.kdtree import KdTree

    rng = derive_rng(5, "kd-bench")
    x, y = rng.random(480), rng.random(480)
    tree = benchmark(lambda: KdTree.build(x, y, leaf_size=8))
    assert int(tree.n_nodes[()]) > 1


def test_clamr_neighbour_queries(benchmark):
    from repro.benchmarks.clamr.kdtree import KdTree

    rng = derive_rng(6, "kd-bench")
    x, y = rng.random(480), rng.random(480)
    tree = KdTree.build(x, y, leaf_size=8)
    qx, qy = rng.random(480), rng.random(480)
    found = benchmark(lambda: tree.query_nearest(x, y, qx, qy))
    assert found.shape == (480,)


def test_clamr_neighbour_phase_real_mesh(benchmark):
    """Neighbour phase on the adapted mesh CLAMR's last timestep queries.

    Steps a golden run up to phase 3 (neighbour queries) of its final
    timestep, so the tree, leaf widths and query pattern are the real
    ones rather than uniform random points.
    """
    from repro.benchmarks.clamr.driver import Clamr
    from repro.benchmarks.clamr.shallow import find_face_neighbors

    bench = Clamr()
    state = bench.make_state(derive_rng(2017, "golden-regression", "clamr"))
    phase3 = bench.num_steps(state) - 3
    for index in range(phase3):
        bench.step(state, index)
    nbrs = benchmark(lambda: find_face_neighbors(state.mesh, state.tree))
    assert nbrs.shape == (4, state.mesh.live())
