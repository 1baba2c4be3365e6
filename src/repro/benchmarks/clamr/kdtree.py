"""Array-based 2-D K-D tree — CLAMR's "Tree" portion.

CLAMR builds a K-D tree over cell centres and queries it to find the
face neighbours of every cell.  The tree here is stored in flat arrays
(split dimension/value per internal node, cell-index ranges per leaf)
so the injector can corrupt the actual structure: a flipped split value
sends queries to the wrong leaf (wrong neighbour → SDC), a corrupted
child pointer indexes out of bounds (DUE crash) or forms a cycle that
trips the traversal budget (DUE hang).

Build is iterative over node segments (O(n log n) with ~n/leaf_size
Python iterations); queries are batched — all query points descend the
tree simultaneously in vectorised sweeps, then every reached leaf is
scanned at once as one row of a padded (leaves x width) candidate
table.  The scan runs in row chunks so a corrupted leaf range that
spans the whole point set cannot blow up the distance matrix, and it
raises exactly the error a leaf-by-leaf scan in ascending leaf id
would (run records carry the message).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchmarks.base import BenchmarkHang

__all__ = ["KdTree"]

_MAX_DESCENT = 64
# Distance-matrix cells per leaf-scan chunk (bounds memory when a
# corrupted leaf range spans the whole point set).
_SCAN_CELLS = 1 << 12


@dataclass
class KdTree:
    """Flat-array K-D tree over 2-D points.

    ``left``/``right`` are child node ids (-1 for leaves); leaves own
    ``perm[leaf_lo:leaf_hi]``, indices into the point set the tree was
    built over.
    """

    split_dim: np.ndarray  # (nodes,) int8
    split_val: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int32
    right: np.ndarray  # (nodes,) int32
    leaf_lo: np.ndarray  # (nodes,) int32
    leaf_hi: np.ndarray  # (nodes,) int32
    perm: np.ndarray  # (n,) int32
    n_nodes: np.ndarray  # 0-d int64 (corruptible node count)

    @classmethod
    def build(cls, x: np.ndarray, y: np.ndarray, leaf_size: int = 8) -> "KdTree":
        """Median-split build over points ``(x[i], y[i])``."""
        if leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot build a tree over zero points")
        coords = (np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        max_nodes = max(1, 4 * (n // leaf_size + 2))
        tree = cls(
            split_dim=np.zeros(max_nodes, dtype=np.int8),
            split_val=np.zeros(max_nodes, dtype=np.float64),
            left=np.full(max_nodes, -1, dtype=np.int32),
            right=np.full(max_nodes, -1, dtype=np.int32),
            leaf_lo=np.zeros(max_nodes, dtype=np.int32),
            leaf_hi=np.zeros(max_nodes, dtype=np.int32),
            perm=np.arange(n, dtype=np.int32),
            n_nodes=np.array(0, dtype=np.int64),
        )
        # Iterative build: each stack entry is (node_id, lo, hi, depth)
        # over a contiguous segment of tree.perm.
        next_node = 1
        stack = [(0, 0, n, 0)]
        while stack:
            node, lo, hi, depth = stack.pop()
            if hi - lo <= leaf_size or depth >= 32:
                tree.left[node] = -1
                tree.right[node] = -1
                tree.leaf_lo[node] = lo
                tree.leaf_hi[node] = hi
                continue
            seg = tree.perm[lo:hi]
            dim = depth % 2
            vals = coords[dim][seg]
            order = np.argsort(vals, kind="stable")
            tree.perm[lo:hi] = seg[order]
            sorted_vals = vals[order]
            split = float(sorted_vals[(hi - lo) // 2])
            # Every point with coordinate <= split goes left, so a query
            # descending on `pt <= split` always reaches the leaf that
            # holds its own point, duplicates included.
            n_left = int(np.searchsorted(sorted_vals, split, side="right"))
            if n_left >= hi - lo:
                # Degenerate split (pivot is the maximum): leaf it.
                tree.left[node] = -1
                tree.right[node] = -1
                tree.leaf_lo[node] = lo
                tree.leaf_hi[node] = hi
                continue
            if next_node + 2 > max_nodes:  # pragma: no cover - sizing guard
                raise RuntimeError("kd-tree node budget exceeded")
            tree.split_dim[node] = dim
            tree.split_val[node] = split
            tree.left[node] = next_node
            tree.right[node] = next_node + 1
            stack.append((next_node, lo, lo + n_left, depth + 1))
            stack.append((next_node + 1, lo + n_left, hi, depth + 1))
            next_node += 2
        tree.n_nodes[...] = next_node
        return tree

    def query_nearest(
        self, x: np.ndarray, y: np.ndarray, qx: np.ndarray, qy: np.ndarray
    ) -> np.ndarray:
        """Index of the point nearest each query (approximate: leaf-local).

        Descends every query to its containing leaf simultaneously,
        then scans each leaf's candidates.  CLAMR's neighbour queries
        target the interior of the neighbouring cell, so the containing
        leaf almost always holds the true nearest centre; the rare
        boundary miss adds a little numerical diffusion but keeps the
        scheme deterministic and stable.

        The leaf scan is one padded pass over all reached leaves, done
        in row chunks of at most ``_SCAN_CELLS`` distances.  Errors
        follow a leaf-by-leaf scan: the lowest-id reached leaf with a
        bad range or an out-of-bounds candidate raises, and a leaf's
        range is checked before its candidates.  Leaves no query
        reaches are never checked.
        """
        n_nodes = int(self.n_nodes[()])
        if not 0 < n_nodes <= self.left.shape[0]:
            raise IndexError(f"corrupted kd-tree node count {n_nodes}")
        qx = np.asarray(qx, dtype=float)
        qy = np.asarray(qy, dtype=float)
        m = qx.shape[0]
        cur = np.zeros(m, dtype=np.int64)
        for _sweep in range(_MAX_DESCENT):
            left = self.left[cur]
            internal = left >= 0
            if not internal.any():
                break
            idx = np.flatnonzero(internal)
            nodes = cur[idx]
            dims = self.split_dim[nodes]
            if np.any((dims < 0) | (dims > 1)):
                raise IndexError("corrupted kd-tree split dimension")
            pts = np.where(dims == 0, qx[idx], qy[idx])
            go_left = pts <= self.split_val[nodes]
            nxt = np.where(go_left, self.left[nodes], self.right[nodes])
            if np.any((nxt < 0) | (nxt >= n_nodes)):
                raise IndexError("corrupted kd-tree child pointer")
            cur[idx] = nxt
        else:
            raise BenchmarkHang("kd-tree descent did not terminate")

        # Leaf scan: every reached leaf is one row of a (leaves x width)
        # candidate table.  Padding columns get distance +inf, so argmin's
        # first-minimum rule (NaN included) picks the leaf's own column.
        if m == 0:
            return cur
        n_points = x.shape[0]
        leaves, row_leaf = np.unique(cur, return_inverse=True)
        lo = self.leaf_lo[leaves].astype(np.int64)
        hi = self.leaf_hi[leaves].astype(np.int64)
        bad_range = ~((lo >= 0) & (lo < hi) & (hi <= self.perm.shape[0]))
        width = np.where(bad_range, 0, hi - lo)
        cols = np.arange(max(1, int(width.max())))
        # Padding (and every slot of a bad-range leaf) reads perm[0],
        # then is zeroed: a corrupted perm[0] must neither fail a leaf
        # that does not own it nor index the coordinates below.
        pad = cols >= width[:, None]
        slots = lo[:, None] + cols
        slots[pad] = 0
        cand = self.perm[slots]
        cand[pad] = 0
        bad_cand = np.any((cand < 0) | (cand >= n_points), axis=1)
        failed = np.flatnonzero(bad_range | bad_cand)
        if failed.size:
            k = failed[0]  # np.unique sorted the leaves: lowest id first
            if bad_range[k]:
                raise IndexError(f"corrupted kd-tree leaf range [{lo[k]}, {hi[k]})")
            raise IndexError("corrupted kd-tree leaf candidate")
        out = np.empty(m, dtype=np.int64)
        step = max(1, _SCAN_CELLS // cols.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, m, step):
                chunk = slice(start, start + step)
                rows = row_leaf[chunk]
                near = cand[rows]
                dx = qx[chunk, None] - x[near]
                dy = qy[chunk, None] - y[near]
                d2 = dx * dx + dy * dy
                d2[pad[rows]] = np.inf
                out[chunk] = near[np.arange(near.shape[0]), np.argmin(d2, axis=1)]
        return out

    def variables(self) -> dict[str, np.ndarray]:
        """Backing stores exposed to the injector (the Tree frame)."""
        return {
            "tree_split_dim": self.split_dim,
            "tree_split_val": self.split_val,
            "tree_left": self.left,
            "tree_right": self.right,
            "tree_leaf_lo": self.leaf_lo,
            "tree_leaf_hi": self.leaf_hi,
            "tree_perm": self.perm,
            "tree_n_nodes": self.n_nodes,
        }
