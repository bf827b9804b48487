"""The Barnes-Hut quadtree [Barnes & Hut 1986].

Repulsion between all node pairs is O(n^2); the paper adopts the
"scalable Barnes-hut algorithm — O(n log n)" instead.  Bodies are
inserted into a quadtree whose internal cells track total mass and
center of mass; the force on a body is then computed by walking the
tree and approximating any cell that looks small enough from the body
(``size / distance < theta``) by a single point mass.

Two implementations live here:

* :class:`ArrayQuadTree` — the production kernel.  The tree is a flat
  structure of parallel NumPy arrays (``cx/cy/half/mass/com_x/com_y/
  children``) built level-by-level with vectorized group-bys, and
  forces are evaluated with a frontier traversal over blocks of about
  :data:`BLOCK_BODIES` bodies (each round expands every (body, cell)
  pair of the block whose cell fails the opening criterion into its
  children), so the traversal's memory does not grow with n.
* :class:`QuadTree` — the legacy pointer-based scalar walk, kept as
  the differential-testing oracle (``BarnesHutLayout(kernel="scalar")``)
  and for per-body interaction counting.

Both build geometrically identical trees: same root square, same
``x >= cx`` quadrant rule, same ``MAX_DEPTH`` cutoff — so their force
fields agree to floating-point roundoff for any ``theta``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import LayoutError

__all__ = ["QuadTree", "ArrayQuadTree", "MAX_DEPTH", "BLOCK_BODIES"]

#: Stop subdividing past this depth; co-located bodies share a leaf.
MAX_DEPTH = 32

#: Bodies per block of :meth:`ArrayQuadTree.forces`: the traversal's
#: transient memory scales with this, not with the body count.  The
#: bodies split into equal blocks of at least this many (fewer than
#: twice as many), because every block pays each traversal round's
#: fixed NumPy overhead, however few bodies it holds.
BLOCK_BODIES = 256

#: Squared distance under which two bodies count as co-located and get
#: the deterministic separation kick instead of a diverging force.
_EPS2 = 1e-12

#: The deterministic kick: direction (x, y) and squared distance.
_KICK = (0.31, 0.17, 0.125)


def _block_size(n: int) -> int:
    """Bodies per block when :meth:`ArrayQuadTree.forces` walks *n*."""
    blocks = max(1, n // BLOCK_BODIES)
    return -(-n // blocks)  # ceil: the last block is not the small one


class ArrayQuadTree:
    """Structure-of-arrays quadtree with batched force evaluation.

    ``positions`` is an ``(n, 2)`` float array (any nested sequence is
    accepted and converted); ``masses`` defaults to all ones.  The tree
    is immutable after construction; reuse across relaxation steps is
    the layout's job (it rebuilds when positions drift too far).
    """

    __slots__ = (
        "n_bodies",
        "n_cells",
        "cx",
        "cy",
        "half",
        "mass",
        "com_x",
        "com_y",
        "depth",
        "children",
        "is_leaf",
        "leaf_start",
        "leaf_count",
        "leaf_bodies",
        "_size2",
        "_child_start",
        "_child_count",
        "_child_list",
    )

    def __init__(
        self,
        positions: "np.ndarray | Sequence[tuple[float, float]]",
        masses: "np.ndarray | Sequence[float] | None" = None,
    ) -> None:
        pos = np.asarray(positions, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 2)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise LayoutError(
                f"positions must be (n, 2), got shape {pos.shape}"
            )
        n = len(pos)
        if masses is None:
            m = np.ones(n, dtype=float)
        else:
            m = np.asarray(masses, dtype=float)
            if m.shape != (n,):
                raise LayoutError(f"{n} positions but {m.size} masses")
        self.n_bodies = n
        if n == 0:
            self.n_cells = 0
            empty_f = np.zeros(0, dtype=float)
            empty_i = np.zeros(0, dtype=np.int64)
            self.cx = self.cy = self.half = empty_f
            self.mass = self.com_x = self.com_y = empty_f
            self.depth = empty_i
            self.children = np.zeros((0, 4), dtype=np.int64)
            self.is_leaf = np.zeros(0, dtype=bool)
            self.leaf_start = self.leaf_count = empty_i
            self.leaf_bodies = empty_i
            self._size2 = empty_f
            self._child_start = self._child_count = empty_i
            self._child_list = empty_i
            return
        self._build(pos, m)

    # ------------------------------------------------------------------
    def _build(self, pos: np.ndarray, m: np.ndarray) -> None:
        n = len(pos)
        x, y = pos[:, 0], pos[:, 1]
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        half0 = float(max(hi[0] - lo[0], hi[1] - lo[1])) / 2.0 + 1e-9
        total = float(m.sum())
        cx = np.array([float(lo[0] + hi[0]) / 2.0])
        cy = np.array([float(lo[1] + hi[1]) / 2.0])
        half = np.array([half0])
        mass = np.array([total])
        com_x = np.array([float(x @ m) / total])
        com_y = np.array([float(y @ m) / total])
        depth = np.array([0], dtype=np.int64)
        # (parent, quadrant, child) triples, filled into the children
        # matrix once the cell count is known.
        link_parent: list[np.ndarray] = []
        link_quad: list[np.ndarray] = []
        link_child: list[np.ndarray] = []
        leaf_of = np.full(n, -1, dtype=np.int64)

        body = np.arange(n, dtype=np.int64)
        cell = np.zeros(n, dtype=np.int64)
        n_cells = 1
        level = 0
        while body.size:
            if level >= MAX_DEPTH:
                # Whatever is still open shares a leaf (co-located).
                leaf_of[body] = cell
                break
            counts = np.bincount(cell, minlength=n_cells)
            settled = counts[cell] == 1
            if settled.any():
                leaf_of[body[settled]] = cell[settled]
                keep = ~settled
                body, cell = body[keep], cell[keep]
                if not body.size:
                    break
            # Subdivide every remaining (multi-body) cell one level:
            # group bodies by (cell, quadrant) and mint the non-empty
            # children in one unique() pass.
            bx, by = x[body], y[body]
            quad = (bx >= cx[cell]).astype(np.int64) | (
                (by >= cy[cell]).astype(np.int64) << 1
            )
            key = cell * 4 + quad
            uniq, inverse = np.unique(key, return_inverse=True)
            parents = uniq >> 2
            quads = uniq & 3
            offset = half[parents] / 2.0
            bm = m[body]
            new_mass = np.bincount(inverse, weights=bm, minlength=uniq.size)
            cx = np.concatenate(
                [cx, cx[parents] + np.where(quads & 1, offset, -offset)]
            )
            cy = np.concatenate(
                [cy, cy[parents] + np.where(quads & 2, offset, -offset)]
            )
            half = np.concatenate([half, offset])
            com_x = np.concatenate(
                [
                    com_x,
                    np.bincount(inverse, weights=bm * bx, minlength=uniq.size)
                    / new_mass,
                ]
            )
            com_y = np.concatenate(
                [
                    com_y,
                    np.bincount(inverse, weights=bm * by, minlength=uniq.size)
                    / new_mass,
                ]
            )
            mass = np.concatenate([mass, new_mass])
            depth = np.concatenate(
                [depth, np.full(uniq.size, level + 1, dtype=np.int64)]
            )
            ids = n_cells + np.arange(uniq.size, dtype=np.int64)
            link_parent.append(parents)
            link_quad.append(quads)
            link_child.append(ids)
            cell = ids[inverse]
            n_cells += uniq.size
            level += 1

        self.n_cells = n_cells
        self.cx, self.cy, self.half = cx, cy, half
        self.mass, self.com_x, self.com_y = mass, com_x, com_y
        self.depth = depth
        children = np.full((n_cells, 4), -1, dtype=np.int64)
        if link_parent:
            children[
                np.concatenate(link_parent), np.concatenate(link_quad)
            ] = np.concatenate(link_child)
        self.children = children
        leaf_count = np.bincount(leaf_of, minlength=n_cells).astype(np.int64)
        self.leaf_count = leaf_count
        self.is_leaf = leaf_count > 0
        starts = np.zeros(n_cells, dtype=np.int64)
        np.cumsum(leaf_count[:-1], out=starts[1:])
        self.leaf_start = starts
        self.leaf_bodies = np.argsort(leaf_of, kind="stable").astype(np.int64)
        # Traversal-side metadata: the squared opening size per cell
        # and the children in CSR form (only non-empty children are
        # stored, so frontier expansion is a flat gather instead of a
        # (k, 4) matrix gather plus masking).
        self._size2 = (2.0 * half) ** 2
        if link_parent:
            all_parents = np.concatenate(link_parent)
            all_children = np.concatenate(link_child)
            order = np.argsort(all_parents, kind="stable")
            self._child_list = all_children[order].astype(np.int64)
        else:
            self._child_list = np.zeros(0, dtype=np.int64)
        child_count = np.bincount(
            np.concatenate(link_parent) if link_parent else np.zeros(0, int),
            minlength=n_cells,
        ).astype(np.int64)
        self._child_count = child_count
        child_start = np.zeros(n_cells, dtype=np.int64)
        np.cumsum(child_count[:-1], out=child_start[1:])
        self._child_start = child_start

    # ------------------------------------------------------------------
    def forces(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        charge: float,
        theta: float,
        bodies: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, int]:
        """Coulomb repulsion on every body, one block of bodies at a time.

        Returns ``(forces, p2p_pairs)`` where ``forces`` is ``(n, 2)``
        and ``p2p_pairs`` counts the exact body-body interactions
        evaluated in leaves.  ``positions``/``masses`` are the *current*
        body state: when the tree is reused across steps they may
        differ slightly from the build-time state — leaf interactions
        stay exact (they read current positions), only the cell
        approximations see stale centers of mass.  With ``theta == 0``
        no cell is ever accepted, so the result is exact pairwise
        regardless of tree staleness.

        The bodies are walked in equal blocks of :data:`BLOCK_BODIES`
        to ``2 * BLOCK_BODIES - 1`` bodies; each block runs its own
        frontier traversal and writes its rows before the next block
        starts, so the transient memory is bounded by the block rather
        than growing with n log n.

        ``bodies`` restricts the evaluation to a subset of body indices
        — the primitive behind the sharded kernel, where each worker
        traverses the shared tree for its own shard only.  The returned
        array is still ``(n, 2)``; rows outside the subset are zero.
        A body's accumulation order is identical whether it is
        evaluated alone, within a block or shard, or within the full
        set, so shard results are bitwise equal to the full
        evaluation's rows.
        """
        n = self.n_bodies
        forces = np.zeros((n, 2), dtype=float)
        if n < 2 or self.n_cells == 0:
            return forces, 0
        pos = np.asarray(positions, dtype=float)
        if pos.shape != (n, 2):
            raise LayoutError(
                f"tree holds {n} bodies but positions shape is {pos.shape}"
            )
        m = np.asarray(masses, dtype=float)
        if m.shape != (n,):
            raise LayoutError(f"tree holds {n} bodies but {m.size} masses")
        if bodies is None:
            b = np.arange(n, dtype=np.int64)
        else:
            b = np.asarray(bodies, dtype=np.int64)
            if b.ndim != 1:
                raise LayoutError(
                    f"bodies must be a 1-D index array, got shape {b.shape}"
                )
            if b.size and (b.min() < 0 or b.max() >= n):
                raise LayoutError(
                    f"body indices must be in [0, {n}), got "
                    f"[{b.min()}, {b.max()}]"
                )
        # Contiguous coordinate columns: every round gathers from them.
        x = np.ascontiguousarray(pos[:, 0])
        y = np.ascontiguousarray(pos[:, 1])
        theta2 = theta * theta
        # slot[body]: the body's row within its block's accumulators.
        slot = np.zeros(n, dtype=np.int64)
        p2p = 0
        step = _block_size(b.size)
        for lo in range(0, b.size, step):
            block = b[lo:lo + step]
            slot[block] = np.arange(block.size, dtype=np.int64)
            p2p += self._block_forces(
                x, y, m, block, slot, charge, theta2, forces
            )
        return forces, p2p

    def _block_forces(
        self,
        x: np.ndarray,
        y: np.ndarray,
        m: np.ndarray,
        block: np.ndarray,
        slot: np.ndarray,
        charge: float,
        theta2: float,
        out: np.ndarray,
    ) -> int:
        """Write the repulsion on *block*'s bodies into their rows of *out*.

        Far-cell terms and leaf cells are *collected* during the
        frontier sweep and summed in one bincount per block, so
        per-round work stays pure masking/arithmetic and each body's
        terms are added in traversal order, whatever shares its block.
        Returns the number of exact leaf pairs evaluated.
        """
        k = block.size
        far_body: list[np.ndarray] = []
        far_fx: list[np.ndarray] = []
        far_fy: list[np.ndarray] = []
        leaf_body: list[np.ndarray] = []
        leaf_cell: list[np.ndarray] = []
        com_x, com_y = self.com_x, self.com_y
        size2, cell_mass, is_leaf = self._size2, self.mass, self.is_leaf
        child_count, child_start = self._child_count, self._child_start
        child_list = self._child_list
        # Frontier of (body, cell) pairs: the block's bodies vs root.
        b = block
        c = np.zeros(k, dtype=np.int64)
        while b.size:
            dx = x[b] - com_x[c]
            dy = y[b] - com_y[c]
            d2 = dx * dx + dy * dy
            leaf = is_leaf[c]
            accept = (d2 > _EPS2) & (size2[c] < theta2 * d2) & ~leaf
            ai = accept.nonzero()[0]
            if ai.size:
                ab = b[ai]
                ad2 = d2[ai]
                scale = charge * m[ab] * cell_mass[c[ai]] / (ad2 * np.sqrt(ad2))
                far_body.append(ab)
                far_fx.append(scale * dx[ai])
                far_fy.append(scale * dy[ai])
            li = leaf.nonzero()[0]
            if li.size:
                leaf_body.append(b[li])
                leaf_cell.append(c[li])
            di = (~(accept | leaf)).nonzero()[0]
            if not di.size:
                break
            dc = c[di]
            counts = child_count[dc]
            # CSR expansion: child j of cell dc[i] sits at
            # child_start[dc[i]] + j in the child list.
            ends = counts.cumsum()
            first = child_start[dc] - (ends - counts)
            c = child_list[np.repeat(first, counts) + np.arange(ends[-1])]
            b = np.repeat(b[di], counts)
        fx = np.zeros(k)
        fy = np.zeros(k)
        if far_body:
            fs = slot[np.concatenate(far_body)]
            fx += np.bincount(fs, weights=np.concatenate(far_fx), minlength=k)
            fy += np.bincount(fs, weights=np.concatenate(far_fy), minlength=k)
        p2p = 0
        if leaf_body:
            lb = np.concatenate(leaf_body)
            lc = np.concatenate(leaf_cell)
            cnt = self.leaf_count[lc]
            # CSR expansion: pair body lb[j] with every resident of its
            # leaf, then drop the self-pair.
            me = np.repeat(lb, cnt)
            first = self.leaf_start[lc] - (cnt.cumsum() - cnt)
            other = self.leaf_bodies[
                np.repeat(first, cnt) + np.arange(int(cnt.sum()))
            ]
            keep = other != me
            me, other = me[keep], other[keep]
            p2p = int(me.size)
            if p2p:
                ox = x[me] - x[other]
                oy = y[me] - y[other]
                od2 = ox * ox + oy * oy
                close = od2 < _EPS2
                if close.any():
                    ox = np.where(close, _KICK[0], ox)
                    oy = np.where(close, _KICK[1], oy)
                    od2 = np.where(close, _KICK[2], od2)
                scale = charge * m[me] * m[other] / (od2 * np.sqrt(od2))
                ms = slot[me]
                fx += np.bincount(ms, weights=scale * ox, minlength=k)
                fy += np.bincount(ms, weights=scale * oy, minlength=k)
        out[block, 0] = fx
        out[block, 1] = fy
        return p2p


class _Cell:
    """One quadtree cell (internal or leaf)."""

    __slots__ = ("cx", "cy", "half", "mass", "com_x", "com_y", "children", "bodies")

    def __init__(self, cx: float, cy: float, half: float) -> None:
        self.cx = cx
        self.cy = cy
        self.half = half
        self.mass = 0.0
        self.com_x = 0.0
        self.com_y = 0.0
        self.children: list["_Cell | None"] | None = None  # None = leaf
        self.bodies: list[int] = []

    def quadrant(self, x: float, y: float) -> int:
        return (1 if x >= self.cx else 0) | (2 if y >= self.cy else 0)

    def child_center(self, quadrant: int) -> tuple[float, float]:
        q = self.half / 2.0
        return (
            self.cx + (q if quadrant & 1 else -q),
            self.cy + (q if quadrant & 2 else -q),
        )


class QuadTree:
    """A quadtree over 2D bodies with masses, for O(n log n) repulsion.

    The scalar pointer-based implementation; the production layout path
    uses :class:`ArrayQuadTree` and keeps this one as the
    differential-testing oracle.  ``n_cells`` counts allocated cells
    and ``p2p_pairs`` accumulates the exact leaf interactions evaluated
    by :meth:`force_on`, mirroring the array kernel's counters.
    """

    def __init__(
        self,
        positions: Sequence[tuple[float, float]],
        masses: Sequence[float] | None = None,
    ) -> None:
        n = len(positions)
        if masses is None:
            masses = [1.0] * n
        if len(masses) != n:
            raise LayoutError(
                f"{n} positions but {len(masses)} masses"
            )
        self._x = [float(p[0]) for p in positions]
        self._y = [float(p[1]) for p in positions]
        self._m = [float(m) for m in masses]
        self.root: _Cell | None = None
        self.n_cells = 0
        self.p2p_pairs = 0
        if n:
            self._build()

    def _new_cell(self, cx: float, cy: float, half: float) -> _Cell:
        self.n_cells += 1
        return _Cell(cx, cy, half)

    def _build(self) -> None:
        min_x, max_x = min(self._x), max(self._x)
        min_y, max_y = min(self._y), max(self._y)
        half = max(max_x - min_x, max_y - min_y) / 2.0 + 1e-9
        self.root = self._new_cell(
            (min_x + max_x) / 2.0, (min_y + max_y) / 2.0, half
        )
        for body in range(len(self._x)):
            self._insert(self.root, body, 0)

    def _insert(self, cell: _Cell, body: int, depth: int) -> None:
        x, y, m = self._x[body], self._y[body], self._m[body]
        while True:
            # Update the aggregate on the way down.
            total = cell.mass + m
            cell.com_x = (cell.com_x * cell.mass + x * m) / total
            cell.com_y = (cell.com_y * cell.mass + y * m) / total
            cell.mass = total
            if cell.children is None:
                if not cell.bodies or depth >= MAX_DEPTH:
                    cell.bodies.append(body)
                    return
                # Leaf splits: push the resident body down, then loop to
                # place the new body in the subdivided cell.
                residents = cell.bodies
                cell.bodies = []
                cell.children = [None, None, None, None]
                for resident in residents:
                    self._sink(cell, resident, depth)
            quadrant = cell.quadrant(x, y)
            child = cell.children[quadrant]
            if child is None:
                ccx, ccy = cell.child_center(quadrant)
                child = cell.children[quadrant] = self._new_cell(
                    ccx, ccy, cell.half / 2.0
                )
            cell = child
            depth += 1

    def _sink(self, parent: _Cell, body: int, depth: int) -> None:
        """Place an already-counted body one level below *parent*."""
        x, y = self._x[body], self._y[body]
        quadrant = parent.quadrant(x, y)
        child = parent.children[quadrant]
        if child is None:
            ccx, ccy = parent.child_center(quadrant)
            child = parent.children[quadrant] = self._new_cell(
                ccx, ccy, parent.half / 2.0
            )
        # Recount mass down this sub-path.
        m = self._m[body]
        cell = child
        d = depth + 1
        while True:
            total = cell.mass + m
            cell.com_x = (cell.com_x * cell.mass + x * m) / total
            cell.com_y = (cell.com_y * cell.mass + y * m) / total
            cell.mass = total
            if cell.children is None:
                if not cell.bodies or d >= MAX_DEPTH:
                    cell.bodies.append(body)
                    return
                residents = cell.bodies
                cell.bodies = []
                cell.children = [None, None, None, None]
                for resident in residents:
                    self._sink(cell, resident, d)
            quadrant = cell.quadrant(x, y)
            nxt = cell.children[quadrant]
            if nxt is None:
                ccx, ccy = cell.child_center(quadrant)
                nxt = cell.children[quadrant] = self._new_cell(
                    ccx, ccy, cell.half / 2.0
                )
            cell = nxt
            d += 1

    def interactions(self, body: int, theta: float) -> int:
        """Count the force interactions evaluated for *body*.

        The complexity measure behind the paper's O(n^2) vs O(n log n)
        claim: a naive pass always evaluates ``n - 1`` interactions,
        Barnes-Hut evaluates one per approximated cell or leaf body.
        """
        if self.root is None:
            return 0
        x, y = self._x[body], self._y[body]
        count = 0
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.mass <= 0:
                continue
            if cell.children is None:
                count += sum(1 for other in cell.bodies if other != body)
                continue
            dx = x - cell.com_x
            dy = y - cell.com_y
            dist2 = dx * dx + dy * dy
            size = cell.half * 2.0
            if dist2 > _EPS2 and size * size < theta * theta * dist2:
                count += 1
            else:
                for child in cell.children:
                    if child is not None:
                        stack.append(child)
        return count

    def force_on(
        self, body: int, charge: float, theta: float
    ) -> tuple[float, float]:
        """Coulomb repulsion on *body* from every other body.

        ``F = charge * m_i * m_j / d^2``, directed away from the other
        mass.  Cells satisfying the opening criterion are approximated
        by their center of mass; with ``theta == 0`` the computation is
        exact (pairwise).
        """
        if self.root is None:
            return (0.0, 0.0)
        x, y, m = self._x[body], self._y[body], self._m[body]
        fx = fy = 0.0
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.mass <= 0:
                continue
            dx = x - cell.com_x
            dy = y - cell.com_y
            dist2 = dx * dx + dy * dy
            if cell.children is None:
                # Leaf: exact interaction with each resident body.
                for other in cell.bodies:
                    if other == body:
                        continue
                    ox = x - self._x[other]
                    oy = y - self._y[other]
                    d2 = ox * ox + oy * oy
                    if d2 < _EPS2:
                        # Co-located bodies: deterministic tiny kick.
                        ox, oy, d2 = _KICK
                    f = charge * m * self._m[other] / d2
                    d = math.sqrt(d2)
                    fx += f * ox / d
                    fy += f * oy / d
                    self.p2p_pairs += 1
                continue
            size = cell.half * 2.0
            if dist2 > _EPS2 and size * size < theta * theta * dist2:
                f = charge * m * cell.mass / dist2
                d = math.sqrt(dist2)
                fx += f * dx / d
                fy += f * dy / d
            else:
                for child in cell.children:
                    if child is not None:
                        stack.append(child)
        return (fx, fy)
