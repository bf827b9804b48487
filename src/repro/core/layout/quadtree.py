"""The Barnes-Hut quadtree [Barnes & Hut 1986].

Repulsion between all node pairs is O(n^2); the paper adopts the
"scalable Barnes-hut algorithm — O(n log n)" instead.  Bodies are
inserted into a quadtree whose internal cells track total mass and
center of mass; the force on a body is then computed by walking the
tree and approximating any cell that looks small enough from the body
(``size / distance < theta``) by a single point mass.

:class:`ArrayQuadTree` is the one implementation.  The tree is a flat
structure of parallel NumPy arrays (``cx/cy/half/mass/com_x/com_y/
children``) built level-by-level with vectorized group-bys, and forces
are evaluated with a frontier traversal over blocks of about
:data:`BLOCK_BODIES` bodies (each round expands every (body, cell) pair
of the block whose cell fails the opening criterion into its
children), so the traversal's memory does not grow with n.  A round is
swept :data:`FRONTIER_CHUNK` pairs at a time (and the block's leaf
hits after it as many at a time), each chunk adding its terms to
per-body sums at once, so neither the widest round's temporaries nor
the block's terms are held whole.  Its
exact oracle is the O(n^2) :class:`~repro.core.layout.naive.NaiveLayout`,
which ``theta == 0`` reproduces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import LayoutError

__all__ = [
    "ArrayQuadTree", "MAX_DEPTH", "BLOCK_BODIES", "FRONTIER_CHUNK",
    "root_cell",
]

#: Stop subdividing past this depth; co-located bodies share a leaf.
MAX_DEPTH = 32

#: Bodies per block of :meth:`ArrayQuadTree.forces`: the traversal's
#: transient memory scales with this, not with the body count.  The
#: bodies split into equal blocks of at least this many (fewer than
#: twice as many), because every block pays each traversal round's
#: fixed NumPy overhead, however few bodies it holds.
BLOCK_BODIES = 256

#: (body, cell) pairs of one frontier round that
#: :meth:`ArrayQuadTree.forces` tests against the opening criterion at
#: a time, and leaf hits it expands into body pairs at a time: a
#: chunk's distance, acceptance and pair arrays are what a sweep holds
#: beside the round's pairs, instead of arrays as long as the widest
#: round or as every leaf pair of a block.
FRONTIER_CHUNK = 2048

#: Squared distance under which two bodies count as co-located and get
#: the deterministic separation kick instead of a diverging force.
_EPS2 = 1e-12

#: The deterministic kick: direction (x, y) and squared distance.
_KICK = (0.31, 0.17, 0.125)


def root_cell(pos: np.ndarray) -> tuple[float, float, float]:
    """Centre x, centre y and half-size of the root cell over *pos*.

    The smallest square around the ``(n, 2)`` positions, widened by a
    hair so the bodies on its far edges still fall inside.  The
    sharded kernel derives its drift limit from this without building
    a tree of its own.
    """
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    half = float(max(hi[0] - lo[0], hi[1] - lo[1])) / 2.0 + 1e-9
    return float(lo[0] + hi[0]) / 2.0, float(lo[1] + hi[1]) / 2.0, half


def _chunks(pieces: list, size: int):
    """The (body, cell) pairs of *pieces*, a list of ``(bodies,
    cells)`` array pairs, in order and *size* pairs at a time (the last
    chunk may be shorter).  Each piece leaves the list as it is taken
    up, so a swept piece is freed while the sweep goes on."""
    pieces.reverse()
    bodies: list[np.ndarray] = []
    cells: list[np.ndarray] = []
    held = 0
    while pieces:
        b, c = pieces.pop()
        at = 0
        while at < b.size:
            take = min(size - held, b.size - at)
            bodies.append(b[at:at + take])
            cells.append(c[at:at + take])
            held += take
            at += take
            if held == size:
                yield _joined(bodies), _joined(cells)
                bodies, cells, held = [], [], 0
        del b, c
    if held:
        yield _joined(bodies), _joined(cells)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """*parts* as one array: the part itself when there is only one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _block_size(n: int) -> int:
    """Bodies per block when :meth:`ArrayQuadTree.forces` walks *n*."""
    blocks = max(1, n // BLOCK_BODIES)
    return -(-n // blocks)  # ceil: the last block is not the small one


class ArrayQuadTree:
    """Structure-of-arrays quadtree with batched force evaluation.

    ``positions`` is an ``(n, 2)`` float array (any nested sequence is
    accepted and converted); ``masses`` defaults to all ones.  The cells
    are immutable after construction (only :attr:`far_cells`, the last
    evaluation's count, changes); reuse across relaxation steps is the
    layout's job (it rebuilds when positions drift too far).
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
        "far_cells",
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
        self.far_cells = 0
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
        cx0, cy0, half0 = root_cell(pos)
        total = float(m.sum())
        cx = np.array([cx0])
        cy = np.array([cy0])
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
        evaluated in leaves; :attr:`far_cells` then holds the cells the
        call accepted as point masses.  ``far_cells + p2p_pairs`` is the
        interaction count behind the O(n log n) claim: a naive pass
        evaluates ``n - 1`` interactions per body.

        ``positions``/``masses`` are the *current*
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
        than growing with n log n.  Within a block, each round is swept
        :data:`FRONTIER_CHUNK` (body, cell) pairs at a time, and so are
        the leaf hits after it; each chunk adds its far-cell or
        leaf-pair terms to the block's per-body sums in traversal order.

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
        self.far_cells = 0
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
        p2p = far = 0
        step = _block_size(b.size)
        for lo in range(0, b.size, step):
            block = b[lo:lo + step]
            slot[block] = np.arange(block.size, dtype=np.int64)
            pairs, cells = self._block_forces(
                x, y, m, block, slot, charge, theta2, forces
            )
            p2p += pairs
            far += cells
        self.far_cells = far
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
    ) -> tuple[int, int]:
        """Write the repulsion on *block*'s bodies into their rows of *out*.

        The frontier of (body, cell) pairs is swept round by round, each
        round :data:`FRONTIER_CHUNK` pairs at a time in traversal order.
        A chunk adds its accepted far-cell terms to one per-body sum
        with ``np.add.at``, collects its leaf hits, and hands its
        descending pairs to the next round as a piece, dropped once
        swept.  After the sweep the leaf hits are expanded into body
        pairs :data:`FRONTIER_CHUNK` hits at a time, in collection
        order, and their terms added to a second sum.  ``np.add.at``
        adds in index order, as one ``bincount`` over every term of the
        block would, so each body's terms are summed in traversal order
        whatever shares its block or chunk.  Returns the exact leaf
        pairs and the accepted far cells.
        """
        k = block.size
        far_x, far_y = np.zeros(k), np.zeros(k)
        pair_x, pair_y = np.zeros(k), np.zeros(k)
        p2p = far = 0
        hit_body: list[np.ndarray] = []
        hit_cell: list[np.ndarray] = []
        com_x, com_y = self.com_x, self.com_y
        size2, cell_mass, is_leaf = self._size2, self.mass, self.is_leaf
        child_count, child_start = self._child_count, self._child_start
        child_list = self._child_list
        # The first round: the block's bodies vs the root.
        pieces = [(block, np.zeros(k, dtype=np.int64))]
        while pieces:
            frontier, pieces = pieces, []
            for b, c in _chunks(frontier, FRONTIER_CHUNK):
                dx = x[b] - com_x[c]
                dy = y[b] - com_y[c]
                d2 = dx * dx + dy * dy
                leaf = is_leaf[c]
                accept = (d2 > _EPS2) & (size2[c] < theta2 * d2) & ~leaf
                ai = accept.nonzero()[0]
                if ai.size:
                    ab = b[ai]
                    ad2 = d2[ai]
                    scale = (
                        charge * m[ab] * cell_mass[c[ai]]
                        / (ad2 * np.sqrt(ad2))
                    )
                    ab = slot[ab]
                    np.add.at(far_x, ab, scale * dx[ai])
                    np.add.at(far_y, ab, scale * dy[ai])
                    far += ai.size
                li = leaf.nonzero()[0]
                if li.size:
                    hit_body.append(b[li])
                    hit_cell.append(c[li])
                di = (~(accept | leaf)).nonzero()[0]
                if not di.size:
                    continue
                del dx, dy, d2, leaf, accept
                dc = c[di]
                counts = child_count[dc]
                # CSR expansion: child j of cell dc[i] sits at
                # child_start[dc[i]] + j in the child list.
                ends = counts.cumsum()
                first = child_start[dc] - (ends - counts)
                pieces.append((
                    np.repeat(b[di], counts),
                    child_list[np.repeat(first, counts)
                               + np.arange(ends[-1])],
                ))
        if hit_body:
            hb = np.concatenate(hit_body)
            hc = np.concatenate(hit_cell)
            del hit_body, hit_cell
            for lo in range(0, hb.size, FRONTIER_CHUNK):
                p2p += self._leaf_pairs(
                    x, y, m, hb[lo:lo + FRONTIER_CHUNK],
                    hc[lo:lo + FRONTIER_CHUNK], slot, charge, pair_x, pair_y,
                )
        out[block, 0] = far_x + pair_x
        out[block, 1] = far_y + pair_y
        return p2p, far

    def _leaf_pairs(
        self,
        x: np.ndarray,
        y: np.ndarray,
        m: np.ndarray,
        hit_body: np.ndarray,
        hit_cell: np.ndarray,
        slot: np.ndarray,
        charge: float,
        acc_x: np.ndarray,
        acc_y: np.ndarray,
    ) -> int:
        """Add the exact repulsion of every resident of each hit leaf on
        the hitting body to its row of *acc_x* / *acc_y*, hit after hit
        in order; returns the body pairs evaluated."""
        cnt = self.leaf_count[hit_cell]
        # CSR expansion: pair each hit's body with every resident of
        # its leaf, then drop the self-pair.
        me = np.repeat(hit_body, cnt)
        first = self.leaf_start[hit_cell] - (cnt.cumsum() - cnt)
        other = self.leaf_bodies[np.repeat(first, cnt) + np.arange(me.size)]
        keep = other != me
        me, other = me[keep], other[keep]
        if not me.size:
            return 0
        ox = x[me] - x[other]
        oy = y[me] - y[other]
        od2 = ox * ox + oy * oy
        close = od2 < _EPS2
        if close.any():
            ox = np.where(close, _KICK[0], ox)
            oy = np.where(close, _KICK[1], oy)
            od2 = np.where(close, _KICK[2], od2)
        scale = charge * m[me] * m[other] / (od2 * np.sqrt(od2))
        rows = slot[me]
        np.add.at(acc_x, rows, scale * ox)
        np.add.at(acc_y, rows, scale * oy)
        return me.size
