"""Shared machinery of the force-directed layouts.

:class:`ForceLayout` owns node state (position, velocity, weight,
pinned flag) and the spring/integration steps; subclasses provide the
repulsion term (naive pairwise or Barnes-Hut).  The layout is *dynamic*:
nodes and edges can be added or removed at any time and the simulation
keeps iterating from the current state, which is what makes analyst
interaction (dragging, aggregating) smooth instead of recomputing a
fresh layout from scratch (Section 3.3).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.core.layout.forces import MAX_DISPLACEMENT, TIMESTEP, LayoutParams
from repro.errors import LayoutError
from repro.obs.registry import registry

__all__ = ["ForceLayout"]


class ForceLayout(ABC):
    """Base class of the naive and Barnes-Hut layouts."""

    def __init__(self, params: LayoutParams | None = None, seed: int = 0) -> None:
        self.params = params or LayoutParams()
        self._rng = random.Random(seed)
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._pos = np.zeros((0, 2), dtype=float)
        self._vel = np.zeros((0, 2), dtype=float)
        self._weight = np.zeros(0, dtype=float)
        self._pinned = np.zeros(0, dtype=bool)
        self._edges: dict[tuple[str, str], None] = {}
        self._edge_index: np.ndarray | None = None
        #: per-step repulsion counts, all ints: ``evals`` and
        #: ``builds`` (quadtree builds) are running totals, ``cells``
        #: the last evaluation's quadtree size (0 for the naive layout)
        #: and ``p2p_pairs`` its exact body-body interactions.  For a
        #: fixed seed they repeat exactly; the time spent lives in the
        #: ``layout.build`` / ``layout.traverse`` spans.  The dict is a
        #: :class:`repro.obs.StatGroup` registered process-wide under
        #: the ``layout`` namespace (``repro.obs.registry.snapshot()``
        #: folds every live layout in).
        self.stats: dict[str, int] = registry.group(
            "layout", {"evals": 0, "builds": 0, "cells": 0, "p2p_pairs": 0}
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self) -> list[str]:
        """The node names currently in the simulation."""
        return list(self._names)

    def add_node(
        self,
        name: str,
        weight: float = 1.0,
        position: tuple[float, float] | None = None,
    ) -> None:
        """Insert a node; the simulation adapts from its current state.

        Without an explicit *position*, the node lands at a random spot
        in a disc whose radius grows with the node count (deterministic
        given the seed).  Inserting many nodes one by one copies the
        whole SoA each time; use :meth:`add_nodes` for batches.
        """
        spot = (np.nan, np.nan) if position is None else position
        self.add_nodes([name], [weight], np.array([spot], dtype=float))

    def add_nodes(
        self,
        names: "Iterable[str]",
        weights: "Iterable[float] | None" = None,
        positions: np.ndarray | None = None,
    ) -> None:
        """Insert many nodes in one O(n) batch.

        *positions* is a float ``(len(names), 2)`` array.  A row is used
        verbatim; a NaN row (or no array at all) means no position, and
        the node lands at the deterministic random-disc spot a sequence
        of :meth:`add_node` calls would have picked, drawn in name
        order.  An infinite coordinate or a weight that is not a finite
        positive number raises :class:`~repro.errors.LayoutError` and
        adds nothing.
        """
        names = list(names)
        if not names:
            return
        k = len(names)
        seen = set(self._index)
        for name in names:
            if name in seen:
                raise LayoutError(f"duplicate layout node {name!r}")
            seen.add(name)
        if weights is None:
            w = np.ones(k, dtype=float)
        else:
            w = np.asarray(list(weights), dtype=float)
            if w.shape != (k,):
                raise LayoutError(f"{k} names but {w.size} weights")
            bad = w[~((w > 0) & (w < np.inf))]
            if bad.size:
                raise LayoutError(
                    f"node weight must be finite and > 0, got {bad[0]}"
                )
        base = len(self._names)
        if positions is None:
            pos = np.full((k, 2), np.nan)
        else:
            pos = np.array(positions, dtype=float)
            if pos.shape != (k, 2):
                raise LayoutError(
                    f"{k} names but positions shape is {pos.shape}"
                )
            if np.isinf(pos).any():
                raise LayoutError("node positions must be finite")
        for i in np.flatnonzero(np.isnan(pos).any(axis=1)).tolist():
            radius = self.params.spring_length * max(
                1.0, math.sqrt(base + i + 1)
            )
            angle = self._rng.uniform(0.0, 2.0 * math.pi)
            r = radius * math.sqrt(self._rng.random())
            pos[i] = (r * math.cos(angle), r * math.sin(angle))
        for i, name in enumerate(names):
            self._index[name] = base + i
        self._names.extend(names)
        self._pos = np.vstack([self._pos, pos])
        self._vel = np.vstack([self._vel, np.zeros((k, 2))])
        self._weight = np.concatenate([self._weight, w])
        self._pinned = np.concatenate([self._pinned, np.zeros(k, dtype=bool)])
        self._edge_index = None
        self._on_bodies_changed()

    def remove_node(self, name: str) -> None:
        """Remove a node and every edge touching it."""
        self.remove_nodes([name])

    def remove_nodes(self, names: "Iterable[str]") -> None:
        """Remove many nodes, and every edge touching them, in one pass.

        The result matches a sequence of :meth:`remove_node` calls in
        *names* order: each removal moves the last body into the freed
        slot.  The swaps are replayed on indices and applied to the
        arrays with one gather, and the edge set is filtered once.
        """
        names = list(names)
        if not names:
            return
        gone = set(names)
        if len(gone) != len(names):
            raise LayoutError("duplicate names in node removal batch")
        for name in names:
            self._require(name)
        rows = list(range(len(self._names)))
        for name in names:
            idx = self._index.pop(name)
            last = len(self._names) - 1
            if idx != last:
                moved = self._names[last]
                self._names[idx] = moved
                self._index[moved] = idx
                rows[idx] = rows[last]
            self._names.pop()
            rows.pop()
        keep = np.asarray(rows, dtype=np.int64)
        self._pos = self._pos[keep]
        self._vel = self._vel[keep]
        self._weight = self._weight[keep]
        self._pinned = self._pinned[keep]
        self._edges = {
            pair: None
            for pair in self._edges
            if pair[0] not in gone and pair[1] not in gone
        }
        self._edge_index = None
        self._on_bodies_changed()

    def set_weight(self, name: str, weight: float) -> None:
        """Update a node's charge weight (its member count)."""
        if not 0 < weight < math.inf:
            raise LayoutError(
                f"node weight must be finite and > 0, got {weight}"
            )
        self._weight[self._require(name)] = float(weight)
        self._on_bodies_changed()

    def add_edge(self, a: str, b: str) -> None:
        """Connect *a* and *b* with a spring (idempotent)."""
        if a == b:
            raise LayoutError(f"self-edge on {a!r}")
        self._require(a)
        self._require(b)
        self._edges[(a, b) if a <= b else (b, a)] = None
        self._edge_index = None

    def set_edges(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Replace the whole edge set."""
        self._edges = {}
        for a, b in pairs:
            self.add_edge(a, b)

    def edges(self) -> list[tuple[str, str]]:
        """The current edge set as canonical name pairs."""
        return list(self._edges)

    def _require(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LayoutError(f"unknown layout node {name!r}") from None

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def position(self, name: str) -> tuple[float, float]:
        """Current position of one node."""
        idx = self._require(name)
        return (float(self._pos[idx, 0]), float(self._pos[idx, 1]))

    def positions(self) -> dict[str, tuple[float, float]]:
        """Current position of every node."""
        return {
            name: (float(self._pos[i, 0]), float(self._pos[i, 1]))
            for name, i in self._index.items()
        }

    def move(self, name: str, position: tuple[float, float]) -> None:
        """Drag a node: it jumps there and its velocity resets.

        Thanks to the dynamic layout, "whenever a node is moved by the
        analyst, all his neighbors seamlessly follow" over the next
        steps.
        """
        idx = self._require(name)
        xy = np.asarray(position, dtype=float)
        if not np.isfinite(xy).all():
            raise LayoutError(f"position must be finite, got {position!r}")
        self._pos[idx] = xy
        self._vel[idx] = 0.0

    def pin(self, name: str, pinned: bool = True) -> None:
        """Freeze (or release) a node; forces no longer move it."""
        self._pinned[self._require(name)] = pinned

    def is_pinned(self, name: str) -> bool:
        """Whether *name* is currently frozen."""
        return bool(self._pinned[self._require(name)])

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    @abstractmethod
    def _repulsion_forces(self) -> np.ndarray:
        """The (n, 2) Coulomb force array; subclass-specific."""

    def _on_bodies_changed(self) -> None:
        """Hook: the body set or a weight changed; drop caches."""

    def _record_stats(
        self, *, built: bool, cells: int, p2p_pairs: int
    ) -> None:
        """Store one repulsion evaluation's counts in :attr:`stats`."""
        stats = self.stats
        stats["evals"] += 1
        stats["builds"] += int(built)
        stats["cells"] = cells
        stats["p2p_pairs"] = p2p_pairs

    def _spring_forces(self) -> np.ndarray:
        forces = np.zeros_like(self._pos)
        if not self._edges:
            return forces
        if self._edge_index is None:
            self._edge_index = np.asarray(
                [(self._index[a], self._index[b]) for a, b in self._edges],
                dtype=int,
            )
        i = self._edge_index[:, 0]
        j = self._edge_index[:, 1]
        delta = self._pos[j] - self._pos[i]
        dist = np.maximum(np.linalg.norm(delta, axis=1), 1e-9)
        magnitude = self.params.spring * (dist - self.params.spring_length)
        pull = delta * (magnitude / dist)[:, None]
        np.add.at(forces, i, pull)
        np.add.at(forces, j, -pull)
        return forces

    def step(self) -> float:
        """Advance the simulation one step; return the max displacement.

        The return value is the convergence measure: once it falls under
        a tolerance the layout is visually stable.
        """
        if not self._names:
            return 0.0
        forces = self._repulsion_forces() + self._spring_forces()
        self._vel = (self._vel + forces * TIMESTEP) * self.params.damping
        displacement = self._vel * TIMESTEP
        norms = np.linalg.norm(displacement, axis=1)
        over = norms > MAX_DISPLACEMENT
        if over.any():
            displacement[over] *= (MAX_DISPLACEMENT / norms[over])[:, None]
            norms[over] = MAX_DISPLACEMENT
        displacement[self._pinned] = 0.0
        norms[self._pinned] = 0.0
        self._pos += displacement
        return float(norms.max())

    def run(self, max_steps: int = 300, tolerance: float = 0.5) -> int:
        """Step until the max displacement drops below *tolerance*.

        Returns the number of steps actually executed.
        """
        if max_steps < 0:
            raise LayoutError(f"max_steps must be >= 0, got {max_steps}")
        for done in range(1, max_steps + 1):
            if self.step() < tolerance:
                return done
        return max_steps

    def close(self) -> None:
        """Release any resources held by the layout.

        The in-process layouts hold none; the sharded kernel overrides
        this to shut its worker pool down.  Safe to call repeatedly.
        """

    # ------------------------------------------------------------------
    # Quality measures (used by benches and tests)
    # ------------------------------------------------------------------
    def dispersion(self) -> float:
        """RMS distance of nodes from their centroid.

        The quantity the *charge* slider visibly controls (Fig. 5).
        """
        if len(self._names) == 0:
            return 0.0
        centered = self._pos - self._pos.mean(axis=0)
        return float(np.sqrt((centered ** 2).sum(axis=1).mean()))

    def mean_edge_length(self) -> float:
        """Average edge length; the *spring* slider's observable."""
        if not self._edges:
            return 0.0
        total = 0.0
        for a, b in self._edges:
            pa = self._pos[self._index[a]]
            pb = self._pos[self._index[b]]
            total += float(np.linalg.norm(pa - pb))
        return total / len(self._edges)
