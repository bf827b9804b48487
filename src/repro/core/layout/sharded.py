"""Sharded Barnes-Hut kernel: repulsion partitioned across processes.

The single-process array kernel evaluates every body's forces in one
process (a frontier traversal per block of bodies); past ~10^5 bodies
that traversal dominates the step and pins one core.  Following the pregel-style recipe of
*A Distributed Force-Directed Algorithm on Giraph* (PAPERS.md), this
kernel partitions the body array into ``workers`` contiguous shards and
runs one **superstep** per repulsion evaluation:

1. **halo broadcast** — the coordinator publishes the full position
   (and, on rebuild, weight) arrays into shared-memory buffers; every
   worker sees every body, its *halo* being the bodies outside its own
   shard;
2. **local compute** — each worker (re)builds its replica of the
   quadtree from the shared positions when the coordinator's drift
   check demands it, then traverses the tree *for its shard only*
   (:meth:`ArrayQuadTree.forces` with ``bodies=``) and writes the
   resulting force rows into its disjoint slice of the shared force
   buffer;
3. **boundary exchange / barrier** — workers report their per-superstep
   counts back over their pipes; the coordinator blocks until all
   shards arrive, then reads the combined force array.

Because a body's force accumulation order inside the array kernel is
independent of which other bodies are evaluated alongside it, the
sharded result is **bitwise equal** to the single-process array
kernel's (enforced to roundoff by ``tests/test_layout_differential.py``
and exactly by the worker-count determinism test).  Spring forces and
integration stay in the coordinator — they are O(E + n) vectorized and
not worth a superstep.

Workers are forked lazily on the first evaluation after a structural
change, so graph construction (thousands of ``add_node`` calls) costs
nothing extra.  The kernel is a :class:`BarnesHutLayout`: on platforms
without ``fork`` (or for tiny graphs, where a superstep costs more than
it saves) it evaluates through its parent class, in-process, and the
drift check that decides when the workers rebuild their replicas is
the parent's too.  A worker that dies (its pipe breaks) or hangs (no
reply within :data:`SUPERSTEP_TIMEOUT_S`) makes the kernel kill the
pool and evaluate in-process from then on, over the tree the replicas
held, so the positions stay the array kernel's.

Every superstep counts into the ``layout.shard`` stats namespace:
``supersteps``, ``rebuilds``, ``inproc_evals``, ``halo_bytes`` (pos
broadcast) and ``force_bytes`` (gathered shard rows); the
``layout.superstep`` span times it.
"""

from __future__ import annotations

import mmap
import multiprocessing
import time

import numpy as np

from repro.core.layout.barneshut import BarnesHutLayout
from repro.core.layout.forces import LayoutParams
from repro.core.layout.quadtree import ArrayQuadTree, root_cell
from repro.errors import LayoutError
from repro.obs.registry import registry
from repro.obs.spans import span

__all__ = ["ShardedBarnesHutLayout", "validate_workers", "MIN_SHARD_BODIES"]

#: Below this body count a superstep costs more than it saves; the
#: kernel evaluates in-process (identical math, same tree).
MIN_SHARD_BODIES = 256

#: Seconds one superstep may wait for all of its shard replies; a
#: worker that has not answered by then counts as lost.  A rebuilding
#: superstep at 100k bodies on 4 workers took 1.4 s on a 2-vCPU host,
#: so only a hung worker should reach this.
SUPERSTEP_TIMEOUT_S = 30.0


def validate_workers(workers: int) -> int:
    """Check a shard count: an ``int >= 1`` that is a power of two.

    Power-of-two counts keep the contiguous body partition halving
    evenly, so shard boundaries are stable when the worker count is
    doubled — which is what makes the worker-count determinism test
    meaningful (2 and 4 workers cover the same index ranges, split
    differently).  Raises :class:`~repro.errors.LayoutError` otherwise.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise LayoutError(
            f"workers must be an int, got {type(workers).__name__}"
        )
    if workers < 1:
        raise LayoutError(f"workers must be >= 1, got {workers}")
    if workers & (workers - 1):
        raise LayoutError(
            f"workers must be a power of two, got {workers}"
        )
    return workers


def _shard_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` index ranges, one per worker."""
    bounds = []
    for w in range(workers):
        lo = n * w // workers
        hi = n * (w + 1) // workers
        bounds.append((lo, hi))
    return bounds


def _worker_main(conn, pos_mm, weight_mm, force_mm, n, lo, hi) -> None:
    """One shard worker: superstep loop over the shared buffers.

    Runs in a forked child.  ``pos_mm``/``weight_mm`` are read-only
    inputs refreshed by the coordinator before each superstep;
    ``force_mm`` receives this worker's force rows (disjoint slice, no
    locking needed).  Messages: ``("step", rebuild, charge, theta)`` →
    ``("ok", cells, p2p)``; ``("stop",)`` exits.
    """
    pos = np.frombuffer(pos_mm, dtype=float, count=n * 2).reshape(n, 2)
    weight = np.frombuffer(weight_mm, dtype=float, count=n)
    force = np.frombuffer(force_mm, dtype=float, count=n * 2).reshape(n, 2)
    bodies = np.arange(lo, hi, dtype=np.int64)
    tree = None
    try:
        while True:
            msg = conn.recv()
            if msg[0] != "step":
                break
            _, rebuild, charge, theta = msg
            if rebuild or tree is None:
                # Each worker builds its own replica from the same
                # shared positions — deterministic, so all replicas
                # are identical and no tree has to cross a pipe.
                tree = ArrayQuadTree(pos, weight)
            forces, p2p = tree.forces(pos, weight, charge, theta, bodies=bodies)
            force[lo:hi] = forces[lo:hi]
            conn.send(("ok", tree.n_cells, p2p))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class _ShardPool:
    """The forked worker set plus its shared-memory buffers for one n."""

    def __init__(self, n: int, workers: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.n = n
        self.workers = workers
        # Anonymous shared mappings: created before fork, inherited by
        # every child — zero-copy, zero-pickle halo exchange.
        self._pos_mm = mmap.mmap(-1, max(n * 2 * 8, 1))
        self._weight_mm = mmap.mmap(-1, max(n * 8, 1))
        self._force_mm = mmap.mmap(-1, max(n * 2 * 8, 1))
        self.pos = np.frombuffer(
            self._pos_mm, dtype=float, count=n * 2
        ).reshape(n, 2)
        self.weight = np.frombuffer(self._weight_mm, dtype=float, count=n)
        self.force = np.frombuffer(
            self._force_mm, dtype=float, count=n * 2
        ).reshape(n, 2)
        self.bounds = _shard_bounds(n, workers)
        self._conns = []
        self._procs = []
        for w, (lo, hi) in enumerate(self.bounds):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, self._pos_mm, self._weight_mm, self._force_mm,
                      n, lo, hi),
                name=f"repro-layout-shard-{w}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def superstep(
        self, rebuild: bool, charge: float, theta: float
    ) -> tuple[int, int]:
        """Run one superstep; returns ``(cells, p2p)``.

        ``cells`` is the (identical) replica tree size and ``p2p`` the
        sum over shards.  A broken worker pipe (a dead worker) or a
        reply missing at :data:`SUPERSTEP_TIMEOUT_S` (a hung one) kills
        every worker and raises :class:`~repro.errors.LayoutError`.
        """
        deadline = time.monotonic() + SUPERSTEP_TIMEOUT_S
        cells = p2p = 0
        try:
            for conn in self._conns:
                conn.send(("step", rebuild, charge, theta))
            for conn in self._conns:
                if not conn.poll(max(deadline - time.monotonic(), 0.0)):
                    raise TimeoutError(
                        f"no reply within {SUPERSTEP_TIMEOUT_S} s"
                    )
                reply = conn.recv()
                if reply[0] != "ok":  # pragma: no cover - defensive
                    raise LayoutError(f"shard worker failed: {reply!r}")
                cells = reply[1]
                p2p += reply[2]
        except (EOFError, OSError) as error:  # TimeoutError included
            for proc in self._procs:
                proc.kill()  # a pool that missed a superstep is spent
            raise LayoutError(
                f"shard worker lost: {type(error).__name__}: {error}"
            ) from error
        return cells, p2p

    def close(self) -> None:
        """Stop the workers and release the shared mappings.

        A worker still alive after its join is killed: a stopped
        process does not act on SIGTERM, and the interpreter would wait
        for it at exit.
        """
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        # Views must go before the mappings can close.
        self.pos = self.weight = self.force = None
        for buf in (self._pos_mm, self._weight_mm, self._force_mm):
            try:
                buf.close()
            except BufferError:  # pragma: no cover - lingering view
                pass


class ShardedBarnesHutLayout(BarnesHutLayout):
    """Barnes-Hut layout whose repulsion runs on a worker-process pool.

    Selected via ``make_layout(..., workers=N)`` with N above 1.
    ``workers`` must be a power of two (see :func:`validate_workers`).
    Bitwise equal to :class:`BarnesHutLayout` — same tree, same
    per-body accumulation order, same rebuild schedule — which the
    differential net enforces.
    """

    def __init__(
        self,
        params: LayoutParams | None = None,
        seed: int = 0,
        workers: int = 2,
        min_shard_bodies: int = MIN_SHARD_BODIES,
    ) -> None:
        self.workers = validate_workers(workers)
        self.min_shard_bodies = min_shard_bodies
        self._pool: _ShardPool | None = None
        #: set once a worker died; the kernel stays in-process after
        self._pool_lost = False
        super().__init__(params, seed)
        #: per-superstep counts, folded into ``registry.snapshot()``
        #: under ``layout.shard.*``
        self.shard_stats: dict[str, int] = registry.group(
            "layout.shard",
            {
                "workers": self.workers,
                "supersteps": 0,
                "rebuilds": 0,
                "inproc_evals": 0,
                "halo_bytes": 0,
                "force_bytes": 0,
            },
        )

    # ------------------------------------------------------------------
    def _use_pool(self, n: int) -> bool:
        if self._pool_lost:
            return False
        if self.workers < 2 or n < 2 or n < self.min_shard_bodies:
            return False
        return "fork" in multiprocessing.get_all_start_methods()

    def _repulsion_forces(self) -> np.ndarray:
        n = len(self._names)
        if not self._use_pool(n):
            self.close()
            if n >= 2:  # fewer bodies evaluate nothing
                self.shard_stats["inproc_evals"] += 1
            return super()._repulsion_forces()
        if self._pool is not None and self._pool.n != n:
            self.close()
        if self._pool is None:
            self._pool = _ShardPool(n, self.workers)
            self._tree_pos = None  # fresh workers hold no replica yet
        pool = self._pool
        rebuild = self._needs_rebuild()
        pool.pos[:] = self._pos  # the halo broadcast
        if rebuild:
            pool.weight[:] = self._weight
            # The replicas supersede any in-process tree; the drift
            # limit comes from the root the replicas will build.
            self._tree = None
            self._mark_built(root_cell(self._pos)[2])
        try:
            with span("layout.superstep", workers=self.workers, n=n):
                cells, p2p = pool.superstep(
                    rebuild, self.params.charge, self.params.theta
                )
        except LayoutError:
            # A worker died or hung.  Evaluate in-process from now on,
            # starting from the tree the replicas were built from (the
            # drift reference), so the bits stay the array kernel's.
            self.close()
            self._pool_lost = True
            self.shard_stats["inproc_evals"] += 1
            with span("layout.build"):
                self._tree = ArrayQuadTree(self._tree_pos, self._weight)
            return self._traverse(rebuild)
        stats = self.shard_stats
        stats["supersteps"] += 1
        stats["rebuilds"] += int(rebuild)
        stats["halo_bytes"] += n * 2 * 8
        stats["force_bytes"] += n * 2 * 8
        self._record_stats(built=rebuild, cells=cells, p2p_pairs=p2p)
        return pool.force.copy()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
