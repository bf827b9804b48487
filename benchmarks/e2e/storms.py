"""Seeded analyst storms: the request streams the workloads replay.

Every storm is an endless generator of protocol requests (``{"op":
...}`` dicts without ``id``); a timed phase consumes a prefix of it.
The same arguments always yield the same stream, so one ``--seed``
fixes every input the server sees.  The program under test never sees
the seed, only the generated requests.
"""

from __future__ import annotations

import random
from typing import Iterator

#: Hierarchy depth of the scrub_slide and drill_mixed sessions: one
#: unit per Grid'5000 site and kind (41 units).
SITE_DEPTH = 2
#: Hierarchy depth of the scrub_jump sessions: one unit per cluster and
#: kind (114 units).
CLUSTER_DEPTH = 3

#: Steps of one slide sweep across the span, and the window width as a
#: share of the span.
SLIDE_STEPS = 400
SLIDE_WIDTH_FRAC = 0.125
#: scrub_jump: concurrent sessions sharing one window pool, the share of
#: requests that ask for a fresh pool window, and how many of the latest
#: windows a revisit draws from.
JUMP_SESSIONS = 2
JUMP_FRESH_FRAC = 0.25
JUMP_RECENT = 256


def slide(span: tuple[float, float], seed: int) -> Iterator[dict]:
    """Fig. 9's animation: a fixed-width window sliding back and forth.

    Each sweep crosses the whole span in :data:`SLIDE_STEPS` small steps
    and is offset by a seeded sub-step jitter, so no window ever
    repeats: the result cache never hits and the slice cursors always
    take the delta path.
    """
    rng = random.Random(seed)
    start, end = span
    width = (end - start) * SLIDE_WIDTH_FRAC
    step = ((end - start) - width) / SLIDE_STEPS
    forward = True
    while True:
        jitter = rng.uniform(0.05, 0.95) * step
        lows = [start + jitter + i * step for i in range(SLIDE_STEPS)]
        if not forward:
            lows.reverse()
        for lo in lows:
            yield {"op": "scrub", "start": lo, "end": lo + width}
        forward = not forward


def jump(span: tuple[float, float], seed: int, session: int
         ) -> Iterator[dict]:
    """Random windows revisited across sessions (the result cache's case).

    All :data:`JUMP_SESSIONS` sessions draw from one seeded window pool.
    Each request of session *session* is, with probability
    :data:`JUMP_FRESH_FRAC`, the session's next unseen pool window
    (sessions take interleaved pool indices); otherwise it revisits a
    window one of the sessions has already asked for, drawn from the
    :data:`JUMP_RECENT` latest.  About ``1 - JUMP_FRESH_FRAC`` of the
    requests therefore hit the shared result cache, half of those on
    another session's entry, whatever the phase length; the bounded
    revisit window keeps the working set far below the cache capacity.
    """
    pool_rng = random.Random(seed)
    start, end = span
    length = end - start
    pool: list[tuple[float, float]] = []

    def window(index: int) -> tuple[float, float]:
        while len(pool) <= index:
            width = pool_rng.uniform(length / 16.0, length / 4.0)
            lo = start + pool_rng.random() * (length - width)
            pool.append((lo, lo + width))
        return pool[index]

    rng = random.Random(seed * 1009 + session + 1)
    fresh = 0
    while True:
        if fresh == 0 or rng.random() < JUMP_FRESH_FRAC:
            index = JUMP_SESSIONS * fresh + session
            fresh += 1
        else:
            # Every session's windows of the rounds before the latest
            # (asked for already), or this session's own latest one.
            high = JUMP_SESSIONS * (fresh - 1)
            index = rng.randrange(max(0, high - JUMP_RECENT), high + 1)
            if index == high:
                index += session
        lo, hi = window(index)
        yield {"op": "scrub", "start": lo, "end": hi}


def drill(site_paths: list[tuple[str, ...]], seed: int) -> Iterator[dict]:
    """Structure changes from the depth-2 view.

    Repeats: expand a site (41 to 907 units), collapse it again, flip to
    depth 1 or 3, return to depth 2.  Each round visits every site once
    and flips to each depth equally often, in a seeded order, so every
    seed gives the same mix of costs.
    """
    rng = random.Random(seed)
    while True:
        sites = list(site_paths)
        rng.shuffle(sites)
        flips = [1, 3] * (len(sites) // 2) + [1] * (len(sites) % 2)
        rng.shuffle(flips)
        for site, depth in zip(sites, flips):
            path = list(site)
            yield {"op": "ungroup", "path": path}
            yield {"op": "group", "path": path}
            yield {"op": "depth", "depth": depth}
            yield {"op": "depth", "depth": SITE_DEPTH}
