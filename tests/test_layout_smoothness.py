"""Fig. 8-style transition-smoothness regression net.

:class:`DynamicLayout` survives view changes: an aggregated node must
appear at its members' centroid and a disaggregated member near its
former group.  These snapshots pin that seeding behavior for *both*
Barnes-Hut kernels — the in-process array kernel and the sharded one
with its worker pool forced on — so kernel work provably does not
change the transition semantics that keep the analyst oriented when
changing scale.
"""

import math

import pytest

from repro.core.aggregation import AggregatedEdge
from repro.core.layout import DynamicLayout
from repro.trace.entities import EntityTable
from repro.trace.trace import Entity
from tests.test_visgraph import hand_graph, node

#: The seeding jitter is uniform(-1, 1) per axis, so a seeded node may
#: land up to sqrt(2) away from its target; 2.5 leaves slack.
SEED_RADIUS = 2.5

#: The three hosts every graph below draws: one entity numbering, so
#: the layout's position memory carries over from graph to graph.
HOSTS = EntityTable.from_entities(Entity(name, "host") for name in "abc")


def detailed_graph():
    """Three hosts, a-b-c chain."""
    return hand_graph(
        [node("a"), node("b"), node("c")],
        [AggregatedEdge("a", "b"), AggregatedEdge("b", "c")],
        HOSTS,
    )


def collapsed_graph():
    """a and b collapsed into group g, still linked to c."""
    return hand_graph(
        [node("g", members=("a", "b")), node("c")],
        [AggregatedEdge("g", "c")],
        HOSTS,
    )


def dynamic(workers, seed):
    """A DynamicLayout on *workers* processes; above 1 the sharded
    kernel always uses its pool."""
    dyn = DynamicLayout(seed=seed, workers=workers)
    if workers > 1:
        dyn.layout.min_shard_bodies = 2  # these graphs have 2-3 nodes
    return dyn


@pytest.fixture
def make_dynamic(workers):
    """``make_dynamic(seed)`` on the test's worker count, closed
    afterwards."""
    made = []

    def make(seed):
        made.append(dynamic(workers, seed))
        return made[-1]

    yield make
    for dyn in made:
        dyn.close()


@pytest.mark.parametrize("workers", [1, 2], ids=["array", "sharded"])
class TestTransitionSeeding:
    def test_aggregated_node_starts_at_member_centroid(self, make_dynamic):
        dyn = make_dynamic(5)
        dyn.sync(detailed_graph())
        dyn.settle()
        ax, ay = dyn.position("a")
        bx, by = dyn.position("b")
        centroid = ((ax + bx) / 2.0, (ay + by) / 2.0)
        created = dyn.sync(collapsed_graph())
        assert set(created) == {"g"}
        gx, gy = created["g"]
        assert math.hypot(gx - centroid[0], gy - centroid[1]) < SEED_RADIUS

    def test_disaggregated_members_reappear_near_group(self, make_dynamic):
        dyn = make_dynamic(6)
        dyn.sync(collapsed_graph())
        dyn.settle()
        gx, gy = dyn.position("g")
        created = dyn.sync(detailed_graph())
        assert set(created) == {"a", "b"}
        for key in ("a", "b"):
            x, y = created[key]
            assert math.hypot(x - gx, y - gy) < SEED_RADIUS

    def test_survivors_keep_their_position_across_sync(self, make_dynamic):
        dyn = make_dynamic(7)
        dyn.sync(detailed_graph())
        dyn.settle()
        before = dyn.position("c")
        dyn.sync(collapsed_graph())
        assert dyn.position("c") == before

    def test_round_trip_returns_members_home(self, make_dynamic):
        """Collapse then expand: members come back near where they
        were, not at a random respawn."""
        dyn = make_dynamic(8)
        dyn.sync(detailed_graph())
        dyn.settle()
        home = {k: dyn.position(k) for k in ("a", "b")}
        dyn.sync(collapsed_graph())
        created = dyn.sync(detailed_graph())
        for key in ("a", "b"):
            x, y = created[key]
            hx, hy = home[key]
            # Group seeded at the members' centroid, members reseeded at
            # the group: total drift is bounded by two seeding hops plus
            # half the original a-b separation.
            ab = math.dist(home["a"], home["b"])
            assert math.hypot(x - hx, y - hy) < ab / 2.0 + 2 * SEED_RADIUS


def test_kernels_agree_on_seeding_decisions():
    """The array and sharded kernels produce the same created-node set
    and the same seeds, bit for bit, for the same transition script."""

    def script(workers):
        dyn = dynamic(workers, 9)
        try:
            dyn.sync(detailed_graph())
            dyn.settle(max_steps=30, tolerance=0.0)
            if workers > 1:
                assert dyn.layout.shard_stats["supersteps"] == 30
            return dyn.sync(collapsed_graph())
        finally:
            dyn.close()

    array = script(1)
    assert set(array) == {"g"}
    assert script(2) == array
