"""Force-directed layout parameters (Section 4.2).

The paper exposes exactly three knobs to the analyst, each driving one
physical law of the force model:

* **charge** — Coulomb repulsion constant between every pair of nodes;
  an aggregated node's charge is the sum of its members' (its weight),
  so groups push proportionally to what they contain;
* **spring** — Hooke attraction stiffness between *connected* nodes
  ("there is no difference in the value of this parameter when a node
  is connected to an aggregated node");
* **damping** — velocity decay, letting the analyst speed up or freeze
  convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from repro.errors import LayoutError

__all__ = ["LayoutParams"]

#: Integration step of every force layout.
TIMESTEP = 1.0

#: Per-step displacement cap, keeping the integrator stable when nodes
#: start very close to each other.
MAX_DISPLACEMENT = 25.0

#: Quadtree reuse threshold, as a fraction of the root cell's half-size:
#: the Barnes-Hut kernel keeps the tree from the previous relaxation
#: step until some body has drifted further than ``REBUILD_DRIFT *
#: root_half`` from its build-time spot (0 rebuilds every step).
REBUILD_DRIFT = 0.05


@dataclass(frozen=True)
class LayoutParams:
    """Parameters of the force model and its integrator.

    The integrator's step and displacement cap and the Barnes-Hut tree
    reuse threshold are the module constants :data:`TIMESTEP`,
    :data:`MAX_DISPLACEMENT` and :data:`REBUILD_DRIFT`.

    Parameters
    ----------
    charge:
        Coulomb constant; larger disperses the nodes ("higher their
        value, more disperse the nodes are in the view").
    spring:
        Hooke stiffness; larger pulls connected nodes together.
    spring_length:
        Natural length of every edge spring, in pixels.
    damping:
        Velocity multiplier in ``(0, 1]`` applied every step.
    theta:
        Barnes-Hut opening criterion: a cell of size *s* at distance *d*
        is approximated by its center of mass when ``s / d < theta``;
        0 degenerates to the exact O(n^2) computation.
    """

    charge: float = 800.0
    spring: float = 0.06
    spring_length: float = 40.0
    damping: float = 0.6
    theta: float = 0.7

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise LayoutError(
                    f"{field.name} must be finite, got {value!r}"
                )
        if self.charge < 0:
            raise LayoutError(f"charge must be >= 0, got {self.charge}")
        if self.spring < 0:
            raise LayoutError(f"spring must be >= 0, got {self.spring}")
        if self.spring_length <= 0:
            raise LayoutError(
                f"spring_length must be > 0, got {self.spring_length}"
            )
        if not 0 < self.damping <= 1:
            raise LayoutError(f"damping must be in (0, 1], got {self.damping}")
        if self.theta < 0:
            raise LayoutError(f"theta must be >= 0, got {self.theta}")

    def with_(self, **changes) -> "LayoutParams":
        """A copy with some parameters replaced (the sliders of Fig. 5)."""
        return replace(self, **changes)
