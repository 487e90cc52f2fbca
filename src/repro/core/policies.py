"""Incentive-based cut-off policies (§3.4 of the paper).

On receiving an update for a key, a node with no interested downstream
neighbors decides whether there is incentive to keep receiving updates;
if not, it pushes a Clear-Bit message upstream.  The incentive is the
key's *popularity* — the number of queries received since the last
cut-off-relevant update.

The paper examines two families:

* **Probability-based** thresholds approximate the chance an update at
  distance ``D`` from the authority is justified: the *linear* policy
  keeps receiving iff ``popularity >= alpha * D``; the *logarithmic*
  policy iff ``popularity >= alpha * lg(D)``.
* **Log-based** policies look at the recent history of update arrivals:
  if the last ``strikes_to_cut`` consecutive update intervals saw no
  queries, cut off.  *Second-chance* is the member of this family the
  paper recommends: one query-less interval earns a second chance, a
  second consecutive one triggers the clear-bit (the paper labels this
  n=3 counting the bounding updates; the behaviour is identical).

Policies also govern the *forwarding* side: the push-level experiments of
§3.3 propagate every update down the real query tree but only to nodes
within ``p`` hops of the authority.  :class:`AllOutPolicy` with a
``push_level`` models exactly that.

Policy objects are shared across all nodes of a simulation and hold no
per-key state themselves; what they keep per key lives in
``KeyState.policy_state``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Optional

from repro.core.cache import KeyState


class CutoffPolicy(ABC):
    """Decides when a node stops receiving and stops forwarding updates."""

    #: Human-readable name used in reports and tables.
    name: str = "abstract"

    #: Whether decisions need the node's hop distance from the authority.
    #: Policies that don't (e.g. second-chance — the paper highlights its
    #: distance independence) let nodes skip route-length computation.
    needs_distance: bool = False

    def new_state(self) -> Any:
        """Fresh per-key mutable bookkeeping (stored on the KeyState)."""
        return None

    def observe_update(self, state: KeyState) -> None:
        """Hook invoked on every cut-off-relevant update arrival, *before*
        :meth:`should_keep_receiving`, so history-based policies can
        account the elapsed interval."""

    @abstractmethod
    def should_keep_receiving(self, state: KeyState, distance: int) -> bool:
        """Whether the key is popular enough to keep the updates coming.

        Evaluated only when the node has no interested downstream
        neighbors (§2.6 case 2); ``distance`` is the node's hop count to
        the authority (only meaningful when :attr:`needs_distance`).
        """

    def may_forward(self, distance: int) -> bool:
        """Whether a node at ``distance`` may push updates one hop further.

        Default: always (propagation is bounded by interest bits and the
        receiving side's cut-offs, not by the sender).
        """
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class AllOutPolicy(CutoffPolicy):
    """Propagate every update to every interested node — optionally capped
    at a push level.

    With ``push_level=None`` this is the paper's "all-out" strategy
    (§3.1): minimum latency, overhead be damned.  With ``push_level=p``
    updates reach only nodes within ``p`` hops of the authority — the
    configuration swept by Figures 3 and 4.  ``push_level=0`` squelches
    all maintenance updates at the authority, which *is* standard caching.
    """

    def __init__(self, push_level: Optional[int] = None):
        if push_level is not None and push_level < 0:
            raise ValueError(f"push_level must be >= 0, got {push_level}")
        self.push_level = push_level
        self.name = (
            "all-out" if push_level is None else f"push-level-{push_level}"
        )
        self.needs_distance = push_level is not None

    def should_keep_receiving(self, state: KeyState, distance: int) -> bool:
        return True

    def may_forward(self, distance: int) -> bool:
        if self.push_level is None:
            return True
        # A node at distance D forwards to children at D + 1; cap there.
        return distance + 1 <= self.push_level


class LinearPolicy(CutoffPolicy):
    """Probability-based cut-off with a linear distance threshold.

    Keep receiving iff at least ``alpha * D`` queries arrived since the
    last update, where ``D`` is the node's distance from the authority.
    The further from the authority, the more queries it takes to justify
    the longer propagation path.
    """

    needs_distance = True

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.name = f"linear(alpha={alpha:g})"

    def should_keep_receiving(self, state: KeyState, distance: int) -> bool:
        return state.popularity >= self.alpha * distance


class LogarithmicPolicy(CutoffPolicy):
    """Probability-based cut-off with a logarithmic distance threshold.

    Keep receiving iff ``popularity >= alpha * lg(D)``.  More lenient
    than linear: the threshold grows slowly as updates travel away from
    the root, so distant nodes are not starved as aggressively.
    """

    needs_distance = True

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.name = f"log(alpha={alpha:g})"

    def should_keep_receiving(self, state: KeyState, distance: int) -> bool:
        threshold = self.alpha * math.log2(distance) if distance > 1 else 0.0
        return state.popularity >= threshold


class LogBasedPolicy(CutoffPolicy):
    """History-based cut-off: cut after ``strikes_to_cut`` consecutive
    update arrivals with zero queries in between.

    Adapts to the *timing* of queries within the workload instead of to
    network distance, which is why the paper finds it tracks shifts in
    key popularity that probability-based policies miss.  The strike
    count is the int in ``KeyState.policy_state`` (``None`` reads as 0).
    """

    def __init__(self, strikes_to_cut: int, name: Optional[str] = None):
        if strikes_to_cut < 1:
            raise ValueError(
                f"strikes_to_cut must be >= 1, got {strikes_to_cut}"
            )
        self.strikes_to_cut = strikes_to_cut
        self.name = name or f"log-based(n={strikes_to_cut})"

    def observe_update(self, state: KeyState) -> None:
        if state.popularity > 0:
            state.policy_state = 0
        else:
            state.policy_state = (state.policy_state or 0) + 1

    def should_keep_receiving(self, state: KeyState, distance: int) -> bool:
        return (state.policy_state or 0) < self.strikes_to_cut


class SecondChancePolicy(LogBasedPolicy):
    """The paper's recommended policy (§3.4).

    When an update arrives and no queries were seen since the previous
    update, the key gets a "second chance"; if the next update still
    finds no queries, the node cuts off.  The two pushed updates cost the
    parent two hops — exactly what one saved query miss (one hop up, one
    hop down) recovers, so the grace period is self-financing.
    """

    def __init__(self) -> None:
        super().__init__(strikes_to_cut=2, name="second-chance")


def make_policy(spec: str) -> CutoffPolicy:
    """Build a policy from a compact string spec (CLI / config files).

    Accepted forms::

        all-out            push everything everywhere
        push-level:P       all-out capped at push level P
        linear:A           linear threshold with alpha = A
        log:A              logarithmic threshold with alpha = A
        log-based:N        cut after N query-less update intervals
        second-chance      the paper's recommended policy
    """
    spec = spec.strip().lower()
    if spec in ("all-out", "allout", "all_out"):
        return AllOutPolicy()
    if spec in ("second-chance", "secondchance", "second_chance"):
        return SecondChancePolicy()
    if ":" in spec:
        head, _, arg = spec.partition(":")
        head = head.strip()
        arg = arg.strip()
        if head in ("push-level", "push_level", "pushlevel"):
            return AllOutPolicy(push_level=int(arg))
        if head == "linear":
            return LinearPolicy(alpha=float(arg))
        if head in ("log", "logarithmic"):
            return LogarithmicPolicy(alpha=float(arg))
        if head in ("log-based", "log_based", "logbased"):
            return LogBasedPolicy(strikes_to_cut=int(arg))
    raise ValueError(f"unrecognized policy spec: {spec!r}")
