"""Structured peer-to-peer overlays that CUP runs on.

The paper evaluates CUP on a two-dimensional "bare-bones" content-
addressable network (CAN) and notes that CUP applies equally to Chord,
Pastry and Tapestry — any overlay providing deterministic, bounded-hop
routing from a querying node to the authority node that owns a key.

This package provides:

* :class:`~repro.overlay.base.Overlay` — the minimal interface CUP needs
  (``authority``, ``next_hop``, ``route``, ``neighbors``).
* :class:`~repro.overlay.can.CanOverlay` — a d-dimensional CAN with zone
  splitting on join, takeover on leave, greedy torus routing, and a
  perfect-grid constructor matching the paper's n = 2^k experiments.
* :class:`~repro.overlay.chord.ChordOverlay` — a Chord ring with
  power-of-two finger routing.
* :mod:`~repro.overlay.hashing` — the uniform hash functions that map keys
  into each overlay's coordinate space.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "base": "Overlay RoutingError",
    "can": "CanNodeState CanOverlay Zone",
    "chord": "ChordOverlay",
    "hashing": "hash_to_int hash_to_unit_point",
    "pastry": "PastryOverlay",
})
