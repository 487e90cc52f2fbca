"""A d-dimensional content-addressable network (CAN).

This is the "bare-bones" CAN of Ratnasamy et al. (SIGCOMM 2001) that the
paper simulates (§3.2): the unit d-torus is partitioned into rectangular
zones, one owner node per zone; keys hash to points; the zone containing a
key's point makes its owner the *authority node* for that key; and queries
route greedily — each hop forwards to the neighbor whose zone is closest
to the key's point.

Two construction modes are provided:

* :meth:`CanOverlay.perfect_grid` describes the balanced 2^k-node grid
  the paper's experiments use (n = 2^k nodes, k = 3..12) by its two
  dimensions; zones are built the first time something reads them.
* :meth:`CanOverlay.join` / :meth:`CanOverlay.leave` implement incremental
  membership: joins split the zone containing a random point (the CAN
  bootstrap procedure), leaves hand zones to a neighbor — merging into a
  valid rectangle when possible, plain takeover otherwise.  These support
  the node arrival/departure behaviour of §2.9.

Zone boundaries always lie on dyadic rationals (splits halve an interval),
so floating-point comparisons of zone edges are exact.
"""

from __future__ import annotations

import functools
import time
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.overlay.base import InternTable, NodeId, Overlay, RoutingError
from repro.overlay.hashing import hash_to_unit_point

Point = Tuple[float, ...]


def _circle_distance(a: float, b: float) -> float:
    """Geodesic distance between two coordinates on the unit circle."""
    d = abs(a - b)
    return min(d, 1.0 - d)


class Zone:
    """A half-open axis-aligned box ``[lo_i, hi_i)`` in the unit d-torus.

    Zones never wrap around the 1.0 -> 0.0 seam (splits of ``[0, 1)``
    always produce seam-free boxes); *adjacency* between zones does
    consider the seam, because the coordinate space is a torus.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same dimensionality")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (0.0 <= a < b <= 1.0):
                raise ValueError(f"invalid zone extent in dim {i}: [{a}, {b})")
        self.lo = tuple(lo)
        self.hi = tuple(hi)

    # -- geometry ------------------------------------------------------

    @property
    def dims(self) -> int:
        return len(self.lo)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside this zone."""
        return all(a <= x < b for a, b, x in zip(self.lo, self.hi, point))

    def center(self) -> Point:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def torus_distance(self, point: Point) -> float:
        """Squared torus distance from the closest point of the zone.

        Zero when the zone contains ``point``.  Squared Euclidean distance
        is used (monotone with Euclidean, cheaper — routing only compares).
        """
        total = 0.0
        for a, b, x in zip(self.lo, self.hi, point):
            if a <= x < b:
                continue
            d = min(_circle_distance(x, a), _circle_distance(x, b))
            total += d * d
        return total

    # -- structure -----------------------------------------------------

    def longest_dim(self) -> int:
        """Dimension of greatest extent (lowest index wins ties).

        CAN splits along this dimension to keep zones square-ish.
        """
        extents = [b - a for a, b in zip(self.lo, self.hi)]
        return max(range(self.dims), key=lambda i: (extents[i], -i))

    def split(self, dim: Optional[int] = None) -> Tuple["Zone", "Zone"]:
        """Halve the zone along ``dim`` (default: the longest dimension)."""
        if dim is None:
            dim = self.longest_dim()
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lo2 = list(self.lo)
        hi1 = list(self.hi)
        lo2[dim] = mid
        hi1[dim] = mid
        return Zone(self.lo, hi1), Zone(lo2, self.hi)

    def abuts(self, other: "Zone") -> bool:
        """CAN adjacency: touching faces in exactly one dimension and
        overlapping (positive measure) in every other, seam included."""
        touch_dim = None
        for i in range(self.dims):
            a_lo, a_hi = self.lo[i], self.hi[i]
            b_lo, b_hi = other.lo[i], other.hi[i]
            overlap = min(a_hi, b_hi) - max(a_lo, b_lo) > 0.0
            full_a = a_hi - a_lo == 1.0
            full_b = b_hi - b_lo == 1.0
            if overlap or full_a or full_b:
                continue
            touches = (
                a_hi == b_lo
                or b_hi == a_lo
                or (a_hi == 1.0 and b_lo == 0.0)
                or (b_hi == 1.0 and a_lo == 0.0)
            )
            if touches and touch_dim is None:
                touch_dim = i
            else:
                return False
        return touch_dim is not None

    def try_merge(self, other: "Zone") -> Optional["Zone"]:
        """Merge with ``other`` into one rectangle, if geometry allows.

        Two zones merge when they have identical extents in all dimensions
        but one and abut (seam-free) in that dimension.  Returns the merged
        zone or ``None``.
        """
        diff_dim = None
        for i in range(self.dims):
            if self.lo[i] == other.lo[i] and self.hi[i] == other.hi[i]:
                continue
            if diff_dim is not None:
                return None
            diff_dim = i
        if diff_dim is None:
            return None
        if self.hi[diff_dim] == other.lo[diff_dim]:
            first, second = self, other
        elif other.hi[diff_dim] == self.lo[diff_dim]:
            first, second = other, self
        else:
            return None
        lo = list(first.lo)
        hi = list(first.hi)
        hi[diff_dim] = second.hi[diff_dim]
        return Zone(lo, hi)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Zone) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        spans = " x ".join(
            f"[{a:g},{b:g})" for a, b in zip(self.lo, self.hi)
        )
        return f"Zone({spans})"


class CanNodeState:
    """Ownership record for one CAN member.

    ``zones`` usually holds a single zone; takeover after an unmergeable
    departure can temporarily leave a node owning several (exactly as in
    CAN, where a node may manage extra zones until a background
    reassignment — which we model as persistent ownership).
    """

    __slots__ = ("node_id", "zones", "neighbors")

    def __init__(self, node_id: NodeId, zones: List[Zone]):
        self.node_id = node_id
        self.zones = zones
        self.neighbors: set = set()

    def contains(self, point: Point) -> bool:
        return any(zone.contains(point) for zone in self.zones)

    def distance(self, point: Point) -> float:
        return min(zone.torus_distance(point) for zone in self.zones)

    def volume(self) -> float:
        return sum(zone.volume() for zone in self.zones)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanNodeState({self.node_id!r}, zones={self.zones!r})"


class CanOverlay(Overlay):
    """The CAN overlay: membership, geometry and greedy routing.

    Parameters
    ----------
    dims:
        Dimensionality of the coordinate space.  The paper uses 2.

    Notes
    -----
    ``epoch`` increments on every membership change.  Protocol layers that
    cache routing decisions (CUP caches its upstream parent per key) use
    it to invalidate those caches after churn.

    Fast path: key points are interned (hashlib once per key string);
    grids built by :meth:`perfect_grid` resolve authorities by direct
    cell arithmetic instead of a zone scan until the first join/leave
    perturbs the grid; and ``next_hop`` decisions are memoized per
    (node, key) by the base class, invalidated on every epoch bump.

    A perfect grid is *only* arithmetic until something asks for an
    ownership record: membership is ``range(cols * rows)``, adjacency
    the four torus steps, and no ``Zone`` / ``CanNodeState`` / neighbor
    set exists (about 800 B a node that no churn-free run ever reads).
    The first read of :attr:`_nodes` — a join, a leave, :meth:`state`,
    a zone scan — builds them all, once, and from then on the overlay is
    the object an eager build would have produced.
    """

    def __init__(self, dims: int = 2):
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        super().__init__()
        self.dims = dims
        # Ownership records; read through ``_nodes`` everywhere but in
        # the accessors that can answer for a still-arithmetic grid.
        self._records: Dict[NodeId, CanNodeState] = {}
        # A partial, not a lambda, so the overlay stays picklable for
        # checkpoints; ``dims`` is fixed at construction.
        self._key_point = InternTable(
            functools.partial(hash_to_unit_point, dims=self.dims)
        )
        # (cols, rows) while the membership is exactly a perfect_grid
        # construction; None once churn breaks the regular geometry.
        self._grid: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def perfect_grid(cls, num_nodes: int, dims: int = 2) -> "CanOverlay":
        """Build the balanced grid used by the paper's 2^k experiments.

        For two dimensions and ``num_nodes = 2**k`` this yields a
        ``2**ceil(k/2) x 2**floor(k/2)`` torus grid of equal square-ish
        zones — the geometry a CAN converges to under uniformly random
        joins, without simulating the join sequence.  Node ids are the
        integers ``0..num_nodes-1`` in row-major order.
        """
        if dims != 2:
            raise ValueError("perfect_grid currently supports dims=2 only")
        if num_nodes < 1 or num_nodes & (num_nodes - 1):
            raise ValueError(f"num_nodes must be a power of two, got {num_nodes}")
        k = num_nodes.bit_length() - 1
        cols = 1 << ((k + 1) // 2)
        rows = 1 << (k // 2)
        overlay = cls(dims=dims)
        overlay.epoch += 1
        overlay._grid = (cols, rows)
        return overlay

    @property
    def _nodes(self) -> Dict[NodeId, CanNodeState]:
        """The ownership records, built on first read for a perfect grid.

        Need is the only trigger, and building is idempotent: a grid
        shared as a leased topology snapshot may be materialised by
        whichever reader gets there first.
        """
        if self._unbuilt_grid() is not None:
            self._materialise_grid()
        return self._records

    def _unbuilt_grid(self) -> Optional[Tuple[int, int]]:
        """``(cols, rows)`` while the grid's records are still unbuilt."""
        return None if self._records else self._grid

    def _materialise_grid(self) -> None:
        """Build every zone, record and neighbor set of the grid, row-major."""
        started = time.perf_counter()
        cols, rows = self._grid
        records = self._records
        for r in range(rows):
            for c in range(cols):
                node_id = r * cols + c
                zone = Zone(
                    (c / cols, r / rows),
                    ((c + 1) / cols, (r + 1) / rows),
                )
                state = records[node_id] = CanNodeState(node_id, [zone])
                state.neighbors = self._grid_neighbors(node_id, cols, rows)
        self._count_table_build(started)

    @staticmethod
    def _grid_neighbors(node_id: int, cols: int, rows: int) -> set:
        """The torus neighbors of one grid cell, as a fresh set.

        Insertion order is part of the contract: seeded link-jitter
        draws and the keep-alive monitors iterate this set, so the
        arithmetic answer and the materialised record must be built by
        the same four steps in the same order.
        """
        r, c = divmod(node_id, cols)
        neighbors: set = set()
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            neighbor = ((r + dr) % rows) * cols + (c + dc) % cols
            if neighbor != node_id:
                neighbors.add(neighbor)
        return neighbors

    def add_first_node(self, node_id: NodeId) -> None:
        """Bootstrap the overlay: one node owning the entire space."""
        if self._nodes:
            raise ValueError("overlay already bootstrapped; use join()")
        zone = Zone((0.0,) * self.dims, (1.0,) * self.dims)
        self._nodes[node_id] = CanNodeState(node_id, [zone])
        self._membership_changed()

    def join(self, node_id: NodeId, point: Optional[Point] = None) -> NodeId:
        """Add ``node_id``, splitting the zone that contains ``point``.

        ``point`` defaults to the hash of the node id, mirroring a joining
        CAN node picking a random point.  Returns the node whose zone was
        split (the new node's first neighbor), so protocol layers can
        perform the §2.9 handover of index entries from that node.
        """
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} is already a member")
        if not self._nodes:
            self.add_first_node(node_id)
            return node_id
        if point is None:
            point = hash_to_unit_point(str(node_id), self.dims, salt="join")
        owner = self._owner_of(point)
        owner_state = self._nodes[owner]
        zone_idx = next(
            i for i, z in enumerate(owner_state.zones) if z.contains(point)
        )
        old_zone = owner_state.zones[zone_idx]
        first_half, second_half = old_zone.split()
        if first_half.contains(point):
            new_zone, kept_zone = first_half, second_half
        else:
            new_zone, kept_zone = second_half, first_half
        owner_state.zones[zone_idx] = kept_zone
        self._nodes[node_id] = CanNodeState(node_id, [new_zone])
        self._recompute_neighbors({node_id, owner} | set(owner_state.neighbors))
        self._membership_changed()
        return owner

    def leave(self, node_id: NodeId) -> List[Tuple[NodeId, Zone]]:
        """Remove ``node_id``; neighbors take over its zones.

        For each departing zone, a neighbor whose zone merges into a valid
        rectangle absorbs it; otherwise the smallest-volume neighbor takes
        it over as an extra zone.  Returns ``(taker, zone)`` pairs so the
        protocol layer can transfer index entries (§2.9).
        """
        state = self._nodes.get(node_id)
        if state is None:
            raise ValueError(f"node {node_id!r} is not a member")
        del self._nodes[node_id]
        takers: List[Tuple[NodeId, Zone]] = []
        affected = set(state.neighbors)
        if not self._nodes:
            self._membership_changed()
            return takers
        for zone in state.zones:
            taker = self._find_taker(zone, state.neighbors)
            taker_state = self._nodes[taker]
            merged = None
            for i, existing in enumerate(taker_state.zones):
                merged = existing.try_merge(zone)
                if merged is not None:
                    taker_state.zones[i] = merged
                    break
            if merged is None:
                taker_state.zones.append(zone)
            takers.append((taker, zone))
            affected.add(taker)
            affected.update(taker_state.neighbors)
        for other in self._nodes.values():
            other.neighbors.discard(node_id)
        self._recompute_neighbors(affected & set(self._nodes))
        self._membership_changed()
        return takers

    def _find_taker(self, zone: Zone, candidates: Iterable[NodeId]) -> NodeId:
        """Pick who absorbs a departing zone: mergeable first, then smallest."""
        members = [c for c in candidates if c in self._nodes]
        if not members:
            # Degenerate topology (e.g. two-node network): fall back to any
            # member adjacent to the zone, then to any member at all.
            members = [
                nid for nid, st in self._nodes.items()
                if any(zone.abuts(z) or z.abuts(zone) for z in st.zones)
            ] or list(self._nodes)
        mergeable = [
            c for c in members
            if any(z.try_merge(zone) is not None for z in self._nodes[c].zones)
        ]
        pool = mergeable if mergeable else members
        return min(pool, key=lambda c: (self._nodes[c].volume(), str(c)))

    def _recompute_neighbors(self, affected: Iterable[NodeId]) -> None:
        """Rebuild adjacency for ``affected`` nodes against all members.

        Membership events only change adjacency locally, so the affected
        set stays small; the scan against all members keeps correctness
        simple (churn is rare relative to queries).
        """
        for node_id in affected:
            state = self._nodes.get(node_id)
            if state is None:
                continue
            new_neighbors = set()
            for other_id, other in self._nodes.items():
                if other_id == node_id:
                    continue
                if any(
                    mine.abuts(theirs)
                    for mine in state.zones
                    for theirs in other.zones
                ):
                    new_neighbors.add(other_id)
            removed = state.neighbors - new_neighbors
            added = new_neighbors - state.neighbors
            state.neighbors = new_neighbors
            for other_id in removed:
                other = self._nodes.get(other_id)
                if other is not None:
                    other.neighbors.discard(node_id)
            for other_id in added:
                self._nodes[other_id].neighbors.add(node_id)

    def _invalidate_tables(self) -> None:
        self._grid = None

    # ------------------------------------------------------------------
    # Overlay interface
    # ------------------------------------------------------------------

    def node_ids(self) -> Collection[NodeId]:
        grid = self._unbuilt_grid()
        if grid is not None:
            return range(grid[0] * grid[1])
        return self._records.keys()

    def neighbors(self, node_id: NodeId) -> Iterable[NodeId]:
        grid = self._unbuilt_grid()
        if grid is not None:
            if node_id not in range(grid[0] * grid[1]):
                raise KeyError(node_id)
            return self._grid_neighbors(node_id, *grid)
        return self._records[node_id].neighbors

    def state(self, node_id: NodeId) -> CanNodeState:
        """Ownership record (zones + neighbors) for ``node_id``."""
        return self._nodes[node_id]

    def key_point(self, key: str) -> Point:
        """The coordinate-space point ``key`` hashes to (interned)."""
        return self._key_point(key)

    def _compute_authority(self, key: str) -> NodeId:
        return self._owner_of(self.key_point(key))

    def _owner_of(self, point: Point) -> NodeId:
        if self._grid is not None:
            # Perfect-grid fast path: zone edges sit at c/cols (cols a
            # power of two), and multiplying a float by a power of two is
            # exact in binary floating point, so the cell arithmetic
            # reproduces the zone-containment test bit for bit.
            cols, rows = self._grid
            col = int(point[0] * cols)
            row = int(point[1] * rows)
            if 0 <= col < cols and 0 <= row < rows:
                return row * cols + col
            # Out-of-cube point (caller error): fall through to the scan,
            # which raises the canonical RoutingError.
        return self._owner_of_scan(point)

    def _owner_of_scan(self, point: Point) -> NodeId:
        """Reference ownership resolution: linear scan of every zone."""
        for node_id, state in self._nodes.items():
            if state.contains(point):
                return node_id
        raise RoutingError(f"no zone contains point {point} (empty overlay?)")

    def authority_reference(self, key: str) -> NodeId:
        """The specification: zone scan, uninterned point, no memo."""
        return self._owner_of_scan(hash_to_unit_point(key, self.dims))

    def _compute_next_hop(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        grid = self._grid
        if (
            grid is not None
            and isinstance(node_id, int)
            and 0 <= node_id < grid[0] * grid[1]
        ):
            return self._grid_next_hop(node_id, key, grid)
        nodes = self._nodes
        state = nodes.get(node_id)
        if state is None:
            raise RoutingError(f"node {node_id!r} is not a member")
        point = self.key_point(key)
        if state.contains(point):
            return None
        my_distance = state.distance(point)
        best: Optional[NodeId] = None
        best_rank: Tuple[float, str] = (float("inf"), "")
        for neighbor_id in state.neighbors:
            neighbor = nodes.get(neighbor_id)
            if neighbor is None:
                continue
            d = neighbor.distance(point)
            if d >= my_distance:
                continue
            rank = (d, str(neighbor_id))
            if rank < best_rank:
                best_rank = rank
                best = neighbor_id
        if best is None:
            raise RoutingError(
                f"greedy routing stuck at {node_id!r} for key {key!r} "
                f"(distance {my_distance:g}, {len(state.neighbors)} neighbors)"
            )
        return best

    def _grid_next_hop(
        self, node_id: int, key: str, grid: Tuple[int, int]
    ) -> Optional[NodeId]:
        """Greedy next hop by pure cell arithmetic on the perfect grid.

        Bit-for-bit equivalent to the generic zone walk above: every
        zone edge of a :meth:`perfect_grid` sits at ``c / cols`` with
        ``cols`` a power of two, so the containment test, the squared
        torus distances (same float expressions, same summation order)
        and the ``(distance, str(id))`` tie-break all reproduce the
        generic computation exactly — it just skips the per-zone object
        walk, which is a first-touch cost paid once per (node, key) and
        grows linearly with N.  The property suite referees this against
        ``next_hop_reference``.
        """
        cols, rows = grid
        x, y = self._key_point(key)
        # Multiplying by a power of two is exact, so the cell indices
        # reproduce the half-open zone-containment test bit for bit.
        target_col = int(x * cols)
        target_row = int(y * rows)
        row, col = divmod(node_id, cols)
        if target_col == col and target_row == row:
            return None
        my_distance = self._cell_distance(col, row, x, y, cols, rows)
        best: Optional[NodeId] = None
        best_rank: Tuple[float, str] = (float("inf"), "")
        for neighbor_row, neighbor_col in {
            (row, (col + 1) % cols),
            (row, (col - 1) % cols),
            ((row + 1) % rows, col),
            ((row - 1) % rows, col),
        }:
            if neighbor_row == row and neighbor_col == col:
                continue
            d = self._cell_distance(
                neighbor_col, neighbor_row, x, y, cols, rows
            )
            if d >= my_distance:
                continue
            neighbor_id = neighbor_row * cols + neighbor_col
            rank = (d, str(neighbor_id))
            if rank < best_rank:
                best_rank = rank
                best = neighbor_id
        if best is None:
            raise RoutingError(
                f"greedy routing stuck at {node_id!r} for key {key!r} "
                f"(distance {my_distance:g}, grid {cols}x{rows})"
            )
        return best

    @staticmethod
    def _cell_distance(
        col: int, row: int, x: float, y: float, cols: int, rows: int
    ) -> float:
        """Squared torus distance from grid cell ``(col, row)`` to a point.

        The same float expressions :meth:`Zone.torus_distance` evaluates
        for the cell's zone, inlined: per dimension, zero inside the
        half-open extent, else the nearer circle distance to either
        edge, squared and summed in dimension order.
        """
        lo = col / cols
        hi = (col + 1) / cols
        if lo <= x < hi:
            dx = 0.0
        else:
            d1 = abs(x - lo)
            if 1.0 - d1 < d1:
                d1 = 1.0 - d1
            d2 = abs(x - hi)
            if 1.0 - d2 < d2:
                d2 = 1.0 - d2
            dx = d2 if d2 < d1 else d1
        lo = row / rows
        hi = (row + 1) / rows
        if lo <= y < hi:
            dy = 0.0
        else:
            d1 = abs(y - lo)
            if 1.0 - d1 < d1:
                d1 = 1.0 - d1
            d2 = abs(y - hi)
            if 1.0 - d2 < d2:
                d2 = 1.0 - d2
            dy = d2 if d2 < d1 else d1
        return dx * dx + dy * dy
