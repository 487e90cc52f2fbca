"""Node state store: warm-rejoin durability, load gates, sanitization."""

import json

import pytest

from repro.core.cache import NodeCache
from repro.core.entry import IndexEntry
from repro.core.recovery import RecoveryConfig, RecoveryManager
from repro.persistence import (
    CheckpointFormatError,
    FingerprintMismatch,
    NodeState,
    NodeStore,
    capture_state,
    sanitize_restored,
    state_from_blob,
    state_to_blob,
)
from repro.persistence import nodestore
from repro.persistence.checkpoint import FORMAT_VERSION
from repro.replicas.authority import AuthorityIndex

NOW = 1000.0
SELF = "127.0.0.1:7001"
PEER = "127.0.0.1:7002"


def fresh_entry(key, seq=1, lifetime=500.0, timestamp=NOW - 1.0):
    return IndexEntry(key=key, replica_id="r1", address="addr",
                      lifetime=lifetime, timestamp=timestamp,
                      sequence=seq)


class _StubConfig:
    def __init__(self, mode="cup"):
        self.mode = mode


class _StubClock:
    def __init__(self, now=NOW):
        self.now = now


class _StubNode:
    def __init__(self, cache, authority, recovery=None):
        self.cache = cache
        self.authority_index = authority
        self.recovery = recovery


class _StubDaemon:
    """The duck-typed surface capture_state() reads off a LiveNode."""

    def __init__(self, node, node_id=SELF, members=(SELF, PEER),
                 mode="cup", now=NOW):
        self.node = node
        self.node_id = node_id
        self.members = set(members)
        self.config = _StubConfig(mode)
        self.clock = _StubClock(now)


def make_daemon(recovery=None, **kwargs):
    cache = NodeCache()
    state = cache.get_or_create("k1")
    state.apply_entry(fresh_entry("k1", seq=4))
    state.register_interest(PEER)
    return _StubDaemon(_StubNode(cache, AuthorityIndex(), recovery),
                       **kwargs)


def make_recovery():
    # Only the watermark dictionaries matter to export/import; timers
    # and the transport are never touched by the durable path.
    return RecoveryManager(
        sim=None, transport=None, node_id=SELF, metrics=None,
        config=RecoveryConfig(), request_pull=lambda key: None,
    )


def _rewrite_header(blob, **changes):
    end = blob.find(b"\n", len(nodestore.MAGIC))
    header = json.loads(blob[len(nodestore.MAGIC):end])
    header.update(changes)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return nodestore.MAGIC + head + b"\n" + blob[end + 1:]


# ----------------------------------------------------------------------
# Round-trip
# ----------------------------------------------------------------------


def test_store_roundtrip(tmp_path):
    daemon = make_daemon()
    store = NodeStore(tmp_path)
    assert store.load() is None  # no snapshot yet -> cold start
    store.save(daemon)
    state = store.load(expect_node_id=SELF, expect_mode="cup")
    assert isinstance(state, NodeState)
    assert state.node_id == SELF
    assert state.members == (SELF, PEER)
    assert state.saved_at == NOW
    restored = state.cache.states["k1"]
    assert restored.interest == {PEER}
    assert max(e.sequence for e in restored.entries.values()) == 4


def test_restored_node_that_never_owned_a_key_accepts_its_first(tmp_path):
    from repro.core.messages import ReplicaEvent, ReplicaMessage, UpdateType

    store = NodeStore(tmp_path)
    store.save(make_daemon())  # its AuthorityIndex is on the shared empties
    state = store.load()
    assert sanitize_restored(state, NOW) == 1
    authority = state.authority
    assert list(authority.keys()) == [] and authority.entry_count() == 0
    birth = ReplicaMessage(ReplicaEvent.BIRTH, "k9", "k9/r0", "addr", 50.0)
    assert authority.apply_replica_message(birth, NOW).update_type == (
        UpdateType.APPEND
    )
    assert authority.owns("k9") and not AuthorityIndex().owns("k9")


def test_store_info_reads_header_without_payload(tmp_path):
    store = NodeStore(tmp_path)
    assert store.info() is None
    store.save(make_daemon())
    header = store.info()
    assert header["node_id"] == SELF
    assert header["keys"] == 1
    assert header["format"] == FORMAT_VERSION


def test_atomic_overwrite_keeps_single_loadable_file(tmp_path):
    daemon = make_daemon()
    store = NodeStore(tmp_path)
    store.save(daemon)
    daemon.node.cache.get_or_create("k2").apply_entry(fresh_entry("k2"))
    store.save(daemon)
    assert store.saves == 2
    assert sorted(store.load().cache.states) == ["k1", "k2"]
    # No stray temp files left behind by the atomic writer.
    assert [p.name for p in tmp_path.iterdir()] == [
        nodestore.STATE_FILENAME
    ]


# ----------------------------------------------------------------------
# Load gates
# ----------------------------------------------------------------------


def test_bad_magic_rejected():
    with pytest.raises(CheckpointFormatError, match="node state"):
        state_from_blob(b"NOTCUPND\n{}\npayload")


def test_unknown_format_version_rejected():
    blob = _rewrite_header(state_to_blob(capture_state(make_daemon())),
                           format=99)
    with pytest.raises(CheckpointFormatError, match="format 99"):
        state_from_blob(blob)


def test_fingerprint_mismatch_rejected_unless_overridden():
    blob = _rewrite_header(state_to_blob(capture_state(make_daemon())),
                           fingerprint="deadbeef")
    with pytest.raises(FingerprintMismatch):
        state_from_blob(blob)
    state = state_from_blob(blob, verify_fingerprint=False)
    assert state.node_id == SELF


def test_corrupt_payload_rejected(tmp_path):
    blob = state_to_blob(capture_state(make_daemon()))
    with pytest.raises(CheckpointFormatError, match="corrupt"):
        state_from_blob(blob[:-10])


def test_foreign_identity_rejected(tmp_path):
    store = NodeStore(tmp_path)
    store.save(make_daemon())
    with pytest.raises(CheckpointFormatError, match="belongs to node"):
        store.load(expect_node_id="127.0.0.1:9999")
    with pytest.raises(CheckpointFormatError, match="mode"):
        store.load(expect_node_id=SELF, expect_mode="standard")


# ----------------------------------------------------------------------
# Sanitization
# ----------------------------------------------------------------------


def test_sanitize_scrubs_volatile_state_and_keeps_fresh_keys():
    daemon = make_daemon()
    live = daemon.node.cache.states["k1"]
    live.pending_first_update = True
    live.pending_since = 123.0
    live.local_waiters = 3
    live.waiting = {PEER}
    live.parent_epoch = 7
    state = state_from_blob(state_to_blob(capture_state(daemon)))
    kept = sanitize_restored(state, now=NOW)
    assert kept == 1
    restored = state.cache.states["k1"]
    assert restored.pending_first_update is False
    assert restored.local_waiters == 0
    assert not restored.waiting
    assert restored.parent_epoch == -1
    # The durable bits survive: entries and interest.
    assert restored.interest == {PEER}
    assert restored.has_fresh(NOW)


def test_sanitize_drops_expired_and_empty_keys():
    daemon = make_daemon()
    cache = daemon.node.cache
    stale = cache.get_or_create("stale")
    stale.apply_entry(fresh_entry("stale", lifetime=1.0,
                                  timestamp=NOW - 500.0))
    state = state_from_blob(state_to_blob(capture_state(daemon)))
    kept = sanitize_restored(state, now=NOW)
    assert kept == 1
    assert "stale" not in state.cache.states
    assert "k1" in state.cache.states


# ----------------------------------------------------------------------
# Recovery watermarks ride along
# ----------------------------------------------------------------------


def test_recovery_watermarks_roundtrip_and_max_merge():
    recovery = make_recovery()
    recovery._send_seq[(PEER, "k1")] = 9
    recovery._recv_high[(PEER, "k1")] = 5
    recovery.degraded_keys.add("k9")
    daemon = make_daemon(recovery=recovery)
    state = state_from_blob(state_to_blob(capture_state(daemon)))
    assert state.recovery == {
        "send_seq": {(PEER, "k1"): 9},
        "recv_high": {(PEER, "k1"): 5},
        "degraded": ["k9"],
    }
    target = make_recovery()
    # Max-merge: a higher live watermark must not be rolled back by an
    # older snapshot, while missing links adopt the snapshot's value.
    target._send_seq[(PEER, "k1")] = 12
    target.import_state(state.recovery)
    assert target._send_seq[(PEER, "k1")] == 12
    assert target._recv_high[(PEER, "k1")] == 5
    assert "k9" in target.degraded_keys


def test_open_gaps_fold_into_degraded_on_export():
    recovery = make_recovery()
    recovery._recv_high[(PEER, "gap-key")] = 3
    recovery._gaps[(PEER, "gap-key")] = type(
        "G", (), {"missing": {1, 2}, "retries": 0, "timer": None}
    )()
    exported = recovery.export_state()
    assert "gap-key" in exported["degraded"]
