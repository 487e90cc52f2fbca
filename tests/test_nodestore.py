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
THIRD = "127.0.0.1:7003"


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
    assert restored.interest == (PEER,)
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
    daemon.members.add(THIRD)  # a membership change rewrites the base
    store.save(daemon)
    assert store.saves == 2
    assert sorted(store.load().cache.states) == ["k1", "k2"]
    # No stray temp files left behind by the atomic writer, and no log.
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
    live.waiting = (PEER,)
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
    assert restored.interest == (PEER,)
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


# ----------------------------------------------------------------------
# Base + log: what a tick writes, what a load replays
# ----------------------------------------------------------------------


def touch(daemon, store, key, seq, interest=None):
    """Mutate ``key`` the way a door would: change it, mark it dirty."""
    state = daemon.node.cache.get_or_create(key)
    state.apply_entry(fresh_entry(key, seq=seq))
    if interest is not None:
        state.register_interest(interest)
    store.dirty.add((key, None))


def sequences(state):
    return {key: max(e.sequence for e in key_state.entries.values())
            for key, key_state in state.cache.states.items()}


def test_base_is_rewritten_exactly_when_the_rule_says(tmp_path):
    daemon = make_daemon()
    store = NodeStore(tmp_path)
    base = tmp_path / nodestore.STATE_FILENAME
    log = tmp_path / nodestore.LOG_FILENAME

    assert store.save(daemon) == str(base)  # the first save of a process
    assert store.last_save_kind == "base" and not log.exists()

    before = (base.stat().st_mtime_ns, store.saves)
    assert store.save(daemon) == str(base)  # nothing dirty: nothing written
    assert (base.stat().st_mtime_ns, store.saves) == before
    assert not log.exists()

    touch(daemon, store, "k2", seq=1)
    assert store.save(daemon) == str(log)
    assert store.last_save_kind == "log" and store.log_records == 1
    assert base.stat().st_mtime_ns == before[0] and not store.dirty
    assert log.stat().st_size == store.log_bytes

    daemon.members.add(THIRD)  # patch_after_churn touches every key
    assert store.save(daemon) == str(base)
    assert store.last_save_kind == "base" and not log.exists()
    assert store.log_records == 0 and store.log_bytes == 0

    touch(daemon, store, "k2", seq=2)
    store.save(daemon)
    assert store.save(daemon, base=True) == str(base)  # graceful stop
    assert not log.exists()

    # The log outgrows the base: the save that finds it so folds it in.
    kinds = []
    for seq in range(3, 200):
        touch(daemon, store, "k2", seq=seq)
        outgrown = store.log_bytes > store.base_bytes
        store.save(daemon)
        kinds.append((outgrown, store.last_save_kind))
        if outgrown:
            break
    assert kinds[-1] == (True, "base")
    assert all(kind == (False, "log") for kind in kinds[:-1]) and kinds[:-1]
    assert sequences(NodeStore(tmp_path).load())["k2"] == seq


def test_load_replays_the_log_over_the_base(tmp_path):
    recovery = make_recovery()
    daemon = make_daemon(recovery=recovery)
    store = NodeStore(tmp_path)
    store.save(daemon)
    touch(daemon, store, "k1", seq=9)
    touch(daemon, store, "k2", seq=1, interest=PEER)
    recovery._send_seq[(PEER, "k2")] = 3
    recovery._recv_high[(PEER, "k1")] = 7
    recovery._recv_high[(PEER, "untouched")] = 5  # not dirty: not logged
    recovery.degraded_keys.add("k2")
    store.save(daemon)
    del daemon.node.cache.states["k2"]  # gone by the next tick
    recovery.degraded_keys.discard("k2")
    store.dirty.add(("k2", None))
    store.save(daemon)

    reader = NodeStore(tmp_path)
    state = reader.load(expect_node_id=SELF, expect_mode="cup")
    assert sequences(state) == {"k1": 9}
    assert state.recovery == {
        "send_seq": {(PEER, "k2"): 3},
        "recv_high": {(PEER, "k1"): 7},
        "degraded": [],
    }
    assert (reader.replayed, reader.log_records, reader.torn_dropped,
            reader.stale_dropped) == (2, 2, 0, 0)
    assert reader.report()["log_bytes"] == store.log_bytes > 0


def test_authority_slices_and_sequence_counters_ride_the_log(tmp_path):
    from repro.core.messages import ReplicaEvent, ReplicaMessage

    daemon = make_daemon()
    authority = daemon.node.authority_index
    store = NodeStore(tmp_path)
    store.save(daemon)

    def replica(event, key, replica_id):
        authority.apply_replica_message(
            ReplicaMessage(event, key, replica_id, "addr", 300.0), NOW)
        store.dirty.add((key, replica_id))

    replica(ReplicaEvent.BIRTH, "owned", "r1")
    replica(ReplicaEvent.REFRESH, "owned", "r1")
    replica(ReplicaEvent.BIRTH, "brief", "r2")  # born and dead in one tick
    replica(ReplicaEvent.DEATH, "brief", "r2")
    store.save(daemon)
    replica(ReplicaEvent.DEATH, "owned", "r1")
    store.save(daemon)

    restored = NodeStore(tmp_path).load().authority
    assert list(restored.keys()) == []
    # A counter restarted at 1 would make the next birth look stale.
    assert restored._sequences == authority._sequences == {
        ("owned", "r1"): 2, ("brief", "r2"): 1,
    }


def test_a_torn_or_corrupt_last_record_is_dropped_and_counted(tmp_path):
    daemon = make_daemon()
    store = NodeStore(tmp_path)
    store.save(daemon)
    touch(daemon, store, "k1", seq=5)
    store.save(daemon)
    whole = store.log_bytes  # the log up to the previous tick
    touch(daemon, store, "k1", seq=6)
    touch(daemon, store, "k2", seq=1)
    store.save(daemon)
    log = tmp_path / nodestore.LOG_FILENAME
    data = log.read_bytes()
    assert len(data) == store.log_bytes > whole

    def loaded():
        reader = NodeStore(tmp_path)
        return sequences(reader.load()), reader.replayed, \
            reader.torn_dropped

    assert loaded() == ({"k1": 6, "k2": 1}, 2, 0)
    for cut in range(whole, len(data)):  # every byte offset of the record
        log.write_bytes(data[:cut])
        assert loaded() == ({"k1": 5}, 1, int(cut > whole)), cut
    for offset in range(whole, len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 0x40
        log.write_bytes(bytes(flipped))
        assert loaded() == ({"k1": 5}, 1, 1), offset


def test_a_log_that_names_an_older_base_is_ignored(tmp_path):
    daemon = make_daemon()
    store = NodeStore(tmp_path)
    store.save(daemon)
    touch(daemon, store, "k1", seq=5)
    touch(daemon, store, "stale-only", seq=1)
    store.save(daemon)
    log = tmp_path / nodestore.LOG_FILENAME
    left_behind = log.read_bytes()
    # A crash between the new base's os.replace and the log's unlink.
    del daemon.node.cache.states["stale-only"]
    store.save(daemon, base=True)
    log.write_bytes(left_behind)

    reader = NodeStore(tmp_path)
    assert sequences(reader.load()) == {"k1": 5}
    assert (reader.replayed, reader.stale_dropped,
            reader.torn_dropped) == (0, 1, 0)
    # The next process starts from a base of its own and clears it away.
    reader.save(daemon)
    assert not log.exists()


def test_a_failed_append_starts_over_from_a_base(tmp_path):
    daemon = make_daemon()
    store = NodeStore(tmp_path)
    store.save(daemon)
    touch(daemon, store, "k2", seq=1)
    (tmp_path / nodestore.LOG_FILENAME).mkdir()  # open(..., "ab") fails
    with pytest.raises(OSError):
        store.save(daemon)
    assert store.dirty == {("k2", None)}  # nothing forgotten
    (tmp_path / nodestore.LOG_FILENAME).rmdir()
    store.save(daemon)
    assert store.last_save_kind == "base"
    assert sequences(NodeStore(tmp_path).load()) == {"k1": 4, "k2": 1}


def test_sanitize_blanks_what_only_timers_and_the_sweep_touch():
    daemon = make_daemon()
    live = daemon.node.cache.states["k1"]
    live.parent, live.distance, live.is_authority_here = PEER, 2, True
    live.clear_bit_sent = True
    live.min_expires = 0.0  # a stale-low bound the gc sweep would tighten
    state = state_from_blob(state_to_blob(capture_state(daemon)))
    sanitize_restored(state, now=NOW)
    restored = state.cache.states["k1"]
    assert (restored.parent, restored.distance,
            restored.is_authority_here, restored.clear_bit_sent) == (
        None, -1, False, False)
    assert restored.min_expires == restored.max_expires == NOW - 1.0 + 500.0
