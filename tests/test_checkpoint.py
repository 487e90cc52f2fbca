"""Durable snapshots with deterministic restart.

The referee test is the heart of this file: for every built-in scenario
(chaos included) a straight run and a snapshotted / torn-down /
restored / finished run must produce **byte-identical** summaries, with
the restored network passing the full consistency audit.  Around it:
the checkpoint file format (magic, header, fingerprint gate, atomic
write), auto-checkpointing during ``run()`` (cadence must not perturb
results), and the recovery state machine surviving a snapshot taken
mid-backoff with gaps open and retry timers armed.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import CupConfig, CupNetwork
from repro.persistence import (
    DEFAULT_EVERY_EVENTS,
    CheckpointError,
    CheckpointFormatError,
    FingerprintMismatch,
    checkpoint_info,
    load_checkpoint,
    restore_network,
    save_checkpoint,
    snapshot_network,
    verify_restored,
)
from repro.persistence.checkpoint import FORMAT_VERSION, MAGIC
from repro.scenarios import SCENARIOS, Quiet, Scenario, with_chaos
from repro.sim.engine import SimulatorError


def canonical(summary) -> bytes:
    """The byte form the referee compares (sorted-keys JSON)."""
    return json.dumps(summary.to_dict(), sort_keys=True).encode()


def build_network(scenario, seed=42, invariants=True):
    config = scenario.build_config(seed=seed)
    network = CupNetwork(config)
    if invariants:
        network.attach_invariants(
            hazards=scenario.hazards(),
            check_interval=30.0,
            raise_immediately=False,
        )
    scenario.compile_onto(network)
    return network


def tiny_config(**overrides) -> CupConfig:
    base = dict(
        num_nodes=16, total_keys=2, query_rate=2.0, seed=11,
        entry_lifetime=40.0, query_start=60.0, query_duration=120.0,
        drain=60.0, gc_interval=40.0,
    )
    base.update(overrides)
    return CupConfig(**base)


# ----------------------------------------------------------------------
# The referee: straight ≡ snapshot / tear down / restore / finish
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_referee_snapshot_restore_finish(name):
    scenario = SCENARIOS[name]
    straight = build_network(scenario)
    expected = straight.run()
    assert straight.invariants.ok, straight.invariants.report()

    resumed = build_network(scenario)
    cut = scenario.build_config(seed=42).sim_end * 0.5
    assert resumed.run(until=cut) is None  # partial runs return nothing
    blob = snapshot_network(resumed)
    del resumed  # the original is gone; only the bytes survive

    restored = restore_network(blob)
    assert verify_restored(restored) == []
    summary = restored.run()
    assert canonical(summary) == canonical(expected)
    assert restored.invariants.ok, restored.invariants.report()


def test_referee_holds_under_chaos_transport():
    scenario = with_chaos(SCENARIOS["partition-heal"], loss=0.15,
                          duplicate=0.1, jitter=0.05)
    expected = build_network(scenario).run()
    resumed = build_network(scenario)
    resumed.run(until=scenario.build_config(seed=42).sim_end * 0.6)
    restored = restore_network(snapshot_network(resumed))
    verify_restored(restored)
    assert canonical(restored.run()) == canonical(expected)


def test_snapshot_does_not_perturb_the_run():
    """Snapshotting is read-only: a run with a mid-run snapshot taken
    (and discarded) finishes exactly like one without."""
    scenario = SCENARIOS["steady-state"]
    expected = build_network(scenario).run()
    observed_net = build_network(scenario)
    observed_net.run(until=150.0)
    snapshot_network(observed_net)  # taken and dropped
    assert canonical(observed_net.run()) == canonical(expected)


# ----------------------------------------------------------------------
# File format and gates
# ----------------------------------------------------------------------


def test_checkpoint_file_roundtrip(tmp_path):
    net = CupNetwork(tiny_config())
    net.run(until=100.0)
    path = tmp_path / "deep" / "run.ckpt"
    assert save_checkpoint(net, path) == os.fspath(path)

    info = checkpoint_info(path)
    assert info["format"] == FORMAT_VERSION
    assert info["sim_now"] == pytest.approx(100.0)
    assert info["num_nodes"] == 16
    assert info["seed"] == 11

    expected = CupNetwork(tiny_config()).run()
    resumed = load_checkpoint(path).run()
    assert canonical(resumed) == canonical(expected)


def test_bad_magic_and_format_version_rejected():
    net = CupNetwork(tiny_config())
    blob = snapshot_network(net)
    with pytest.raises(CheckpointFormatError):
        restore_network(b"not a checkpoint")
    header, payload = blob[len(MAGIC):].split(b"\n", 1)
    forged = json.loads(header)
    forged["format"] = FORMAT_VERSION + 1
    reblob = MAGIC + json.dumps(forged, sort_keys=True).encode() + b"\n" + payload
    with pytest.raises(CheckpointFormatError):
        restore_network(reblob)


def test_fingerprint_mismatch_blocks_resume():
    net = CupNetwork(tiny_config())
    blob = snapshot_network(net)
    header, payload = blob[len(MAGIC):].split(b"\n", 1)
    forged = json.loads(header)
    forged["fingerprint"] = "0" * 16
    reblob = MAGIC + json.dumps(forged, sort_keys=True).encode() + b"\n" + payload
    with pytest.raises(FingerprintMismatch):
        restore_network(reblob)
    # Forensic override still loads.
    assert restore_network(reblob, verify_fingerprint=False).sim.now == 0.0


def test_verify_restored_catches_corruption():
    net = build_network(SCENARIOS["steady-state"])
    net.run(until=150.0)
    restored = restore_network(snapshot_network(net))
    node = next(iter(restored.nodes.values()))
    state = next(iter(node.cache.states.values()))
    state.local_waiters = -1
    with pytest.raises(CheckpointError, match="negative local waiter"):
        verify_restored(restored)


# ----------------------------------------------------------------------
# Auto-checkpointing in the run loop
# ----------------------------------------------------------------------


def test_auto_checkpoint_writes_and_never_perturbs(tmp_path):
    expected = CupNetwork(tiny_config()).run()

    path = tmp_path / "auto.ckpt"
    net = CupNetwork(tiny_config())
    net.enable_checkpoints(path, every_events=100)
    assert canonical(net.run()) == canonical(expected)
    assert path.exists()

    # The file holds a usable mid-run state: resuming finishes to the
    # same bytes — the CI kill-resume drill in script form.
    info = checkpoint_info(path)
    assert info["sim_now"] <= info["sim_end"]
    resumed = load_checkpoint(path)
    assert canonical(resumed.run()) == canonical(expected)


def test_event_cadence_checkpoint_header_reads_the_clock_mid_run(tmp_path):
    plain = CupNetwork(tiny_config())
    plain.run()
    total = plain.sim.events_processed
    path = tmp_path / "once.ckpt"
    net = CupNetwork(tiny_config())
    net.enable_checkpoints(path, every_events=total // 2 + 1)  # one hook
    net.run()
    info = checkpoint_info(path)
    assert info["events_processed"] == total // 2 + 1
    assert 0.0 < info["sim_now"] < info["sim_end"]
    assert load_checkpoint(path).sim.now == info["sim_now"]


def test_auto_checkpoint_by_simulated_seconds(tmp_path):
    expected = CupNetwork(tiny_config()).run()
    path = tmp_path / "auto.ckpt"
    net = CupNetwork(tiny_config())
    net.enable_checkpoints(path, every_seconds=25.0)
    assert canonical(net.run()) == canonical(expected)
    assert path.exists()


def test_checkpoint_config_knobs(tmp_path):
    expected = CupNetwork(tiny_config()).run()
    net = CupNetwork(tiny_config())
    net.enable_checkpoints(tmp_path / "cfg.ckpt")
    assert net._checkpoint_every_events == DEFAULT_EVERY_EVENTS >= 1
    assert canonical(net.run()) == canonical(expected)
    for bad in (dict(every_events=0), dict(every_seconds=-1.0)):
        net = CupNetwork(tiny_config())
        net.enable_checkpoints(tmp_path / "bad.ckpt", **bad)
        with pytest.raises(SimulatorError):
            net.run()
        assert not (tmp_path / "bad.ckpt").exists()


# ----------------------------------------------------------------------
# State that does not exist yet: unbuilt grid zones, node-level empties
# ----------------------------------------------------------------------


def test_unbuilt_grid_restores_unbuilt_and_churns_like_straight():
    def churn_and_finish(network):
        network.leave_node(5)
        network.join_node("latecomer")
        network.run(until=130.0)
        network.leave_node(9, graceful=False)
        return network.run()

    straight = CupNetwork(tiny_config())
    straight.run(until=100.0)
    restored = restore_network(snapshot_network(straight))
    verify_restored(restored)
    # No healthy run reads a zone, so none was built or pickled.
    assert straight.overlay.table_builds == 0
    assert restored.overlay.table_builds == 0
    expected = churn_and_finish(straight)
    assert canonical(churn_and_finish(restored)) == canonical(expected)
    assert restored.overlay.table_builds == 1  # built once, by the leave
    assert set(restored.overlay.node_ids()) == set(restored.nodes)


def test_first_replica_event_after_the_restore():
    """Every node is restored on empties of its own: the births still in
    flight must bind private directories, not write to a shared one."""
    net = CupNetwork(tiny_config())
    restored = restore_network(snapshot_network(net))
    assert not any(
        list(node.authority_index.keys()) for node in restored.nodes.values()
    )
    assert canonical(restored.run()) == canonical(net.run())
    owners = {
        node_id for node_id, node in restored.nodes.items()
        if list(node.authority_index.keys())
    }
    assert owners == {restored.overlay.authority(k) for k in restored.keys}


# ----------------------------------------------------------------------
# Recovery state machine across a snapshot (mid-backoff)
# ----------------------------------------------------------------------


def lossy_scenario(loss=0.3, seed_duration=150.0):
    return with_chaos(
        Scenario(
            name="lossy-quiet", description="loss over steady traffic",
            phases=(Quiet(duration=seed_duration),),
        ),
        loss=loss, duplicate=0.1, jitter=0.05,
    )


def snapshot_with_open_gaps(network, horizon, step=5.0):
    """Advance until some node has an open recovery gap, then snapshot."""
    t = network.sim.now
    while t < horizon:
        t += step
        network.run(until=t)
        for node in network.nodes.values():
            if node.recovery is not None and node.recovery.open_gaps():
                return snapshot_network(network)
    pytest.skip("no recovery gap ever opened at this seed")


def test_recovery_state_resumes_mid_backoff():
    scenario = lossy_scenario()
    config = scenario.build_config(seed=7)
    straight = CupNetwork(config)
    scenario.compile_onto(straight)
    expected = straight.run()

    resumed = CupNetwork(config)
    scenario.compile_onto(resumed)
    blob = snapshot_with_open_gaps(resumed, horizon=config.sim_end * 0.8)

    # The restored recovery managers carry the exact gap bookkeeping —
    # watermarks, missing sequences, retransmission buffers — of the
    # originals, with their backoff timers still armed.
    restored = restore_network(blob)
    gaps_seen = 0
    for node_id, node in resumed.nodes.items():
        twin = restored.nodes[node_id].recovery
        mine = node.recovery
        if mine is None:
            assert twin is None
            continue
        assert twin.open_gaps() == mine.open_gaps()
        assert set(twin._sent) == set(mine._sent)
        for (sender, key) in mine._recv_high:
            assert twin.watermark(sender, key) == mine.watermark(sender, key)
        gaps_seen += len(mine.open_gaps())
    assert gaps_seen > 0

    # ... and those timers fire on schedule: both copies finish the run
    # to bytes identical to the uninterrupted one.
    assert canonical(restored.run()) == canonical(expected)
    assert canonical(resumed.run()) == canonical(expected)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    loss=st.sampled_from([0.1, 0.2, 0.35]),
    seed=st.integers(0, 2**16),
    cut=st.sampled_from([0.3, 0.5, 0.75]),
)
def test_restored_equals_straight_under_chaos(loss, seed, cut):
    """Hypothesis oracle: straight ≡ snapshot/restore, any chaos mix."""
    scenario = lossy_scenario(loss=loss, seed_duration=90.0)
    config = scenario.build_config(seed=seed)

    straight = CupNetwork(config)
    scenario.compile_onto(straight)
    expected = straight.run()

    resumed = CupNetwork(config)
    scenario.compile_onto(resumed)
    resumed.run(until=config.sim_end * cut)
    restored = restore_network(snapshot_network(resumed))
    verify_restored(restored)
    assert canonical(restored.run()) == canonical(expected)

# ----------------------------------------------------------------------
# Corruption diagnostics: every malformed file fails as
# CheckpointFormatError naming the offending path
# ----------------------------------------------------------------------


def test_truncated_header_is_a_format_error_not_a_raw_valueerror():
    # A file cut off before the header's newline used to surface as the
    # bytes-split ValueError; it must be a CheckpointFormatError.
    net = CupNetwork(tiny_config())
    blob = snapshot_network(net)
    end = blob.index(b"\n", len(MAGIC))
    with pytest.raises(CheckpointFormatError, match="no header terminator"):
        restore_network(blob[:end])


def test_corrupt_json_header_is_a_format_error():
    payload = b"garbage-that-is-not-json\n" + b"\x80\x04."
    with pytest.raises(CheckpointFormatError, match="header"):
        restore_network(MAGIC + payload)


def test_non_dict_header_is_a_format_error():
    blob = MAGIC + b"[1, 2, 3]\n" + b"\x80\x04."
    with pytest.raises(CheckpointFormatError, match="JSON object"):
        restore_network(blob)


def test_truncated_pickle_payload_is_a_format_error():
    net = CupNetwork(tiny_config())
    blob = snapshot_network(net)
    with pytest.raises(CheckpointFormatError, match="payload"):
        restore_network(blob[: len(blob) // 2], verify_fingerprint=False)


def test_corrupt_file_errors_name_the_path(tmp_path):
    victim = tmp_path / "corrupt.ckpt"
    victim.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointFormatError, match="corrupt.ckpt"):
        load_checkpoint(victim)
    with pytest.raises(CheckpointFormatError, match="corrupt.ckpt"):
        checkpoint_info(victim)


def test_truncated_file_on_disk_names_the_path(tmp_path):
    net = CupNetwork(tiny_config())
    net.run(until=50.0)
    path = tmp_path / "run.ckpt"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    victim = tmp_path / "torn.ckpt"
    victim.write_bytes(blob[: len(blob) - len(blob) // 3])
    with pytest.raises(CheckpointFormatError, match="torn.ckpt"):
        load_checkpoint(victim)
    # The header survives truncation of the payload, so inspection
    # still works — info reads only the front of the file.
    assert checkpoint_info(victim)["format"] == FORMAT_VERSION


def test_header_without_newline_mentions_truncation(tmp_path):
    victim = tmp_path / "headless.ckpt"
    victim.write_bytes(MAGIC + b'{"format": 1, "no-newline": true')
    with pytest.raises(
        CheckpointFormatError, match="truncated file or oversized header"
    ):
        checkpoint_info(victim)
