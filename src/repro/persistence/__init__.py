"""Durable state: simulation checkpoint/resume and live-node rejoin."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "checkpoint": "DEFAULT_EVERY_EVENTS CheckpointError "
                  "CheckpointFormatError FingerprintMismatch atomic_write "
                  "checkpoint_info load_checkpoint restore_network "
                  "save_checkpoint snapshot_network verify_restored",
    "nodestore": "DEFAULT_SNAPSHOT_INTERVAL STATE_FILENAME NodeState "
                 "NodeStore capture_state sanitize_restored "
                 "state_from_blob state_to_blob",
})
