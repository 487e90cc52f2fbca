"""The content replica model (§2.1 of the paper).

Content in the peer-to-peer network is served by *replicas*.  Each
replica of a piece of content announces itself to the authority node that
owns the content's key with a **birth** message, periodically re-ups with
**refresh** (keep-alive) messages that extend its index entry's lifetime,
and either announces its departure with a **deletion** message (graceful)
or simply goes silent (failure — the authority notices the missing
keep-alives and deletes the entry itself).

* :class:`~repro.replicas.authority.AuthorityIndex` — the *local index
  directory*: the slice of the global index a node owns, with sequence
  numbering and expiry sweeping.
* :class:`~repro.replicas.replica.Replica` — one replica's lifecycle as a
  simulation process.
* :class:`~repro.replicas.replica.ReplicaSet` — the population of
  replicas for an experiment (the paper's "number of replicas per key"
  and "lifetime of replicas" inputs).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "authority": "AuthorityIndex",
    "replica": "Replica ReplicaSet",
})
