"""Persistent baseline artifacts: build once, validate and serve forever.

The tentpole of ROADMAP item 1: the dominant baseline cost of every sweep
(encode + solve + compress) is paid once by
:meth:`BaselineArtifact.build`, persisted by :class:`ArtifactStore` under
the network's content fingerprint with integrity checksums and a schema
version, and reloaded -- with full verification, refusing (never crashing
on, never silently serving) corrupt or foreign entries -- by later
processes: ``--baseline`` delta runs, :class:`repro.api.Session` and the
``repro.serve`` daemon.
"""

from repro.store.artifact import (
    ARTIFACT_SCHEMA_VERSION,
    BaselineArtifact,
    ClassBaseline,
)
from repro.store.fingerprint import canonical_form, network_fingerprint
from repro.store.store import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    StoreError,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "ArtifactStore",
    "BaselineArtifact",
    "ClassBaseline",
    "StoreError",
    "canonical_form",
    "network_fingerprint",
]
