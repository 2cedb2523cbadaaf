"""The snapshot wire format: versioned, hash-stamped, loudly validated.

A snapshot artifact has three parts::

    MAGIC (10 bytes) | header length (4 bytes, big-endian) | JSON header | payload

The header carries the format version, the payload's SHA-256 and byte
length, and free-form metadata (scenario name, virtual time, seed, ...)
readable without touching the payload.  The payload is a pickle (fixed
protocol) of the simulation's object graph, written in one pass that
memoises every ``str`` by value, not identity (each string is a persistent
id), from captured state that holds no ``set``.  A restore changes string
identities (the unpickler interns instance-``__dict__`` keys only) and would
reorder sets, so these two rules are what make snapshot-of-restored
bit-identical to the original artifact.

Every failure mode is a distinct, loud error:

* :class:`SnapshotFormatError` — not a snapshot at all, or truncated;
* :class:`SnapshotVersionError` — a snapshot from an incompatible format
  version (never silently reinterpreted);
* :class:`SnapshotIntegrityError` — the payload does not hash to the value
  stamped in the header (bit rot, truncation, tampering).
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any, Dict, Optional, Tuple

#: Leading bytes of every snapshot artifact.
SNAPSHOT_MAGIC = b"REPROSNAP\x01"

#: Current format version; bumped on any incompatible layout change.
SNAPSHOT_VERSION = 3

#: Pickle protocol pinned so identical state yields identical payload bytes
#: regardless of the writing interpreter's default.
PICKLE_PROTOCOL = 4

_LENGTH_BYTES = 4


class SnapshotError(Exception):
    """Base class of every snapshot codec failure."""


class SnapshotFormatError(SnapshotError):
    """The bytes are not a snapshot artifact (bad magic, truncation, ...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot uses a format version this codec does not understand."""


class SnapshotIntegrityError(SnapshotError):
    """The payload does not match the hash stamped in the header."""


class _CanonicalPickler(pickle.Pickler):
    """Pickles every ``str`` as a persistent id memoised by value."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._strings: Dict[str, str] = {}

    def persistent_id(self, obj: Any) -> Optional[str]:
        if type(obj) is str:
            return self._strings.setdefault(obj, obj)
        return None


class _CanonicalUnpickler(pickle.Unpickler):
    """Reads the persistent-id strings :class:`_CanonicalPickler` writes."""

    def persistent_load(self, pid: Any) -> str:
        if type(pid) is not str:
            raise SnapshotFormatError(
                f"snapshot payload holds a {type(pid).__name__} persistent id; "
                "only strings are written"
            )
        return pid


class SnapshotCodec:
    """Encodes/decodes snapshot artifacts in the versioned wire format."""

    version = SNAPSHOT_VERSION

    def encode(self, payload_obj: Any, metadata: Optional[Dict[str, Any]] = None) -> bytes:
        """Serialise ``payload_obj`` into one self-validating artifact."""
        buffer = io.BytesIO()
        _CanonicalPickler(buffer).dump(payload_obj)
        payload = buffer.getvalue()
        header = {
            "version": self.version,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "metadata": dict(metadata or {}),
        }
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return (
            SNAPSHOT_MAGIC
            + len(header_bytes).to_bytes(_LENGTH_BYTES, "big")
            + header_bytes
            + payload
        )

    # ------------------------------------------------------------- reading

    def read_header(self, blob: bytes) -> Dict[str, Any]:
        """Parse and validate the header without deserialising the payload."""
        header, _ = self._split(blob)
        return header

    def decode(self, blob: bytes) -> Tuple[Any, Dict[str, Any]]:
        """Validate ``blob`` end to end and return ``(payload, header)``."""
        header, payload = self._split(blob)
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header["payload_sha256"]:
            raise SnapshotIntegrityError(
                "snapshot payload hash mismatch: header says "
                f"{header['payload_sha256']}, payload hashes to {digest} — "
                "the artifact is corrupt or was modified"
            )
        return _CanonicalUnpickler(io.BytesIO(payload)).load(), header

    # ------------------------------------------------------------- internal

    def _split(self, blob: bytes) -> Tuple[Dict[str, Any], bytes]:
        if not isinstance(blob, (bytes, bytearray)):
            raise SnapshotFormatError(
                f"snapshot must be bytes, got {type(blob).__name__}"
            )
        blob = bytes(blob)
        if not blob.startswith(SNAPSHOT_MAGIC):
            raise SnapshotFormatError(
                "not a snapshot artifact (bad magic bytes); expected a file "
                "written by repro.snapshot"
            )
        offset = len(SNAPSHOT_MAGIC)
        if len(blob) < offset + _LENGTH_BYTES:
            raise SnapshotFormatError("snapshot truncated inside header length")
        header_len = int.from_bytes(blob[offset : offset + _LENGTH_BYTES], "big")
        offset += _LENGTH_BYTES
        if len(blob) < offset + header_len:
            raise SnapshotFormatError("snapshot truncated inside header")
        try:
            header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotFormatError(f"snapshot header is not valid JSON: {exc}")
        for key in ("version", "payload_sha256", "payload_bytes", "metadata"):
            if key not in header:
                raise SnapshotFormatError(f"snapshot header missing {key!r}")
        if header["version"] != self.version:
            raise SnapshotVersionError(
                f"snapshot format version {header['version']} is not supported "
                f"by this codec (version {self.version}); re-create the "
                "snapshot with the current code"
            )
        payload = blob[offset + header_len :]
        if len(payload) != header["payload_bytes"]:
            raise SnapshotFormatError(
                f"snapshot payload truncated: header says "
                f"{header['payload_bytes']} bytes, artifact holds {len(payload)}"
            )
        return header, payload
