"""The snapshot codec rejects everything that is not exactly right."""

import hashlib
import json
import pickle

import pytest

from repro.snapshot import codec
from repro.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotCodec,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)


@pytest.fixture
def artifact():
    return SnapshotCodec().encode({"answer": 42}, metadata={"kind": "test"})


def test_round_trip(artifact):
    payload, header = SnapshotCodec().decode(artifact)
    assert payload == {"answer": 42}
    assert header["version"] == SNAPSHOT_VERSION
    assert header["metadata"] == {"kind": "test"}


def test_header_readable_without_payload_decode(artifact):
    header = SnapshotCodec().read_header(artifact)
    assert header["payload_bytes"] > 0
    assert len(header["payload_sha256"]) == 64


def test_rejects_non_snapshot_bytes():
    with pytest.raises(SnapshotFormatError, match="bad magic"):
        SnapshotCodec().decode(b"definitely not a snapshot")


def test_rejects_wrong_type():
    with pytest.raises(SnapshotFormatError, match="must be bytes"):
        SnapshotCodec().decode("a string")


@pytest.mark.parametrize("keep", [3, len(SNAPSHOT_MAGIC) + 2, 40])
def test_rejects_truncation(artifact, keep):
    with pytest.raises(SnapshotFormatError):
        SnapshotCodec().decode(artifact[:keep])


def test_rejects_truncated_payload(artifact):
    with pytest.raises(SnapshotFormatError, match="truncated"):
        SnapshotCodec().decode(artifact[:-1])


def _header_bounds(blob):
    offset = len(SNAPSHOT_MAGIC)
    header_len = int.from_bytes(blob[offset : offset + 4], "big")
    return offset + 4, offset + 4 + header_len


def _rewrite_header(blob, mutate):
    start, end = _header_bounds(blob)
    header = json.loads(blob[start:end])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (
        SNAPSHOT_MAGIC
        + len(new_header).to_bytes(4, "big")
        + new_header
        + blob[end:]
    )


def test_rejects_unknown_version_loudly(artifact):
    tampered = _rewrite_header(
        artifact, lambda h: h.update(version=SNAPSHOT_VERSION + 1)
    )
    with pytest.raises(SnapshotVersionError, match="not supported"):
        SnapshotCodec().decode(tampered)


def test_rejects_previous_version_loudly(artifact):
    """Older artifacts never reach the unpickler, so no class needs compat guards."""
    tampered = _rewrite_header(
        artifact, lambda h: h.update(version=SNAPSHOT_VERSION - 1)
    )
    with pytest.raises(SnapshotVersionError, match="not supported"):
        SnapshotCodec().decode(tampered)


def test_rejects_missing_header_field(artifact):
    tampered = _rewrite_header(artifact, lambda h: h.pop("payload_sha256"))
    with pytest.raises(SnapshotFormatError, match="missing"):
        SnapshotCodec().decode(tampered)


def test_rejects_tampered_payload(artifact):
    start, end = _header_bounds(artifact)
    body = bytearray(artifact)
    body[-1] ^= 0xFF
    with pytest.raises(SnapshotIntegrityError, match="hash mismatch"):
        SnapshotCodec().decode(bytes(body))


def test_rejects_tampered_hash(artifact):
    tampered = _rewrite_header(
        artifact, lambda h: h.update(payload_sha256="0" * 64)
    )
    with pytest.raises(SnapshotIntegrityError):
        SnapshotCodec().decode(tampered)


def test_error_hierarchy():
    for error in (SnapshotFormatError, SnapshotVersionError, SnapshotIntegrityError):
        assert issubclass(error, SnapshotError)


def test_tampered_hash_does_not_reach_pickle(artifact, monkeypatch):
    """Integrity is checked before unpickling, not after."""

    def boom(*_args, **_kwargs):
        raise AssertionError("the unpickler was reached with a bad hash")

    monkeypatch.setattr(pickle, "loads", boom)
    monkeypatch.setattr(codec._CanonicalUnpickler, "load", boom)
    tampered = _rewrite_header(
        artifact, lambda h: h.update(payload_sha256="f" * 64)
    )
    with pytest.raises(SnapshotIntegrityError):
        SnapshotCodec().decode(tampered)


class _Holder:
    """An object whose attribute name doubles as a plain string elsewhere."""

    def __init__(self):
        self.sim = "clock"


def test_equal_strings_pickle_by_value_not_identity():
    """Restoring splits string identities; the bytes must not notice.

    The unpickler interns instance-``__dict__`` keys but no other strings, so
    after a restore the attribute name ``sim`` and the list's ``"sim"`` are two
    objects where the fresh graph had one.  Memoising by value writes the
    string once either way, so snapshot-of-restored reproduces the artifact.
    """
    blob = SnapshotCodec().encode([_Holder(), ["sim"]])
    restored, _ = SnapshotCodec().decode(blob)
    key = next(iter(vars(restored[0])))
    assert key == restored[1][0] == "sim"
    assert key is not restored[1][0]
    assert SnapshotCodec().encode(restored) == blob
    _, payload_start = _header_bounds(blob)
    assert blob[payload_start:].count(b"sim") == 1


def test_encode_never_unpickles(monkeypatch):
    """The first pickling pass is the canonical one; no round trip follows."""

    def boom(*_args, **_kwargs):
        raise AssertionError("encode unpickled its own payload")

    monkeypatch.setattr(pickle, "loads", boom)
    monkeypatch.setattr(pickle, "load", boom)
    monkeypatch.setattr(codec._CanonicalUnpickler, "load", boom)
    blob = SnapshotCodec().encode([_Holder(), ["sim"]])
    assert SnapshotCodec().read_header(blob)["payload_bytes"] > 0


def test_rejects_non_string_persistent_id():
    """Only strings are written as persistent ids; anything else is forged."""
    forged = b"\x80\x04K\x07Q."  # PROTO 4, BININT1 7, BINPERSID, STOP
    blob = SnapshotCodec().encode("x")
    _, end = _header_bounds(blob)
    tampered = _rewrite_header(
        blob[:end] + forged,
        lambda h: h.update(
            payload_sha256=hashlib.sha256(forged).hexdigest(),
            payload_bytes=len(forged),
        ),
    )
    with pytest.raises(SnapshotFormatError, match="persistent id"):
        SnapshotCodec().decode(tampered)
