"""Versioned model and encoding files with content hashing.

Model files are canonical UTF-8 JSON: sorted keys, compact separators, and
floats printed as the shortest decimal that round-trips to the same 64-bit
value. Each tree is stored as its two arrays, ``{"nodes": {"attr": [...],
"param": [...]}}``; node kinds come from the stored schema and true children
from the pre-order layout, so neither is written. Files of other versions,
such as version 2's four arrays per tree, are refused. The embedded hash is
64-bit FNV-1a over the canonical bytes of the record without its hash field,
so equal forests always produce equal bytes and equal hashes.

``fnv1a64`` computes that digest with array arithmetic, 64 KiB at a time.
With ``s = h mod 256``, the step ``h <- (h ^ b) * P`` is ``h <- (h + d) * P``
for ``d = (s ^ b) - s``, so a chunk of ``m`` bytes maps ``h`` to
``h * P**m + sum(d[i] * P**(m - i))`` mod 2**64: one uint64 dot product
against a fixed table of powers of ``P``. The low bytes ``s`` follow
``s <- ((s ^ b) * 0xB3) mod 256``, whose bit k is bit k of ``s ^ b`` XOR bit k
of ``((s ^ b) mod 2**k) * 0xB3``; given the lower bits, each bit of the whole
sequence is a prefix XOR, so eight passes give every ``s``. The digest is
the byte-at-a-time FNV-1a's, bit for bit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .data import Bounds, Categorical, Numeric, Schema, atomic_write_bytes
from .errors import (
    CorruptModelError,
    FormatError,
    InvalidModelError,
    ShapeError,
    VersionError,
)
from .forest import Forest, Tree

MODEL_VERSION = 3

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_FNV_CHUNK = 1 << 16  # a multiple of 8, so chunks split into uint64 words
_BYTE_LANES = np.uint64(0x0101010101010101)


def _chunk_powers(m: int) -> np.ndarray:
    """``P**(m - j)`` mod 2**64 for j in [0, m), built by repeated doubling."""
    powers = np.ones(m + 1, dtype=np.uint64)
    powers[1] = _FNV_PRIME
    done = 1
    while done < m:
        step = min(done, m - done)
        powers[done + 1:done + 1 + step] = powers[1:1 + step] * powers[done]
        done += step
    return powers[:0:-1].copy()


_FNV_POWERS = _chunk_powers(_FNV_CHUNK)


def _prefix_xor(x: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a uint8 array whose length is a multiple of 8."""
    w = x.view("<u8")
    w = w ^ (w << np.uint64(8))  # XOR-scan the 8 bytes inside each word
    w ^= w << np.uint64(16)
    w ^= w << np.uint64(32)
    carry = np.bitwise_xor.accumulate(w >> np.uint64(56))  # then across words
    w[1:] ^= carry[:-1] * _BYTE_LANES
    return w.view(np.uint8)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (see the module docstring for how it is computed)."""
    h = _FNV_OFFSET
    data = np.frombuffer(data, dtype=np.uint8)
    d = np.empty(min(len(data), _FNV_CHUNK), dtype=np.int64)
    for start in range(0, len(data), _FNV_CHUNK):
        chunk = data[start:start + _FNV_CHUNK]
        m = len(chunk)
        b = np.zeros(-(-m // 8) * 8, dtype=np.uint8)
        b[:m] = chunk
        s = np.empty_like(b)  # s[i]: low byte of the state before byte i
        s[0] = h & 0xFF
        s[1:] = _prefix_xor(b)[:-1] ^ s[0]  # bit 0 of the product is bit 0 of s ^ b
        for k in range(1, 8):
            carry = ((s ^ b) & np.uint8((1 << k) - 1)) * np.uint8(0xB3) & np.uint8(1 << k)
            s[1:] ^= _prefix_xor(carry)[:-1]
        np.bitwise_xor(s[:m], b[:m], out=d[:m])
        d[:m] -= s[:m]
        tail = int(np.dot(d[:m].view(np.uint64), _FNV_POWERS[_FNV_CHUNK - m:]))
        h = (h * pow(_FNV_PRIME, m, 1 << 64) + tail) & _MASK64
    return h


def canonical_json_bytes(obj) -> bytes:
    """Canonical serialization: sorted keys, no whitespace, shortest floats."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    ).encode("ascii")


def _schema_record(schema: Schema) -> dict:
    kinds = []
    for k in schema.kinds:
        if isinstance(k, Categorical):
            kinds.append({"kind": "cat", "values": list(k.values)})
        else:
            kinds.append({"kind": "num"})
    return {"names": list(schema.names), "kinds": kinds}


def _strings(values) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; anything else is a TypeError."""
    if type(values) is not list or any(type(v) is not str for v in values):
        raise TypeError(f"expected a list of strings, got {values!r}")
    return tuple(values)


def _schema_from_record(rec) -> Schema:
    try:
        if len(rec) != 2 or type(rec["kinds"]) is not list:
            raise TypeError(f"expected {{'names': [...], 'kinds': [...]}}, got {rec!r}")
        names = _strings(rec["names"])
        kinds = []
        for k in rec["kinds"]:
            if k["kind"] == "num" and len(k) == 1:
                kinds.append(Numeric())
            elif k["kind"] == "cat" and len(k) == 2:
                kinds.append(Categorical(_strings(k["values"])))
            else:
                raise ValueError(f"unknown attribute kind record {k!r}")
        return Schema(names, tuple(kinds))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError(f"bad schema record: {exc}") from None


def _bounds_from_record(rec) -> Bounds:
    """Bounds from ``{"lo": [...], "hi": [...]}`` holding JSON floats only."""
    try:
        if len(rec) != 2:
            raise TypeError(f"expected {{'lo': [...], 'hi': [...]}}, got {rec!r}")
        ends = [rec["lo"], rec["hi"]]
        for end in ends:
            if type(end) is not list or any(type(v) is not float for v in end):
                raise TypeError(f"bounds must be lists of floats, got {end!r}")
        return Bounds(np.asarray(ends[0]), np.asarray(ends[1]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError(f"bad bounds record: {exc}") from None


def forest_record(forest: Forest) -> dict:
    """Hashable model record; everything but the hash field."""
    return {
        "version": MODEL_VERSION,
        "kind": forest.kind,
        "seed": forest.seed,
        "schema": _schema_record(forest.schema),
        "bounds": {
            "lo": [float(v) for v in forest.bounds.lo],
            "hi": [float(v) for v in forest.bounds.hi],
        },
        "config": forest.config,
        "trees": [{"nodes": t.node_records()} for t in forest.trees],
    }


def _content_hash(record: dict) -> str:
    """16 hex digits of the FNV-1a hash of a record's canonical bytes."""
    return f"{fnv1a64(canonical_json_bytes(record)):016x}"


def forest_hex_id(forest: Forest) -> str:
    """Content hash of a forest as 16 hex digits; cached on the forest."""
    if forest._hex_id is None:
        forest._hex_id = _content_hash(forest_record(forest))
    return forest._hex_id


def save_model(forest: Forest, path) -> str:
    """Write the canonical model file atomically; returns the content hash."""
    record = forest_record(forest)
    if forest._hex_id is None:
        forest._hex_id = _content_hash(record)
    record["hash"] = forest._hex_id
    atomic_write_bytes(Path(path), canonical_json_bytes(record) + b"\n")
    return forest._hex_id


def _refuse_constant(name: str):
    """``NaN`` and ``Infinity`` parse in Python's JSON but are never written."""
    raise ValueError(f"{name} is not a JSON number")


_TOP_KEYS = {"version", "kind", "seed", "schema", "bounds", "config", "trees", "hash"}


def load_model(path):
    """Load and validate a model file; its content hash must match."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read model file {path}: {exc}") from exc
    try:
        record = json.loads(blob, parse_constant=_refuse_constant)
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(record, dict) or set(record.keys()) != _TOP_KEYS:
        raise FormatError(f"{path}: model file must hold exactly keys {sorted(_TOP_KEYS)}")
    version = record["version"]
    if type(version) is not int or version != MODEL_VERSION:
        raise VersionError(
            f"{path}: unsupported model version {version!r} (this release reads {MODEL_VERSION})"
        )

    stated_hash = record.pop("hash")
    actual_hash = _content_hash(record)
    if stated_hash != actual_hash:
        raise CorruptModelError(
            f"{path}: content hash {actual_hash} does not match stated {stated_hash}"
        )

    schema = _schema_from_record(record["schema"])
    bounds = _bounds_from_record(record["bounds"])
    if not isinstance(record["seed"], int):
        raise InvalidModelError(f"{path}: seed must be an integer")
    if not isinstance(record["config"], dict):
        raise InvalidModelError(f"{path}: config must be an object")
    tree_records = record["trees"]
    if type(tree_records) is not list:
        raise InvalidModelError(f"{path}: trees must be a list")

    trees = []
    for i, trec in enumerate(tree_records):
        if not isinstance(trec, dict) or set(trec.keys()) != {"nodes"}:
            raise InvalidModelError(f"tree {i}: expected a {{'nodes': {{...}}}} record")
        try:
            trees.append(Tree.from_records(trec["nodes"], schema))
        except InvalidModelError as exc:
            raise InvalidModelError(f"tree {i}: {exc}") from None

    try:
        forest = Forest(
            trees, schema, bounds, kind=record["kind"], seed=record["seed"],
            config=record["config"],
        )
    except ValueError as exc:
        raise InvalidModelError(f"{path}: {exc}") from None
    forest._hex_id = actual_hash
    return forest


_ENC_HEADER = re.compile(rb"eforest-enc v2 n=(\d+) T=(\d+) forest=([0-9a-f]{16})\n")


def save_encodings(matrix, path) -> None:
    """Write an encoding matrix: a header line, then n*T little-endian int32
    leaf ordinals in row-major order."""
    header = f"eforest-enc v2 n={matrix.n} T={matrix.T} forest={matrix.forest_id}\n"
    body = matrix.leaf_ids.astype("<i4").tobytes()
    atomic_write_bytes(Path(path), header.encode("ascii") + body)


def load_encodings(path):
    """Read an encoding matrix; the body must hold exactly the header's n*T
    ordinals. The returned ``leaf_ids`` may be a read-only view of the file bytes."""
    from .codec import EncodingMatrix

    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read encodings file {path}: {exc}") from exc
    m = _ENC_HEADER.match(blob)
    if not m:
        raise FormatError(f"{path}: bad encodings header {blob[:80]!r}")
    n, T = int(m.group(1)), int(m.group(2))
    body = memoryview(blob)[m.end():]
    if len(body) != 4 * n * T:
        raise ShapeError(f"{path}: header promises {n}x{T} ordinals in {4 * n * T} bytes, "
                         f"the body has {len(body)}")
    try:
        leaf_ids = np.frombuffer(body, dtype="<i4").reshape(n, T)
    except ValueError as exc:  # an empty body under a shape numpy cannot hold
        raise ShapeError(f"{path}: header shape n={n} T={T}: {exc}") from None
    if (leaf_ids < 0).any():
        raise FormatError(f"{path}: negative leaf ordinal")
    return EncodingMatrix(leaf_ids, m.group(3).decode("ascii"))
