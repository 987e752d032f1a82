"""Versioned model and encoding files with content hashing.

Model files are canonical UTF-8 JSON: sorted keys, compact separators, and
floats printed as the shortest decimal that round-trips to the same 64-bit
value. Each tree is stored as its two arrays, ``{"nodes": {"attr": [...],
"param": [...]}}``; node kinds come from the stored schema and true children
from the pre-order layout, so neither is written. Files of other versions,
such as version 2's four arrays per tree, are refused. The embedded hash is
64-bit FNV-1a over the canonical bytes of the record without its hash field,
so equal forests always produce equal bytes and equal hashes. Sorted keys put
the top-level ``"hash":"<16 hex digits>",`` member right after ``config``, so
those bytes are the file with that member and the final newline cut out:
``save_model`` serialises the record once and hashes what it writes, and
``load_model`` hashes the bytes it read. A file in any other layout, such as
a pretty-printed one, is refused even when its record would hash the same.
An ``EncodingMatrix`` is defined here, beside its file format.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Bounds, Categorical, Numeric, Schema, atomic_write_bytes, integer_array
from .errors import (
    CorruptModelError,
    FormatError,
    InvalidModelError,
    LeafIndexError,
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


def fnv1a64(*parts) -> int:
    """64-bit FNV-1a hash of the concatenated bytes-like ``parts`` (see the
    module docstring for how it is computed)."""
    h = _FNV_OFFSET
    chunks = (
        np.frombuffer(part, dtype=np.uint8)[start:start + _FNV_CHUNK]
        for part in parts
        for start in range(0, len(part), _FNV_CHUNK)
    )
    d = np.empty(_FNV_CHUNK, dtype=np.int64)
    for chunk in chunks:
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


def forest_hex_id(forest: Forest) -> str:
    """Content hash of a forest as 16 hex digits; cached on the forest."""
    if forest._hex_id is None:
        forest._hex_id = f"{fnv1a64(canonical_json_bytes(forest_record(forest))):016x}"
    return forest._hex_id


def _head(record: dict) -> bytes:
    """A model file's canonical bytes before its top-level ``hash`` member,
    which sorted keys place right after ``config``."""
    return (b'{"bounds":' + canonical_json_bytes(record["bounds"])
            + b',"config":' + canonical_json_bytes(record["config"]) + b",")


def _hash_member(hex_id) -> bytes:
    return b'"hash":' + canonical_json_bytes(hex_id) + b","


def _hashed_parts(blob: bytes, record: dict):
    """The bytes of a model file that its hash covers: all but the top-level
    hash member and the final newline. None unless the file is laid out as
    ``save_model`` writes it, the one layout where that cut is exact."""
    try:
        head, member = _head(record), _hash_member(record["hash"])
    except ValueError:  # a float too large to write, which save_model never does
        return None
    if not (blob.startswith(head) and blob.startswith(member, len(head))
            and blob.endswith(b"\n")):
        return None
    view = memoryview(blob)
    return view[:len(head)], view[len(head) + len(member):-1]


def save_model(forest: Forest, path) -> str:
    """Write the canonical model file atomically; returns the content hash,
    which the forest then caches."""
    record = forest_record(forest)
    blob = memoryview(canonical_json_bytes(record))
    cut = len(_head(record))
    forest._hex_id = f"{fnv1a64(blob):016x}"
    atomic_write_bytes(Path(path), [blob[:cut], _hash_member(forest._hex_id), blob[cut:], b"\n"])
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

    parts = _hashed_parts(blob, record)
    if parts is None:
        raise CorruptModelError(f"{path}: not laid out as save_model writes a model")
    stated_hash, actual_hash = record["hash"], f"{fnv1a64(*parts):016x}"
    if stated_hash != actual_hash:
        raise CorruptModelError(
            f"{path}: content hash {actual_hash} does not match stated {stated_hash}"
        )

    schema = _schema_from_record(record["schema"])
    bounds = _bounds_from_record(record["bounds"])
    if type(record["seed"]) is not int:
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


@dataclass(frozen=True)
class EncodingMatrix:
    """Leaf ordinals of n instances under T trees, tied to a model by its hash."""

    leaf_ids: np.ndarray
    forest_id: str

    def __post_init__(self):
        if np.ndim(self.leaf_ids) != 2:
            raise ShapeError(f"leaf_ids must be a 2-d array, got {np.ndim(self.leaf_ids)}-d")
        leaf_ids = integer_array(self.leaf_ids, np.int32, LeafIndexError, "leaf ordinals")
        object.__setattr__(self, "leaf_ids", leaf_ids)

    @property
    def n(self) -> int:
        return self.leaf_ids.shape[0]

    @property
    def T(self) -> int:
        return self.leaf_ids.shape[1]


_ENC_HEADER = re.compile(rb"eforest-enc v2 n=(\d+) T=(\d+) forest=([0-9a-f]{16})\n")


def save_encodings(matrix: EncodingMatrix, path) -> None:
    """Write an encoding matrix: a header line, then n*T little-endian int32
    leaf ordinals in row-major order."""
    header = f"eforest-enc v2 n={matrix.n} T={matrix.T} forest={matrix.forest_id}\n"
    body = np.ascontiguousarray(matrix.leaf_ids, dtype="<i4")  # no copy of int32 ordinals
    atomic_write_bytes(Path(path), [header.encode("ascii"), body])


def load_encodings(path) -> EncodingMatrix:
    """Read an encoding matrix; the body must hold exactly the header's n*T
    ordinals. The returned ``leaf_ids`` may be a read-only view of the file bytes."""
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
