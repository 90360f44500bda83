"""Read and edit coefficient-cache files directly, as a fault or an old writer would.

Format 3 is a first line holding the hex sha256 of every byte after it, one
JSON header line (the key, `validation`, `quadrature_error`), and the raw
little-endian float64 C-order bytes of `a`, then `b`.  Format 2, the earlier
layout, was one JSON document with `a` and `b` as base64 of the same bytes
and `sha256` over every other field; format 1, before it, stored nested lists
and checksummed only `a` and `b`.  Every key before the current one also
recorded the cavity length, which was always 1.0.  These helpers read and
write the layouts without going through the code in `rqss.modes`; they take
only its ladder constants from there.
"""

import base64
import hashlib
import json

import numpy as np

from rqss.modes import DEFAULT_LADDER, DEFAULT_VALIDATION_H


def read_parts(path) -> tuple:
    """(stored digest, header, `a`, `b`) of a format-3 file; the arrays are writable copies."""
    digest, header, payload = path.read_bytes().split(b"\n", 2)
    meta = json.loads(header)
    n = meta["key"]["n_max"]
    a, b = np.frombuffer(payload, dtype="<f8").copy().reshape(2, 4, n, n)
    return digest, meta, a, b


def write_parts(path, header, a, b, digest=None):
    """Write a format-3 file; `header` is a dict or the raw bytes of the header line.

    With no `digest` the file is resealed: its checksum is recomputed, so only
    the content checks can catch an edit.
    """
    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True).encode()
    body = b"".join([header, b"\n", *(np.ascontiguousarray(x, dtype="<f8").tobytes() for x in (a, b))])
    if digest is None:
        digest = hashlib.sha256(body).hexdigest().encode()
    path.write_bytes(digest + b"\n" + body)


def tamper_coefficient(path, index: tuple, delta: float):
    """Add `delta` to `a[index]` of a cache file and leave the stored checksum alone."""
    digest, meta, a, b = read_parts(path)
    a[index] += delta
    write_parts(path, meta, a, b, digest)


def flip_byte(path, offset: int):
    """Invert every bit of the byte at `offset` (from the end if negative) and leave the stored checksum alone."""
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(data)


def write_document(path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True))


def file_name(key: dict, suffix: str) -> str:
    """The name of the file of `key`, in every format: the key's hash, then `suffix`."""
    stem = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return f"transition_{stem}{suffix}"


def _key(fit, version: int) -> dict:
    return {
        "format": version,
        "length": 1.0,
        "n_max": fit.n_max,
        "ladder": list(DEFAULT_LADDER),
        "validation_h": DEFAULT_VALIDATION_H,
    }


def format1_document(fit) -> tuple:
    """(file name, document) of `fit` in the format-1 layout."""
    key = _key(fit, 1)
    a, b = fit.a.tolist(), fit.b.tolist()
    doc = {
        "length": 1.0,
        "n_max": fit.n_max,
        "ladder": list(DEFAULT_LADDER),
        "validation_h": DEFAULT_VALIDATION_H,
        "a": a,
        "b": b,
        "validation": fit.validation,
        "quadrature_error": fit.quadrature_error,
        "key": key,
        "payload_sha256": hashlib.sha256(json.dumps({"a": a, "b": b}, sort_keys=True).encode()).hexdigest(),
    }
    return file_name(key, ".json"), doc


def format2_document(fit) -> tuple:
    """(file name, document) of `fit` in the format-2 layout."""
    key = _key(fit, 2)

    def encode(values):
        return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")

    doc = {
        "key": key,
        "length": 1.0,
        "n_max": fit.n_max,
        "ladder": key["ladder"],
        "validation_h": key["validation_h"],
        "a": encode(fit.a),
        "b": encode(fit.b),
        "validation": fit.validation,
        "quadrature_error": fit.quadrature_error,
    }
    doc["sha256"] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return file_name(key, ".json"), doc


def write_format3_with_length(directory, fit):
    """Write `fit` as a format-3 file whose key holds the cavity length, under that key's name; return its path."""
    key = _key(fit, 3)
    path = directory / file_name(key, ".bin")
    write_parts(path, {"key": key, "validation": fit.validation, "quadrature_error": fit.quadrature_error}, fit.a, fit.b)
    return path
