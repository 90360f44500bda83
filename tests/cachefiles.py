"""Read and edit coefficient-cache files directly, as a fault or an old writer would.

Format 5 is a first line holding the hex sha256 of every byte after it, one
JSON header line (the key and `validation`), and the raw little-endian
float64 C-order bytes of `a1`, `a2`, `b1` and `b2`.  Format 4 was the same,
with `quadrature_error` in the header too.  Every earlier format stored all
four fitted orders, `a` and `b` of shape (4, N, N): format 3 in the same
three parts as format 4, with the bytes of `a`, then `b`; format 2 as one
JSON document with `a` and `b` as base64 of those bytes and `sha256` over
every other field; format 1 as nested lists, checksumming only `a` and `b`.
Formats 1 and 2, and the first format-3 keys, also recorded the cavity
length, which was always 1.0.  These helpers read and write the layouts
without going through the code in `rqss.modes`; they take only its ladder
constants from there.  The writers of the old formats take the orders and
the quadrature error from a `oracles.LadderFit`.
"""

import base64
import hashlib
import json

import numpy as np

from rqss.modes import DEFAULT_LADDER, DEFAULT_VALIDATION_H


def read_parts(path) -> tuple:
    """(stored digest, header, `a`, `b`) of a format-5 (or 4) file; `a` stacks `a1`, `a2` and `b` stacks `b1`, `b2`.

    The arrays are writable copies.
    """
    digest, header, payload = path.read_bytes().split(b"\n", 2)
    meta = json.loads(header)
    n = meta["key"]["n_max"]
    a, b = np.frombuffer(payload, dtype="<f8").copy().reshape(2, 2, n, n)
    return digest, meta, a, b


def write_parts(path, header, a, b, digest=None):
    """Write a format-5 or 4 file (or a format-3 one, from four-order stacks); `header` is a dict or the header line's bytes.

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


def _key(fit, version: int, length: bool = True) -> dict:
    key = {"format": version, "n_max": fit.n_max, "ladder": list(DEFAULT_LADDER), "validation_h": DEFAULT_VALIDATION_H}
    if length:
        key["length"] = 1.0
    return key


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


def write_format3(directory, fit, length: bool = False):
    """Write `fit` as a format-3 file under its key's name; return its path.

    With `length` the key holds the cavity length, as the first format-3 keys did.
    """
    key = _key(fit, 3, length)
    path = directory / file_name(key, ".bin")
    write_parts(path, {"key": key, "validation": fit.validation, "quadrature_error": fit.quadrature_error}, fit.a, fit.b)
    return path


def write_format4(directory, fit):
    """Write orders one and two of `fit` as a format-4 file under its key's name; return its path."""
    key = _key(fit, 4, length=False)
    path = directory / file_name(key, ".bin")
    header = {"key": key, "validation": fit.validation, "quadrature_error": fit.quadrature_error}
    write_parts(path, header, fit.a[:2], fit.b[:2])
    return path
