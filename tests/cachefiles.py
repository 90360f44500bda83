"""Read and edit coefficient-cache files directly, as a fault or an old writer would.

Format 2 stores `a` and `b` as base64 of their little-endian float64 C-order
bytes, and `sha256` over every other field of the JSON document.  Format 1,
the earlier layout, stored nested lists and checksummed only `a` and `b`.
These helpers write either layout without going through the writer in
`rqss.modes`; they take only its ladder constants from there.
"""

import base64
import hashlib
import json

import numpy as np

from rqss.modes import DEFAULT_LADDER, DEFAULT_VALIDATION_H


def read_document(path) -> dict:
    return json.loads(path.read_text())


def write_document(path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True))


def decode(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def encode(values: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def reseal(doc: dict) -> dict:
    """Recompute the checksum, so only the content checks can catch an edit."""
    body = {name: value for name, value in doc.items() if name != "sha256"}
    doc["sha256"] = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return doc


def tamper_coefficient(path, index: tuple, delta: float):
    """Add `delta` to `a[index]` of a cache file and leave the stored checksum alone."""
    doc = read_document(path)
    n = doc["n_max"]
    a = decode(doc["a"]).reshape(4, n, n)
    a[index] += delta
    doc["a"] = encode(a)
    write_document(path, doc)


def format1_document(fit) -> tuple:
    """(file name, document) of `fit` in the format-1 layout."""
    key = {
        "format": 1,
        "length": fit.length,
        "n_max": fit.n_max,
        "ladder": list(DEFAULT_LADDER),
        "validation_h": DEFAULT_VALIDATION_H,
    }
    a, b = fit.a.tolist(), fit.b.tolist()
    doc = {
        "length": fit.length,
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
    stem = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return f"transition_{stem}.json", doc
