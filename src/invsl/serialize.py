"""In-memory model <-> JSON-able structures.

Complex values are [re, im] pairs everywhere; encoding is canonical (sorted
keys, fixed separators) so reruns produce byte-identical files.  All actual
file I/O lives in the CLI.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__
from .errors import SchemaError
from .halfinverse import TwoSidedProblem, hl_entire_pair
from .types import BoundaryPolyPair, CauchyData, EntirePair, SigmaFunction, Subspectrum


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise SchemaError(f"expected number or [re, im] pair, got {v!r}")


def complex_array(values) -> np.ndarray:
    return np.array([pair_to_complex(v) for v in values], dtype=complex)


def encode_array(arr) -> list:
    return [complex_to_pair(z) for z in np.asarray(arr).ravel()]


def sigma_to_json(sigma: SigmaFunction) -> dict:
    return {"interval": float(sigma.interval_length), "samples": encode_array(sigma.samples)}


def sigma_from_json(obj) -> SigmaFunction:
    return SigmaFunction(complex_array(obj["samples"]), float(obj["interval"]))


def pair_from_json(p1, p2) -> BoundaryPolyPair:
    return BoundaryPolyPair(complex_array(p1), complex_array(p2))


def entire_pair_from_json(obj) -> EntirePair:
    kind = obj.get("kind")
    if kind in ("dirichlet_right", "closed_form_dirichlet_right"):
        return EntirePair.constant(0.0, 1.0)
    if kind in ("neumann_right", "closed_form_neumann_right"):
        return EntirePair.constant(1.0, 0.0)
    if kind == "constant":
        return EntirePair.constant(pair_to_complex(obj["f1"]), pair_to_complex(obj["f2"]))
    if kind == "hl_right_half":
        sigma_right = sigma_from_json(obj["sigma"])
        right_pair = pair_from_json(obj["r1"], obj["r2"])
        return hl_entire_pair(sigma_right, right_pair)
    raise SchemaError(f"unknown entire-pair kind {kind!r}")


def subspectrum_from_json(values) -> Subspectrum:
    return Subspectrum(complex_array(values))


def problem_from_json(obj):
    sigma = sigma_from_json(obj["sigma"])
    pair = pair_from_json(obj["p1"], obj["p2"])
    f = entire_pair_from_json(obj["f"])
    sub = subspectrum_from_json(obj["subspectrum"]) if obj.get("subspectrum") else None
    return sigma, pair, f, sub


def two_sided_from_json(obj) -> TwoSidedProblem:
    return TwoSidedProblem(
        sigma_from_json(obj["sigma"]),
        pair_from_json(obj["p1"], obj["p2"]),
        pair_from_json(obj["r1"], obj["r2"]),
    )


def subspectrum_to_json(sub: Subspectrum) -> dict:
    return {"schema": "invsl/subspectrum-v1", "lambdas": encode_array(sub.lambdas)}


def hl_f_descriptor(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair) -> dict:
    return {"kind": "hl_right_half", "sigma": sigma_to_json(sigma_right),
            "r1": encode_array(right_pair.a), "r2": encode_array(right_pair.b)}


def problem_to_json(sigma: SigmaFunction, pair: BoundaryPolyPair, f,
                    subspectrum=None) -> dict:
    if isinstance(f, EntirePair):
        if f.descriptor is None or "kind" not in f.descriptor or (
                f.descriptor["kind"] == "hl_right_half" and "sigma" not in f.descriptor):
            raise SchemaError("this entire pair carries no serializable descriptor")
        f_desc = f.descriptor
    else:
        f_desc = dict(f)
    obj = {"schema": "invsl/problem-v1", "sigma": sigma_to_json(sigma),
           "p1": encode_array(pair.a), "p2": encode_array(pair.b), "f": f_desc}
    if subspectrum is not None:
        obj["subspectrum"] = encode_array(subspectrum.lambdas)
    return obj


def two_sided_to_json(problem: TwoSidedProblem) -> dict:
    return {
        "schema": "invsl/two_sided-v1",
        "sigma": sigma_to_json(problem.sigma_full),
        "p1": encode_array(problem.left_pair.a),
        "p2": encode_array(problem.left_pair.b),
        "r1": encode_array(problem.right_pair.a),
        "r2": encode_array(problem.right_pair.b),
    }


def cauchy_to_json(data: CauchyData) -> dict:
    return {
        "grid_m": int(data.j.size - 1),
        "j": encode_array(data.j),
        "g": encode_array(data.g),
        "a": encode_array(data.a),
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def input_hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def meta_block(input_obj, **params) -> dict:
    meta = {"tool": f"invsl {__version__}", "input_sha256": input_hash(input_obj)}
    meta.update({k: v for k, v in params.items() if v is not None})
    return meta


def jsonable(value):
    """Recursively convert numpy scalars/arrays and complex values."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return complex_to_pair(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.ravel()]
    return value
