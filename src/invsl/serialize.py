"""In-memory model <-> JSON-able structures, and their one canonical encoding.

Every JSON form of the domain model lives here.  Complex values are [re, im]
pairs everywhere (`encode_array`), and `entire_pair_to_json` derives the
problem file's `f` object from an entire pair's right end.  `canonical_dumps`
writes the bytes of `json.dumps(obj, sort_keys=True, indent=2,
allow_nan=False)` plus a newline, without going through json's pure-Python
indent encoder: a direct emitter for the shapes the schemas allow, with every
list of [re, im] float pairs (the bulk of every file) filled into one
template.  Reruns produce byte-identical files.  `meta_block` records the
sha256 of an input file's bytes as the CLI read them (`sha256sum` gives the
same digest), so a reformatted copy of an input has another hash.  All actual
file I/O lives in the CLI.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from . import __version__
from .errors import SchemaError
from .halfinverse import TwoSidedProblem, hl_entire_pair
from .types import (
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    validate_rp,
)


def pair_to_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise SchemaError(f"expected number or [re, im] pair, got {v!r}")


def complex_array(values) -> np.ndarray:
    """A list of bare numbers, [re, im] pairs or both, as a complex array."""
    if type(values) is list and set(map(type, values)) == {list} and set(map(len, values)) == {2}:
        flat = np.array(list(chain.from_iterable(values)))
        if flat.dtype.kind in "biuf":
            return flat.astype(float, copy=False).view(complex)
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged: bare numbers mixed with pairs
        arr = None
    if arr is not None and arr.dtype.kind in "biuf" and arr.ndim == 1:
        return arr.astype(complex)
    return np.array([pair_to_complex(v) for v in values], dtype=complex)


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
        validate_rp(right_pair)
        return hl_entire_pair(sigma_right, right_pair)
    raise SchemaError(f"unknown entire-pair kind {kind!r}")


def subspectrum_from_json(values) -> Subspectrum:
    return Subspectrum(complex_array(values))


def problem_from_json(obj):
    """(sigma, pair, f, subspectrum or None) of a problem-v1 object; a boundary
    pair that `validate_rp` rejects raises here, before any search."""
    sigma = sigma_from_json(obj["sigma"])
    pair = pair_from_json(obj["p1"], obj["p2"])
    validate_rp(pair)
    f = entire_pair_from_json(obj["f"])
    sub = subspectrum_from_json(obj["subspectrum"]) if obj.get("subspectrum") else None
    return sigma, pair, f, sub


def two_sided_from_json(obj) -> TwoSidedProblem:
    return TwoSidedProblem(
        sigma_from_json(obj["sigma"]),
        pair_from_json(obj["p1"], obj["p2"]),
        pair_from_json(obj["r1"], obj["r2"]),
    )


def encode_array(values) -> list:
    """Complex values, flattened, as the JSON form of a complex array: a list
    of [re, im] float pairs."""
    a = np.asarray(values, dtype=complex).ravel()
    return np.column_stack((a.real, a.imag)).tolist()


def sigma_to_json(sigma: SigmaFunction) -> dict:
    return {"interval": float(sigma.interval_length), "samples": encode_array(sigma.samples)}


def subspectrum_to_json(sub: Subspectrum) -> dict:
    return {"schema": "invsl/subspectrum-v1", "lambdas": encode_array(sub.lambdas)}


def hl_f_descriptor(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair) -> dict:
    """The problem file's `hl_right_half` object of a known right half."""
    return {"kind": "hl_right_half", "sigma": sigma_to_json(sigma_right),
            "r1": encode_array(right_pair.a), "r2": encode_array(right_pair.b)}


def entire_pair_to_json(f: EntirePair) -> dict:
    """The problem file's `f` object, read from `f.right_end`: `hl_right_half`
    for a right half, `constant` for a degree-0 pair; SchemaError otherwise."""
    half, pair = f.right_end or (None, None)
    if half is not None:
        return hl_f_descriptor(half, pair)
    if pair is not None and pair.a.size == pair.b.size == 1:
        return {"kind": "constant",
                "f1": encode_array(pair.a)[0], "f2": encode_array(pair.b)[0]}
    raise SchemaError("this entire pair carries no serializable descriptor")


def problem_to_json(sigma: SigmaFunction, pair: BoundaryPolyPair, f,
                    subspectrum=None) -> dict:
    f_desc = entire_pair_to_json(f) if isinstance(f, EntirePair) else dict(f)
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


_escape = json.encoder.encode_basestring_ascii


def _float_pairs(seq):
    """The floats of `seq`, flattened, when it is a nonempty list or tuple of
    [re, im] lists of floats (of any float subclass); None otherwise."""
    if not seq or set(map(type, seq)) != {list} or set(map(len, seq)) != {2}:
        return None
    flat = list(chain.from_iterable(seq))
    if not all(issubclass(t, float) for t in set(map(type, flat))):
        return None
    return flat


def _float_text(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _pairs_text(flat, nl: str) -> str:
    """A list of len(flat) // 2 [re, im] pairs at the indent `nl`, from one
    template with a slot per float."""
    inner = nl + "  "
    pair = f"{inner}[{inner}  %s,{inner}  %s{inner}]"
    text = "[" + ",".join([pair] * (len(flat) // 2)) % tuple(map(float.__repr__, flat)) + nl + "]"
    # the only letters in a finite float's repr are 'e's; nan and +-inf carry an 'n'
    if "n" in text:
        for x in flat:
            _float_text(x)  # raises at the first non-finite float
    return text


def _emit(value, nl: str, out: list):
    """Append the json.dumps(indent=2, sort_keys=True, allow_nan=False) text
    of `value` at the indent `nl` ("\n" plus two spaces per level) to `out`."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        flat = _float_pairs(value)
        if flat is not None:
            out.append(_pairs_text(flat, nl))
        elif not value:
            out.append("[]")
        else:
            inner, sep = nl + "  ", "["
            for item in value:
                out.append(sep + inner)
                _emit(item, inner, out)
                sep = ","
            out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + inner + _escape(key) + ": ")
            _emit(value[key], inner, out)
            sep = ","
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"`,
    byte for byte, for dicts with str keys, lists, tuples, str, int, float
    (subclasses included), bool and None.  ValueError on nan or +-inf,
    TypeError on any other object."""
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def meta_block(input_sha256: str, **params) -> dict:
    """The "meta" object of an output file: the tool version, the hex digest
    of the input and the parameters that are not None."""
    meta = {"tool": f"invsl {__version__}", "input_sha256": input_sha256}
    meta.update({k: v for k, v in params.items() if v is not None})
    return meta


def jsonable(value):
    """Recursively convert numpy scalars/arrays and complex values; a
    non-finite float becomes the string "nan", "inf" or "-inf".  A list of
    finite [re, im] float pairs is returned as it is."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        flat = _float_pairs(value) if type(value) is list else None
        if flat is not None and all(map(math.isfinite, flat)):
            return value
        return [jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return encode_array(value)[0]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            return encode_array(value)
        return jsonable(value.ravel().tolist())
    return value
