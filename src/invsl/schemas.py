"""Versioned JSON schemas for the file formats the CLI reads.

Snapshots of these schemas are kept under docs/schema/; a test pins the two
copies together.  Complex numbers are [re, im] pairs; bare reals are accepted
for polynomial coefficients.  `Validator` checks them as Draft 2020-12 does,
with a one-pass check of plain numeric arrays, and checks each schema object
against the metaschema once per process.
"""

from itertools import chain

import jsonschema

COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

NUMBER_OR_COMPLEX = {"oneOf": [{"type": "number"}, COMPLEX]}

COEFF_LIST = {"type": "array", "items": NUMBER_OR_COMPLEX, "minItems": 1}

SIGMA = {
    "type": "object",
    "required": ["interval", "samples"],
    "properties": {
        "interval": {"type": "number", "exclusiveMinimum": 0},
        "samples": {"type": "array", "items": NUMBER_OR_COMPLEX, "minItems": 17},
    },
    "additionalProperties": False,
}

ENTIRE_PAIR = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {
            "enum": ["dirichlet_right", "neumann_right",
                     "closed_form_dirichlet_right", "closed_form_neumann_right",
                     "constant", "hl_right_half"]
        },
        "f1": NUMBER_OR_COMPLEX,
        "f2": NUMBER_OR_COMPLEX,
        "sigma": SIGMA,
        "r1": COEFF_LIST,
        "r2": COEFF_LIST,
    },
    # the keys each kind reads
    "allOf": [
        {"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
         "then": {"required": keys}}
        for kind, keys in (("constant", ["f1", "f2"]), ("hl_right_half", ["sigma", "r1", "r2"]))
    ],
}

PROBLEM_V1 = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "invsl/problem-v1",
    "type": "object",
    "required": ["schema", "sigma", "p1", "p2", "f"],
    "properties": {
        "schema": {"const": "invsl/problem-v1"},
        "sigma": SIGMA,
        "p1": COEFF_LIST,
        "p2": COEFF_LIST,
        "f": ENTIRE_PAIR,
        "subspectrum": {"type": "array", "items": NUMBER_OR_COMPLEX},
    },
    "additionalProperties": False,
}

TWO_SIDED_V1 = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "invsl/two_sided-v1",
    "type": "object",
    "required": ["schema", "sigma", "p1", "p2", "r1", "r2"],
    "properties": {
        "schema": {"const": "invsl/two_sided-v1"},
        "sigma": SIGMA,
        "p1": COEFF_LIST,
        "p2": COEFF_LIST,
        "r1": COEFF_LIST,
        "r2": COEFF_LIST,
    },
    "additionalProperties": False,
}

SUBSPECTRUM_V1 = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "invsl/subspectrum-v1",
    "type": "object",
    "required": ["schema", "lambdas"],
    "properties": {
        "schema": {"const": "invsl/subspectrum-v1"},
        "lambdas": {"type": "array", "items": NUMBER_OR_COMPLEX, "minItems": 1},
    },
    "additionalProperties": False,
}

ALL = {
    "problem-v1": PROBLEM_V1,
    "two_sided-v1": TWO_SIDED_V1,
    "subspectrum-v1": SUBSPECTRUM_V1,
}


# a JSON number loads as int or float; bool subclasses int but is no number
_NUMBER = {int, float}


def _numbers_or_pairs(instance):
    """Whether every item of a list is a number or a [re, im] pair of numbers,
    read from the sets of the items' types and the pairs' lengths."""
    kinds = set(map(type, instance))
    if kinds <= _NUMBER:
        return True
    if not kinds <= _NUMBER | {list}:
        return False
    pairs = instance if kinds == {list} else [x for x in instance if type(x) is list]
    return set(map(len, pairs)) == {2} and set(map(type, chain.from_iterable(pairs))) <= _NUMBER


_stock_items = jsonschema.Draft202012Validator.VALIDATORS["items"]


def _items(validator, items, instance, schema):
    """`items`, accepting an array of plain numbers and [re, im] pairs at once.

    Any other array goes to the stock keyword (`oneOf` per item), so errors
    and their messages are unchanged.
    """
    if items == NUMBER_OR_COMPLEX and type(instance) is list and _numbers_or_pairs(instance):
        return
    yield from _stock_items(validator, items, instance, schema)


Validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, {"items": _items})

# The metaschema check of the schemas above costs 5-32 ms, against ~1 ms for
# validating a document, and `jsonschema.validate` repeats it on every call.  Its
# outcome is fixed for a schema object that is not mutated, so each one that
# passes is remembered for the process; the memo holds the object, which
# keeps its id from being reused.
_meta_check = Validator.check_schema
_checked = {}


def _check_schema_once(cls, schema, *args, **kwargs):
    """`check_schema` that runs once per schema object (always with extra arguments)."""
    if args or kwargs:
        return _meta_check(schema, *args, **kwargs)
    if _checked.get(id(schema)) is not schema:
        _meta_check(schema)
        _checked[id(schema)] = schema


Validator.check_schema = classmethod(_check_schema_once)
