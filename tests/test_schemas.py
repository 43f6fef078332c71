"""The package's schema validator: stock Draft 2020-12 results on mutated documents,
and one metaschema check per schema."""

import copy
import json

import jsonschema
import pytest

from invsl import cli, schemas

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SIGMA = {"interval": 3.14, "samples": [0.0] * 9 + [[0.1, 0.0]] * 4 + [1, -2, 0.5, [3, 4]]}
BASES = {
    "problem-v1": {"schema": "invsl/problem-v1", "sigma": SIGMA, "p1": [1.0], "p2": [[0.5, 0.0]],
                   "f": {"kind": "constant", "f1": 1.0, "f2": [0.0, 0.0]},
                   "subspectrum": [1.0, [2.0, 0.1]]},
    "two_sided-v1": {"schema": "invsl/two_sided-v1", "sigma": SIGMA, "p1": [1], "p2": [0.0],
                     "r1": [1.0], "r2": [[0, 0], 1]},
    "subspectrum-v1": {"schema": "invsl/subspectrum-v1", "lambdas": [1.0, 4, [9.0, 0.0]]},
}
ITEM = st.one_of(st.floats(), st.integers(), st.booleans(), st.none())
MUTANTS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=2), st.integers(), st.floats(),
    st.just(10**400), st.just(float("nan")),
    st.lists(ITEM, max_size=3),                                  # 0- to 3-element lists
    st.lists(st.lists(ITEM, max_size=3), min_size=1, max_size=2),  # nested lists
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


def _sites(node, path=()):
    """Paths to every value below the root."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _sites(value, path + (index,))


def _errors(validator, doc):
    return [(e.message, list(e.absolute_path)) for e in validator.iter_errors(doc)]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_validator_matches_stock_draft(name, data):
    doc = copy.deepcopy(BASES[name])
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_sites(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(MUTANTS)
    _assert_same_as_stock(name, doc)


@pytest.mark.parametrize("lambdas, valid", [
    ([[True, 0.5], 1.0], False),            # a bool inside a pair
    ([1.0, [1.0, 2.0, 3.0]], False),        # a 3-list
    ([1.0, "2.0", [3.0, 0.0]], False),      # a string
    ([[1, 2], [3, 4]], True),               # int pairs
    ([1, [2.0, 0.5], 3.5, [4, -1.0]], True),  # mixed numbers and pairs
])
def test_numeric_arrays_as_stock_draft(lambdas, valid):
    doc = {"schema": "invsl/subspectrum-v1", "lambdas": lambdas}
    assert schemas.Validator(schemas.SUBSPECTRUM_V1).is_valid(doc) == valid
    _assert_same_as_stock("subspectrum-v1", doc)


def _assert_same_as_stock(name, doc):
    """The package's validator gives the stock Draft 2020-12 verdict, errors and best match."""
    fast = schemas.Validator(schemas.ALL[name])
    stock = jsonschema.Draft202012Validator(schemas.ALL[name])
    assert fast.is_valid(doc) == stock.is_valid(doc)
    assert _errors(fast, doc) == _errors(stock, doc)
    fast_best, stock_best = (jsonschema.exceptions.best_match(v.iter_errors(doc))
                             for v in (fast, stock))
    assert (fast_best and fast_best.message) == (stock_best and stock_best.message)


def test_bases_are_valid():
    for name, doc in BASES.items():
        schemas.Validator(schemas.ALL[name]).validate(doc)


def test_each_schema_checked_once(monkeypatch, tmp_path):
    # cli._load calls jsonschema.validate, which checks the schema against
    # the metaschema before validating; that check runs once per schema
    checked = []
    meta_check = schemas._meta_check

    def recording(schema, *args, **kwargs):
        checked.append(schema.get("$id"))
        return meta_check(schema, *args, **kwargs)

    monkeypatch.setattr(schemas, "_checked", {})
    monkeypatch.setattr(schemas, "_meta_check", recording)
    for name, doc in BASES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for _ in range(3):
            assert cli._load(str(path), name)[0] == doc
    assert sorted(checked) == sorted(schema["$id"] for schema in schemas.ALL.values())

    # an invalid schema is never remembered, so it raises every time
    bad = {"type": 5}
    for _ in range(2):
        with pytest.raises(jsonschema.SchemaError):
            jsonschema.validate({}, bad, cls=schemas.Validator)
    assert checked.count(None) == 2
