"""The traced benchmark (bench/spans.py) still finds every function it wraps.

The wrappers sit at the names callers look up, so a rename in the package
would otherwise surface only when a traced benchmark run fails.
"""

import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest

from invsl import cli, halfinverse, schemas
from invsl.errors import SchemaError
from invsl.problems import hl_zero_instance

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves(spans):
    # building looks up every (module, attribute) of SITES; nothing is installed
    spans.Instrumentation(spans.Tracer())


def test_hl_spectrum_reaches_the_traced_sites(spans):
    # forward.points_per_root counts the delta points of hl_spectrum only if
    # they pass through halfinverse.make_delta's closures and its roots
    # through halfinverse.find_eigenvalues, and the propagator time only
    # through forward.endpoint_data and halfinverse.psi_mid
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.install()
    try:
        halfinverse.hl_spectrum(hl_zero_instance(64), 8)
    finally:
        instrumentation.remove()
    counts = tracer.counters[None]
    assert counts["forward.roots"] == 8
    assert counts["forward.delta_points"] > 0 and counts["forward.delta_calls"] > 0
    assert counts["halfinverse.psi_mid.calls"] > 0
    assert {"ode.endpoint_data", "halfinverse.psi_mid"} <= {s["name"] for s in tracer.spans}


def test_load_validates_through_the_traced_proxy(spans, monkeypatch, tmp_path):
    tracer = spans.Tracer()
    calls = []
    validate = jsonschema.validate

    def recording_validate(*args, **kwargs):
        calls.append(kwargs.get("cls"))
        return validate(*args, **kwargs)

    monkeypatch.setattr(jsonschema, "validate", recording_validate)
    monkeypatch.setattr(cli, "jsonschema", spans._schemas_proxy(tracer, jsonschema))
    obj = cli._load(str(ROOT / "tests" / "golden" / "step_problem.json"), "problem-v1")
    assert obj["schema"] == "invsl/problem-v1"
    assert calls == [schemas.Validator]
    assert [s["name"] for s in tracer.spans] == ["schemas.validate"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(obj, p1=[True])))
    with pytest.raises(SchemaError):
        cli._load(str(bad), "problem-v1")
    assert len(tracer.spans) == 2
