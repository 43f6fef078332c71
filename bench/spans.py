"""In-memory spans and work counters around the package's public functions.

Each wrapper is installed at the name the caller looks up (for example
`invsl.forward.endpoint_data`, which `char_pair` calls, rather than
`invsl.ode.endpoint_data`), passes arguments and results through unchanged,
and records a span: name, start, end, parent span and the CLI op it belongs
to.  A span's self time is its duration minus the durations of its direct
children; calls nest strictly because the benchmark runs one op at a time in
one thread.  Counters are exact functions of the inputs, so two traced runs
with the same seed must report identical counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import Counter
from time import perf_counter

SMALL_BATCH = 64  # lambdas per propagator call at or below which a call is "small"


class Tracer:
    def __init__(self):
        self.spans = []          # finished spans, in closing order
        self.counters = {}       # op id -> Counter
        self._stack = []         # open spans: [id, name, t0, child_s]
        self._next_id = 0
        self.op = None

    def count(self, key, amount=1):
        self.counters.setdefault(self.op, Counter())[key] += amount

    def begin(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def end(self, **fields):
        t1 = perf_counter()
        sid, name, t0, child_s = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        span = {"id": sid, "parent": parent[0] if parent else None, "op": self.op,
                "name": name, "t0": t0, "t1": t1, "dur": dur, "self_s": dur - child_s}
        span.update(fields)
        self.spans.append(span)
        return span

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _lam_size(lam):
    return int(getattr(lam, "size", 1))


def _ode_endpoint(tracer, args, kwargs, result):
    sigma, lam = args[0], args[1]
    deriv = kwargs.get("derivative", args[2] if len(args) > 2 else False)
    return sigma.m, _lam_size(lam), 2 * (2 if deriv else 1)


def _ode_psi(tracer, args, kwargs, result):
    sigma, lam = args[0], args[2]
    deriv = kwargs.get("derivative", args[3] if len(args) > 3 else False)
    return sigma.m, _lam_size(lam), 2 if deriv else 1


def _propagator(tracer, args, kwargs, result, shape):
    cells, batch, solutions = shape(tracer, args, kwargs, result)
    size = "small" if batch <= SMALL_BATCH else "large"
    work = cells * batch * solutions
    tracer.count("ode.calls")
    tracer.count("ode.cell_lambda", work)
    tracer.count("ode.cell_lambda.batch_" + size, work)
    return {"batch": size, "cell_lambda": work}


def _count_roots(tracer, args, kwargs, result):
    tracer.count("forward.roots", len(result))


def _count_rows(tracer, args, kwargs, result):
    tracer.count("moments.rows", len(args[0]))


def _count_design(tracer, args, kwargs, result):
    rows, cols = result[0].shape
    tracer.count("reconstruct.design_cells", rows * cols)


def _count_solve(tracer, args, kwargs, result):
    tracer.count("reconstruct.solve_moment.calls")


def _count_psi(tracer, args, kwargs, result):
    tracer.count("halfinverse.psi_mid.calls")
    return _propagator(tracer, args, kwargs, result, _ode_psi)


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("serialize.bytes_out", len(result.encode()))


def _span(tracer, fn, name, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        fields = {}
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                fields = hook(tracer, args, kwargs, result) or {}
            return result
        finally:
            tracer.end(**fields)
    return wrapper


def _counted(tracer, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _make_delta(tracer, fn):
    """Wrap the (delta, ddelta) closures that make_delta returns."""
    def closure(inner, name):
        if inner is None:
            return None

        def hook(tracer_, args, kwargs, result):
            tracer_.count(f"forward.{name}_calls")
            tracer_.count("forward.delta_points", _lam_size(args[0]))
        return _span(tracer, inner, f"forward.{name}", hook)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        delta, ddelta = fn(*args, **kwargs)
        return closure(delta, "delta"), closure(ddelta, "ddelta")
    return wrapper


def _schemas_proxy(tracer, module):
    return types.SimpleNamespace(
        validate=_span(tracer, module.validate, "schemas.validate"),
        ValidationError=module.ValidationError)


def _ode(shape):
    return lambda tracer, args, kwargs, result: _propagator(tracer, args, kwargs, result, shape)


# (module, attribute, how to wrap) for every lookup site the CLI verbs reach.
# The rank-evidence moment build in halfinverse is counted but gets no span,
# so its own time stays in hl_reconstruct's self time.
SITES = [
    ("invsl.forward", "endpoint_data", ("span", "ode.endpoint_data", _ode(_ode_endpoint))),
    ("invsl.halfinverse", "psi_mid", ("span", "halfinverse.psi_mid", _count_psi)),
    ("invsl.cli", "make_delta", ("delta",)),
    ("invsl.halfinverse", "make_delta", ("delta",)),
    ("invsl.cli", "find_eigenvalues", ("span", "forward.find_eigenvalues", _count_roots)),
    ("invsl.halfinverse", "find_eigenvalues", ("span", "forward.find_eigenvalues", _count_roots)),
    ("invsl.cli", "extract_cauchy", ("span", "forward.extract_cauchy", None)),
    ("invsl.cli", "weyl", ("span", "forward.weyl", None)),
    ("invsl.reconstruct", "build_moment_system",
     ("span", "moments.build_moment_system", _count_rows)),
    ("invsl.halfinverse", "build_moment_system", ("count", _count_rows)),
    ("invsl.cli", "basis_diagnostics", ("span", "moments.basis_diagnostics", None)),
    ("invsl.cli", "xi_identity_residual", ("span", "moments.xi_identity_residual", None)),
    ("invsl.reconstruct", "solve_moment", ("span", "reconstruct.solve_moment", _count_solve)),
    ("invsl.reconstruct", "moment_design", ("count", _count_design)),
    ("invsl.halfinverse", "completeness_ratio",
     ("span", "reconstruct.completeness_ratio", None)),
    ("invsl.cli", "reconstruct", ("span", "reconstruct.reconstruct", None)),
    ("invsl.halfinverse", "reconstruct", ("span", "reconstruct.reconstruct", None)),
    ("invsl.reconstruct", "reconstruct", ("span", "reconstruct.reconstruct", None)),
    ("invsl.cli", "stability_experiment",
     ("span", "reconstruct.stability_experiment", None)),
    ("invsl.cli", "hl_spectrum", ("span", "halfinverse.hl_spectrum", None)),
    ("invsl.cli", "hl_reconstruct", ("span", "halfinverse.hl_reconstruct", None)),
    ("invsl.cli", "canonical_dumps", ("span", "serialize.canonical_dumps", _count_bytes)),
    ("invsl.serialize", "canonical_dumps", ("span", "serialize.canonical_dumps", None)),
    ("invsl.cli", "jsonschema", ("schemas",)),
]


class Instrumentation:
    """Installs the wrappers of SITES for one tracer; `remove` restores the originals."""

    def __init__(self, tracer):
        self._saved = []
        self._wrapped = []
        for mod_name, attr, how in SITES:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            if how[0] == "span":
                new = _span(tracer, original, how[1], how[2])
            elif how[0] == "count":
                new = _counted(tracer, original, how[1])
            elif how[0] == "delta":
                new = _make_delta(tracer, original)
            else:
                new = _schemas_proxy(tracer, original)
            self._saved.append((module, attr, original))
            self._wrapped.append((module, attr, new))

    def install(self):
        for module, attr, new in self._wrapped:
            setattr(module, attr, new)

    def remove(self):
        for module, attr, original in self._saved:
            setattr(module, attr, original)


def layer_totals(tracer, op_ids) -> dict:
    """Per-layer times and counters summed over the given ops."""
    ops = set(op_ids)
    spans = [s for s in tracer.spans if s["op"] in ops]
    total = Counter()
    for op in ops:
        total.update(tracer.counters.get(op, Counter()))
    out = {}

    def busy(names, attr, pred=lambda s: True):
        return sum(s[attr] for s in spans if s["name"] in names and pred(s))

    ode = ("ode.endpoint_data", "halfinverse.psi_mid")
    out["ode.calls"] = total["ode.calls"]
    out["ode.cell_lambda"] = total["ode.cell_lambda"]
    out["ode.busy_s"] = busy(ode, "self_s")
    for size in ("small", "large"):
        out[f"ode.busy_s.batch_{size}"] = busy(ode, "self_s", lambda s: s.get("batch") == size)
        out[f"ode.cell_lambda.batch_{size}"] = total[f"ode.cell_lambda.batch_{size}"]
    for suffix in ("", ".batch_small", ".batch_large"):
        work = out["ode.cell_lambda" + suffix]
        out["ode.ns_per_cell_lambda" + suffix] = (
            1e9 * out["ode.busy_s" + suffix] / work if work else 0.0)
    out["forward.delta_calls"] = total["forward.delta_calls"]
    out["forward.ddelta_calls"] = total["forward.ddelta_calls"]
    out["forward.delta_points"] = total["forward.delta_points"]
    out["forward.points_per_root"] = (
        total["forward.delta_points"] / total["forward.roots"] if total["forward.roots"] else 0.0)
    out["forward.find_eigenvalues.self_s"] = busy({"forward.find_eigenvalues"}, "self_s")
    out["forward.extract_cauchy.s"] = busy({"forward.extract_cauchy"}, "dur")
    out["forward.weyl.s"] = busy({"forward.weyl"}, "dur")
    out["moments.build_moment_system.self_s"] = busy({"moments.build_moment_system"}, "self_s")
    out["moments.rows"] = total["moments.rows"]
    out["moments.basis_diagnostics.s"] = busy({"moments.basis_diagnostics"}, "dur")
    out["reconstruct.solve_moment.calls"] = total["reconstruct.solve_moment.calls"]
    out["reconstruct.solve_moment.s"] = busy({"reconstruct.solve_moment"}, "dur")
    out["reconstruct.completeness_ratio.s"] = busy({"reconstruct.completeness_ratio"}, "dur")
    out["reconstruct.design_cells"] = total["reconstruct.design_cells"]
    out["reconstruct.stability_experiment.self_s"] = busy(
        {"reconstruct.stability_experiment"}, "self_s")
    out["halfinverse.hl_spectrum.s"] = busy({"halfinverse.hl_spectrum"}, "dur")
    out["halfinverse.hl_reconstruct.self_s"] = busy({"halfinverse.hl_reconstruct"}, "self_s")
    out["halfinverse.psi_mid.calls"] = total["halfinverse.psi_mid.calls"]
    out["cli.self_s"] = busy({"cli.main"}, "self_s")
    out["serialize.canonical_dumps.s"] = busy({"serialize.canonical_dumps"}, "dur")
    out["serialize.bytes_out"] = total["serialize.bytes_out"]
    out["schemas.validate.s"] = busy({"schemas.validate"}, "dur")
    out["trace.spans"] = len(spans)
    return out


def counter_keys():
    """Names in `layer_totals` that are exact work counts rather than times."""
    return [
        "ode.calls", "ode.cell_lambda", "ode.cell_lambda.batch_small",
        "ode.cell_lambda.batch_large", "forward.delta_calls", "forward.ddelta_calls",
        "forward.delta_points", "forward.points_per_root", "moments.rows",
        "reconstruct.solve_moment.calls", "reconstruct.design_cells",
        "halfinverse.psi_mid.calls", "serialize.bytes_out", "trace.spans",
    ]
