"""Benchmark of the invsl CLI: closed-loop runs of its verbs on generated files.

    python3 bench/run.py --workload hl_roundtrip --seed 1 --seconds 50 --trace 0

One client calls `invsl.cli.main([...])` in this process, one op at a time,
until `--seconds` have passed (the op in flight completes).  Every output is
checked against a reference (see workloads.py).  Between blocks of about
CAL_BLOCK_S seconds of ops the fixed kernel of calibrate.py is timed, and
the reported times are normalized by it to the reference machine speed, so
that a phase in which other tenants slow the machine down does not read as
a slower program.  BLAS runs on one thread.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` each op runs twice, untraced and then traced, and the
metrics are the per-layer ones (see spans.py), written per workload cycle.
The line before it is a context block (machine, versions, tail percentile).

The package is imported from `src/` of the checkout this file sits in;
without it the script exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3   # set-up runs per benchmark run; setup_s takes their median
CAL_BLOCK_S = 1.0   # seconds of ops between two calibration samples
TAIL_BEYOND = 10    # samples required beyond the reported tail percentile


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fwd_spectra", "hl_roundtrip", "inv_moments"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_package() -> float:
    """Import invsl from the checkout's src/ and return the import time."""
    if not (SRC / "invsl" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'invsl'}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import invsl.cli  # noqa: F401
    import calibrate  # noqa: F401
    import workloads  # noqa: F401
    elapsed = perf_counter() - t0
    if not Path(invsl.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: invsl was imported from {invsl.cli.__file__}, not {SRC}")
    return elapsed


def _openblas():
    """OpenBLAS configuration and thread count, read from the library numpy loaded."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def context(args) -> dict:
    import numpy as np
    blas, blas_threads = _openblas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas, "openblas_threads": blas_threads,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "loop": "closed, one client, sequential in-process CLI calls",
    }


class Runner:
    """Runs ops into a scratch directory and checks their outputs."""

    def __init__(self, work: Path, tracer=None, instrumentation=None):
        from invsl.cli import main as cli_main
        self.cli_main = cli_main
        self.out = work / "out"
        self.tracer = tracer
        self.instrumentation = instrumentation
        self.records = []
        self.checked = 0
        self.cal = []        # calibration kernel times, in run order
        self._block_s = 0.0  # op time since the last calibration sample

    def calibrate(self):
        """Time the calibration kernel; the ops since the previous sample
        are normalized by the mean of the samples on either side."""
        import calibrate
        self.cal.append(calibrate.kernel())
        self._block_s = 0.0

    def block_full(self):
        return self._block_s >= CAL_BLOCK_S

    def execute(self, op, op_id=None):
        shutil.rmtree(self.out, ignore_errors=True)
        argv = op.argv + ["--out", str(self.out)]
        traced = op_id is not None
        if traced:
            self.tracer.op = op_id
            self.instrumentation.install()
            self.tracer.begin("cli.main")
        t0 = perf_counter()
        try:
            rc = self.cli_main(argv)
        except Exception:  # an op that crashes counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            rc = None
        finally:
            seconds = perf_counter() - t0
            if traced:
                self.tracer.end(verb=op.argv[0])
                self.instrumentation.remove()
        ok, err = rc == 0, None
        if ok:
            self.checked += 1
            try:
                err = op.check(self.out)
            except Exception as exc:  # a malformed output fails this op only
                print(f"bench: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
        else:
            print(f"bench: {op.name}: exit code {rc}", file=sys.stderr)
        self._block_s += seconds
        self.records.append({"op": op.name, "traced": traced, "seconds": seconds,
                             "ok": ok, "err": err, "cal": len(self.cal) - 1})


def _setup(setup_fn, seed, import_s):
    """Run the workload set-up SETUP_REPEATS times, each between two samples
    of the calibration kernel, and keep the last inputs.  The set-up time is
    the import time plus the median set-up, both at the reference machine
    speed like the op times."""
    import calibrate
    WORK.mkdir(exist_ok=True)
    cal = [calibrate.kernel()]
    raw, normalized, dirs = [], [], []
    for _ in range(SETUP_REPEATS):
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        dirs.append(work)
        t0 = perf_counter()
        ops = setup_fn(seed, work)
        raw.append(perf_counter() - t0)
        cal.append(calibrate.kernel())
        normalized.append(raw[-1] * calibrate.REFERENCE_S / (0.5 * (cal[-2] + cal[-1])))
    for work in dirs[:-1]:
        shutil.rmtree(work)
    setup = {
        "setup_s": (import_s * calibrate.REFERENCE_S / statistics.median(cal)
                    + statistics.median(normalized)),
        "raw_setup_s": import_s + statistics.median(raw),
    }
    return ops, dirs[-1], setup


def normalized_times(records, cal) -> dict:
    """Each op's median time in the run at the reference machine speed: a
    sample is scaled by REFERENCE_S over the mean of the calibration samples
    taken just before and just after its block of ops."""
    import calibrate
    samples = {}
    for r in records:
        kernel_s = 0.5 * (cal[r["cal"]] + cal[r["cal"] + 1])
        samples.setdefault(r["op"], []).append(r["seconds"] * calibrate.REFERENCE_S / kernel_s)
    return {op: statistics.median(v) for op, v in samples.items()}


def end_to_end(records, cal, setup) -> tuple:
    """End-to-end metrics at the reference machine speed (see calibrate.py).
    Throughput and latency come from each op's normalized median time.  The
    raw wall times and the calibration samples go to the context line."""
    import calibrate
    import numpy as np
    untraced = [r for r in records if not r["traced"]]
    op_s = list(normalized_times(untraced, cal).values())
    times = [r["seconds"] for r in untraced]
    q = max(0.5, 1.0 - TAIL_BEYOND / len(times))
    errs = [r["err"] for r in records if r["ok"] and r["err"] is not None]
    failed = sum(not r["ok"] for r in records)
    slowdown = statistics.median(cal) / calibrate.REFERENCE_S
    metrics = {
        "problems_per_s": len(op_s) / sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": max(op_s),
        "ok_frac": 1.0 - failed / len(records),
        "max_rel_err": max(errs) if errs else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    raw = {"samples": len(times), "p50_s": statistics.median(times),
           "tail_percentile": 100.0 * q, "tail_s": float(np.quantile(times, q)),
           "problems_per_s": len(times) / sum(times), "setup_s": setup["raw_setup_s"],
           "calibration": {"samples": len(cal), "median_s": statistics.median(cal),
                           "min_s": min(cal), "max_s": max(cal), "slowdown": slowdown}}
    return metrics, raw


def per_layer(records, cal, tracer, n_ops) -> tuple:
    """Per-cycle layer metrics: counters from the first cycle, times averaged
    over complete traced cycles.  Returns (metrics, counters_repeat)."""
    import spans
    traced = [r for r in records if r["traced"]]
    cycles = len(traced) // n_ops
    totals = [spans.layer_totals(tracer, range(c * n_ops, (c + 1) * n_ops))
              for c in range(cycles)]
    counters = spans.counter_keys()
    metrics = {k: (v if k in counters else statistics.fmean(t[k] for t in totals))
               for k, v in totals[0].items()}
    repeat = all(all(t[k] == totals[0][k] for k in counters) for t in totals)

    def rate(rows):
        op_s = normalized_times(rows, cal)
        return len(op_s) / sum(op_s.values())
    untraced = rate([r for r in records if not r["traced"]])
    metrics["trace.problems_per_s"] = rate(traced)
    metrics["trace.untraced_problems_per_s"] = untraced
    metrics["trace.overhead_problems_per_s"] = metrics["trace.problems_per_s"] - untraced
    return metrics, repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Before numpy loads: one BLAS thread, so that no op waits for a second
    # vCPU the host may be lending to another tenant, and the calibration
    # kernel (one thread) sees the same machine as the ops.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_s = import_package()
    import workloads

    ops, work, setup = _setup(workloads.WORKLOADS[args.workload], args.seed, import_s)
    tracer = instrumentation = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        instrumentation = spans.Instrumentation(tracer)
    runner = Runner(work, tracer, instrumentation)
    try:
        t_start = perf_counter()
        i = 0
        runner.calibrate()
        # a traced run always completes one full cycle, so its counters are whole
        while i == 0 or perf_counter() - t_start < args.seconds or (args.trace and i < len(ops)):
            op = ops[i % len(ops)]
            runner.execute(op)
            if args.trace:
                runner.execute(op, op_id=i)
            i += 1
            if runner.block_full():
                runner.calibrate()
        runner.calibrate()  # closes the last block
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0
    ctx = context(args)
    if args.trace:
        metrics, repeat = per_layer(records, runner.cal, tracer, len(ops))
        ctx["work_counters_repeat"] = repeat
        correct = correct and repeat
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        ctx["spans_file"] = str(spans_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        metrics, ctx["raw_op_times"] = end_to_end(records, runner.cal, setup)
        wanted = spec["end_to_end"]
    ctx["ops_per_cycle"] = len(ops)
    ctx["checked"] = runner.checked
    ctx["op_s_median"] = {
        name: statistics.median(r["seconds"] for r in records
                                if r["op"] == name and not r["traced"])
        for name in dict.fromkeys(r["op"] for r in records)}
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
