"""Digest of every CLI output of the benchmark's three workloads, one line per op,
or a field-by-field comparison of those outputs between two checkouts.

    python3 tools/cli_digest.py CHECKOUT SEED
    python3 tools/cli_digest.py --compare OLD NEW SEED

Sets up the ops of CHECKOUT/bench/workloads.py (fwd_spectra, hl_roundtrip
and inv_moments at SEED) in a temporary directory, runs each op once through
`invsl.cli.main` with the package imported from CHECKOUT/src only, and
prints per op its name, its exit code (or the exception it raised) and a
sha256 over its output files (name and bytes, in name order), its standard
output and its standard error.  The outputs embed no input path, so two
checkouts that compute the same numbers print the same lines:

    diff <(python3 tools/cli_digest.py OLD 0) <(python3 tools/cli_digest.py NEW 0)

`--compare` runs the ops of both checkouts, each in its own process, and
prints per op and per numeric field max |new - old| / max |old| (the plain
max |new - old| where old is all zero).  A field is a key path of a JSON
file with list positions merged, a column of a CSV file, or the numbers of
standard output or error.  It exits 1, naming the difference, when an exit
code, a file name, the structure of a file or any non-numeric leaf differs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from harness import import_checkout


def run_ops(checkout: Path, seed: int, visit):
    """Run every op of `checkout`'s workloads at `seed`, in workload order, and
    call visit(name, exit code, output directory, stdout, stderr) after each;
    SystemExit when invsl is imported from anywhere but `checkout`."""
    import_checkout(checkout, "cli_digest")
    sys.path.insert(1, str(checkout / "bench"))
    import workloads
    from invsl.cli import main as cli_main
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        for name, setup in workloads.WORKLOADS.items():
            work = Path(tmp) / name
            work.mkdir()
            for op in setup(seed, work):
                out = Path(tmp) / "out"
                shutil.rmtree(out, ignore_errors=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        rc = cli_main(op.argv + ["--out", str(out)])
                    except Exception as exc:  # a crash is this op's result; the rest still run
                        rc = f"raised-{type(exc).__name__}"
                visit(op.name, rc, out, stdout.getvalue(), stderr.getvalue())


def digest(out: Path, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")) if out.is_dir() else []:
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(b"stdout\0" + stdout.encode() + b"\0stderr\0" + stderr.encode())
    return h.hexdigest()


def save_outputs(checkout: str, seed: str, dest: str) -> None:
    """Keep every op's outputs under dest/NN (NN its position in run order),
    with its name, exit code, stdout and stderr in dest/NN.op.json."""
    count = 0

    def keep(name, rc, out, stdout, stderr):
        nonlocal count
        slot = Path(dest) / f"{count:03d}"
        count += 1
        if out.is_dir():
            shutil.copytree(out, slot)
        slot.with_suffix(".op.json").write_text(
            json.dumps({"name": name, "rc": rc, "stdout": stdout, "stderr": stderr}))

    run_ops(Path(checkout), int(seed), keep)


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_leaves(node, path):
    """(path, leaf) of parsed JSON in document order, list positions merged
    into "[]"; a dict contributes its key tuple and a list its length as a
    structure leaf, so that a changed structure shows as a changed leaf."""
    if isinstance(node, dict):
        yield path + "{}", tuple(node)
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        yield path + "#", len(node)
        for value in node:
            yield from _json_leaves(value, path + "[]")
    else:
        yield path, node


def _csv_leaves(text, path):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    yield path + "#header", tuple(header)
    yield path + "#rows", len(rows)
    for row in rows[1:]:
        yield path + "#width", len(row)
        for column, cell in zip(header, row):
            try:
                yield f"{path}.{column}", float(cell)
            except ValueError:
                yield f"{path}.{column}", cell


def _text_leaves(text, path):
    """Numbers of a text as numeric leaves, the text between them as others."""
    for k, part in enumerate(_NUMBER.split(text)):
        yield (path + "[]", float(part)) if k % 2 else (path + "#text", part)


def _leaves(slot: Path, op: dict):
    yield "exit code", op["rc"]
    files = sorted(p.relative_to(slot).as_posix() for p in slot.rglob("*") if p.is_file()) \
        if slot.is_dir() else []
    yield "files", tuple(files)
    for name in files:
        data = (slot / name).read_bytes()
        if name.endswith(".json"):
            yield from _json_leaves(json.loads(data), name)
        elif name.endswith(".csv"):
            yield from _csv_leaves(data.decode(), name)
        else:
            yield name, data
    yield from _text_leaves(op["stdout"], "stdout")
    yield from _text_leaves(op["stderr"], "stderr")


def compare(old: Path, new: Path) -> int:
    """Print the field table of two `save_outputs` directories; 1 on any
    difference that is not numeric, else 0."""
    failures = []
    old_ops = sorted(old.glob("*.op.json"))
    if len(old_ops) != len(list(new.glob("*.op.json"))):
        failures.append("the checkouts run different numbers of ops")
    for old_op in old_ops:
        new_op = new / old_op.name
        if not new_op.exists():
            continue
        op_o, op_n = (json.loads(p.read_text()) for p in (old_op, new_op))
        name = op_o["name"]
        if op_n["name"] != name:
            failures.append(f"op {old_op.name}: {name} against {op_n['name']}")
            continue
        slot = old_op.name.split(".")[0]
        diff, scale, fields = defaultdict(float), defaultdict(float), []
        leaves_o, leaves_n = list(_leaves(old / slot, op_o)), list(_leaves(new / slot, op_n))
        if len(leaves_o) != len(leaves_n):
            failures.append(f"{name}: {len(leaves_o)} leaves against {len(leaves_n)}")
        for (path, a), (path_n, b) in zip(leaves_o, leaves_n):
            numeric = _is_number(a) and _is_number(b) and math.isfinite(a) and math.isfinite(b)
            if path != path_n or not (numeric or a == b):
                failures.append(f"{name}: {path} = {a!r:.80} against {path_n} = {b!r:.80}")
                break
            if numeric:
                if path not in scale:
                    fields.append(path)
                diff[path] = max(diff[path], abs(b - a))
                scale[path] = max(scale[path], abs(a))
        for path in fields:
            rel = diff[path] / scale[path] if scale[path] > 0 else diff[path]
            print(f"{name}\t{path}\t{rel:.3g}")
    for line in failures:
        print("DIFFERS", line)
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 4 and argv[0] == "--compare":
        _, old, new, seed = argv
        with tempfile.TemporaryDirectory(prefix="cli-compare-") as tmp:
            for checkout, dest in ((old, "old"), (new, "new")):
                subprocess.run([sys.executable, "-c",
                                "import sys, cli_digest; cli_digest.save_outputs(*sys.argv[1:])",
                                str(Path(checkout).resolve()), seed, str(Path(tmp) / dest)],
                               cwd=Path(__file__).resolve().parent, check=True)
            return compare(Path(tmp) / "old", Path(tmp) / "new")
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout, seed = Path(argv[0]), int(argv[1])
    run_ops(checkout, seed, lambda name, rc, out, stdout, stderr:
            print(name, rc, digest(out, stdout, stderr), flush=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
