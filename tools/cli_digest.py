"""Digest of every CLI output of the benchmark's three workloads, one line per op.

    python3 tools/cli_digest.py CHECKOUT SEED

Sets up the ops of CHECKOUT/bench/workloads.py (fwd_spectra, hl_roundtrip
and inv_moments at SEED) in a temporary directory, runs each op once through
`invsl.cli.main` with the package imported from CHECKOUT/src only, and
prints per op its name, its exit code (or the exception it raised) and a
sha256 over its output files (name and bytes, in name order), its standard
output and its standard error.  The outputs embed no input path, so two
checkouts that compute the same numbers print the same lines:

    diff <(python3 tools/cli_digest.py OLD 0) <(python3 tools/cli_digest.py NEW 0)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path


def import_checkout(checkout: Path):
    """`invsl.cli.main` and the workloads module of `checkout`; SystemExit
    when invsl is imported from anywhere else."""
    src = (checkout / "src").resolve()
    sys.path[:0] = [str(src), str(checkout / "bench")]
    import invsl.cli
    import workloads
    if not Path(invsl.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cli_digest: invsl was imported from {invsl.cli.__file__}, not {src}")
    return invsl.cli.main, workloads


def digest(out: Path, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")) if out.is_dir() else []:
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(b"stdout\0" + stdout.encode() + b"\0stderr\0" + stderr.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    checkout, seed = Path(argv[0]), int(argv[1])
    cli_main, workloads = import_checkout(checkout)
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
                print(op.name, rc, digest(out, stdout.getvalue(), stderr.getvalue()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
