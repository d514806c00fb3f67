#!/usr/bin/env python3
"""Digest of the CLI output for every request of the benchmark workloads.

    python3 scripts/stdout_digest.py <checkout> <seed> > digests.txt

Builds each workload of `<checkout>/perfbench/workloads.py` at one seed and
sends its warm-up, timed (one pass), defect-probe and fidelity requests
through `realrank2.cli.main` of `<checkout>/src`, in-process.  A job whose
later request depends on an earlier answer gets that answer judged by the
request's own oracle, as in a benchmark run.  Prints one line per request:

    <sha256 of stdout> <exit status> <workload>/<request name>

Two checkouts give the same CLI output on the benchmark when their digest
files are identical, e.g. `diff <(... parent 1) <(... change 1)`.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout, seed = Path(argv[0]).resolve(), int(argv[1])
    sys.path.insert(0, str(checkout / "perfbench"))
    import run  # perfbench/run.py: imports realrank2 from <checkout>/src only
    from workloads import WORKLOADS

    client = run.Client(run.import_cli())
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            def send(argv, label):
                status, out, *rest = client.call(argv)
                # input paths differ from run to run; keep them out of the digest
                text = out.replace(workdir, "<workdir>").encode("utf-8")
                print(f"{hashlib.sha256(text).hexdigest()} {status} {name}/{label}")
                return (status, out, *rest)

            workload = cls(seed, Path(workdir))
            for job in workload.warmup() + workload.jobs() + workload.defect_probe():
                run.run_job(job, lambda req: send(req.argv, req.name), run.Stats())
            for argv in workload.fidelity():
                send(argv, "fidelity/" + " ".join(argv).replace(workdir, "<workdir>"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
