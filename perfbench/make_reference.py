"""Write the reference path tables that run.py checks every output against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each table is what ``write_path`` writes for the full-size workload at seed 42.
Regenerate only when a change is meant to alter the path; the committed tables
were made from the engine before any optimisation.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK, load_program


def main(names):
    if load_program() is None:
        print("cannot import cvarpath from src/", file=sys.stderr)
        return 2
    import cvarpath
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        target = workloads.reference_for(workload, workloads.REFERENCE_SEED)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            workdir = Path(tmp)
            matrix, _ = workloads.setup(workload, workloads.REFERENCE_SEED, workdir)
            workloads.save_inputs(workload, matrix, workdir)
            timed = workloads.Timed(workload, workdir, reference=None)
            outcome = timed.call()
            if not workload.via_cli:
                cvarpath.write_path(outcome, timed.output)
            shutil.copyfile(timed.output, target)
            problems = timed.check(outcome)
        if problems:
            target.unlink()
            print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
