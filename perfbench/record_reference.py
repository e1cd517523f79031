#!/usr/bin/env python3
"""Rewrite reference.json from the outputs of the fixed reference inputs.

    python3 perfbench/record_reference.py

The benchmark checks every run against this file within the tolerances
stated in workloads.py. Re-record it only for a change that is meant to
alter those outputs beyond the tolerances, and say so in that change.
"""

import json
import shutil
import sys
from pathlib import Path

import run  # pins the BLAS thread count before numpy loads


def main():
    run.import_library()
    from workloads import WORKLOADS

    references = {}
    workdir = run.ROOT / ".perfbench_work" / "reference"
    try:
        for name, cls in WORKLOADS.items():
            if not hasattr(cls, "reference_values"):
                continue
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = cls()
            workload.load(str(workdir), workload.setup(0, str(workdir)))
            values, problems = workload.reference_values()
            if problems:
                run.fail(f"{name}: reference outputs fail their checks: {problems}")
            references[name] = values
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
