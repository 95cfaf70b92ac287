"""Record the seed reference values the correctness gates compare against.

    python3 perfbench/make_reference.py

Run from the repository root.  Runs every task of every workload once,
untraced, and writes each task's observation (output fingerprints and gated
scalars) to perfbench/reference.json.  Re-record only when a change is
meant to move outputs beyond the gates' tolerance, and say so.
"""

import json
import shutil
import sys

import gates
import run


def main() -> int:
    reference = {}
    for workload, tasks in run.WORKLOADS.items():
        workdir = run.WORK / "reference" / workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        results = run.run_pass(workload, list(tasks), workdir, False, None)
        failed = [r.name for r in results if r.problems]
        if failed:
            print(f"error: {workload} tasks failed: {failed}", file=sys.stderr)
            return 1
        reference[workload] = {r.name: r.observation for r in results}
        shutil.rmtree(workdir)
    gates.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
