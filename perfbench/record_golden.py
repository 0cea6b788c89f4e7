"""Record the stdout and exit code of every fixed job as the golden copy.

    python3 perfbench/record_golden.py

Run it only on a commit whose answers are known to be right; every
benchmark run compares each fixed job against this record byte for
byte.  verify-sweep has no record: the Hochster oracle checks it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import worker
import workloads


def main() -> int:
    os.environ["FACE_TOR_THREADS"] = "1"
    golden = {}
    worker.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK_DIR) as tmp:
        paths = worker.write_documents(workloads.FIXED_DOCUMENTS, tmp)
        for jobs in workloads.FIXED_JOBS.values():
            for job in jobs:
                rc, stdout, error = worker.run_job(workloads.argv(job, paths))
                if error is not None:
                    print(f"{workloads.label(job)}: {error}", file=sys.stderr)
                    return 1
                golden[workloads.label(job)] = {"exit": rc, "stdout": stdout}
    with open(worker.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} jobs in {worker.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
