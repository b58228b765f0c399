"""Record `goldens.json`: the output hash of every item at the default seed.

Run from the root of a checkout, on a commit whose outputs are known good:

    python3 perfbench/record_goldens.py

Each entry keeps the hash of the item's input as well.  A later run at
the default seed fails an item whose input differs; at other seeds it
compares an output with its golden only when the input is the same.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import workloads


def main():
    entries = {}
    work_root = tempfile.mkdtemp(prefix=".work-", dir=run.HERE)
    try:
        for workload in workloads.WORKLOADS:
            package, items, _ = run.setup(workload, workloads.DEFAULT_SEED,
                                          None, work_root)
            _, _, outputs = run.run_pass(package.cli.main, items)
            for item, (rc, out) in zip(items, outputs):
                reason = run.check_output(workload, item, rc, out)
                if reason is not None:
                    sys.exit(f"{item.name}: {reason}; no goldens written")
                entries[item.name] = {"input": item.key,
                                      "output": run.sha256(out)}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(run.GOLDENS, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "items": entries}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
