"""Rewrite the stored reference outputs from the current sources:

    python3 perfbench/make_reference.py

Run it only when a change to the program's numbers is intended and stated;
the benchmark compares every default-seed run against these files.
"""

from __future__ import annotations

import shutil
import sys
import warnings

from run import REFERENCE_DIR, SRC, WORK_ROOT, WORKLOADS, Runner

sys.path.insert(0, str(SRC))

import focalrisk.cli as cli  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_UNITS, make_workload  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore")
    for name in WORKLOADS:
        work = WORK_ROOT / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        wl = make_workload(name, DEFAULT_SEED, work)
        runner = Runner(wl, cli)
        for ui in range(REFERENCE_UNITS.get(name, len(wl.units))):
            runner.unit(ui, 0)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        target = REFERENCE_DIR / name
        shutil.rmtree(target, ignore_errors=True)
        for path, rel in wl.reference_files():
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target / rel)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
