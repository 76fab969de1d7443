"""focalrisk benchmark: runs one workload through ``focalrisk.cli.main`` and
prints its metrics.

    python3 perfbench/run.py --workload study --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run (see ``tracer.py``), and the spans are written to
``.perfbench/trace-<workload>.jsonl``. The lines before it give the run's
context, the error rate and the reference comparison. Every command's output
is checked (``workloads.py``); ``failed`` counts failed commands and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import monotonic_ns, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".perfbench"
WORKLOADS = ("study", "bounds", "coverage", "single-sample")
SETUP_PROBES = 6
# on single-sample, >= 10 data-set latencies beyond p90
MIN_DATASETS = 100
# Thread pools of the numeric libraries, capped at nproc for this process and its children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# A fresh interpreter imports the CLI and builds its parser, then reports the
# time elapsed since the parent stamped t0 just before starting it.
_SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import focalrisk.cli\n"
    "focalrisk.cli.build_parser()\n"
    "print(time.monotonic_ns() - int(sys.argv[2]))\n"
)


def cap_threads() -> int:
    nproc = os.cpu_count() or 1
    threads = nproc
    for var in THREAD_VARS:
        try:
            threads = min(threads, max(1, int(os.environ.get(var, nproc))))
        except ValueError:
            pass
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def setup_times(probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter until build_parser() returns,
    each probe on the next CPU in turn (see Runner.loop). Call after importing
    focalrisk here, so its bytecode is compiled and cached."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for i in range(probes):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # the child inherits it
            t0 = monotonic_ns()
            done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(t0)],
                                  capture_output=True, text=True, timeout=120, check=True)
            times.append(int(done.stdout.strip()) / 1e9)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _digest(out: Path) -> tuple[str, int]:
    h, size = hashlib.sha256(), 0
    for path in sorted(out.rglob("*")) if out.is_dir() else ():
        if path.is_file():
            data = path.read_bytes()
            h.update(str(path.relative_to(out)).encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


class Runner:
    """Runs a workload's commands, timing each and checking that every exit
    code is 0 and that every rerun of a command writes the same bytes."""

    def __init__(self, workload, cli):
        self.wl = workload
        self.cli = cli
        self.tracer = None  # set for a traced phase, after Tracer.install()
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_written: dict[int, int] = defaultdict(int)
        self._first_digest: dict[tuple[int, int], str] = {}

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def unit(self, ui: int, iteration: int) -> float:
        unit = self.wl.units[ui]
        elapsed = 0.0
        for ci, (argv, out) in enumerate(zip(unit.commands, unit.outs)):
            shutil.rmtree(out, ignore_errors=True)
            start = perf_counter()
            try:
                code = self.tracer.call(self.cli.main, argv) if self.tracer else self.cli.main(argv)
            except Exception:  # a crash fails this command; the run goes on
                code = traceback.format_exc(limit=-2)
            elapsed += perf_counter() - start
            self.expect(code == 0, f"focalrisk {' '.join(argv)}: exit {code}")
            digest, size = _digest(out)
            self.bytes_written[iteration] += size
            first = self._first_digest.get((ui, ci))
            if first is None:
                self._first_digest[(ui, ci)] = digest
            else:
                self.expect(first == digest, f"focalrisk {' '.join(argv)}: output bytes changed between runs")
        return elapsed

    def iteration(self, iteration: int) -> tuple[float, list[float]]:
        """(iteration time, per-data-set latency of each unit), in seconds."""
        if self.tracer:
            self.tracer.iteration = iteration
        times = [self.unit(ui, iteration) for ui in range(len(self.wl.units))]
        return sum(times), [t / u.datasets for t, u in zip(times, self.wl.units)]

    def loop(self, seconds: float, first: int) -> list[tuple[float, list[float]]]:
        """Whole iterations until ``seconds`` have passed and MIN_DATASETS
        data sets are processed."""
        cpus = sorted(os.sched_getaffinity(0))
        results, start = [], perf_counter()
        try:
            while (perf_counter() - start < seconds
                   or len(results) * self.wl.datasets_per_iteration < MIN_DATASETS):
                # On a shared host each CPU's speed drifts on its own for tens of
                # seconds; taking the CPUs in turn averages their states.
                os.sched_setaffinity(0, {cpus[len(results) % len(cpus)]})
                results.append(self.iteration(first + len(results)))
        finally:
            os.sched_setaffinity(0, cpus)
        return results

    def warm_up(self) -> None:
        """Lazy imports and first-call costs, paid once before timing (one
        unit of each data-set size on single-sample)."""
        for ui in range(min(2, len(self.wl.units))):
            self.unit(ui, -1)

    def check_outputs(self) -> None:
        attempted, failures = self.wl.check()
        self.attempted += attempted
        self.failures += failures

    def compare_references(self) -> tuple[int, int]:
        """Numbers within 1e-7 of the stored reference outputs (counted as checks);
        returns (files byte-identical to their reference, files compared)."""
        from workloads import compare_numbers

        ref_dir = REFERENCE_DIR / self.wl.name
        stored = {str(p.relative_to(ref_dir)) for p in ref_dir.rglob("*") if p.is_file()}
        identical = compared = 0
        for path, rel in self.wl.reference_files():
            ref = ref_dir / rel
            stored.discard(rel)
            if not ref.is_file():
                self.expect(False, f"{self.wl.name}: no reference for {rel}")
                continue
            got, want = path.read_text(), ref.read_text()
            mismatch = compare_numbers(got, want)
            self.expect(mismatch is None, f"{self.wl.name} {rel}: {mismatch}")
            compared += 1
            identical += got == want
        for rel in sorted(stored):
            self.expect(False, f"{self.wl.name}: reference {rel} was not written")
        return identical, compared


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def run_context(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "openblas_threads": threads,
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "focalrisk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "focalrisk" / "cli.py").is_file():
        print(f"error: no focalrisk sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    threads = cap_threads()  # before numpy is imported, here or in a child
    sys.path.insert(0, str(SRC))
    import focalrisk
    import focalrisk.cli as cli
    from tracer import LAYER_UNITS, Tracer
    from workloads import DEFAULT_SEED, make_workload

    if not Path(focalrisk.__file__).resolve().is_relative_to(SRC):
        print(f"error: focalrisk imported from {focalrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup = setup_times(SETUP_PROBES) if not args.trace else []

    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = make_workload(args.workload, args.seed, work, args.size)
        runner = Runner(wl, cli)
        runner.warm_up()
        if args.trace:
            untraced = runner.loop(args.seconds / 2, 0)
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                traced = runner.loop(args.seconds / 2, len(untraced))
            finally:
                runner.tracer = None
                tracer.uninstall()
            iterations = range(len(untraced), len(untraced) + len(traced))
        else:
            timed = runner.loop(args.seconds, 0)
        runner.check_outputs()
        reference = None
        if args.seed == DEFAULT_SEED and args.size == "full":
            reference = runner.compare_references()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = run_context(args.seed, threads)
    print("context " + json.dumps(context))
    if args.trace:
        overhead = (statistics.fmean(t for t, _ in traced)
                    - statistics.fmean(t for t, _ in untraced))
        metrics = tracer.layer_metrics(iterations, wl.datasets_per_iteration,
                                       runner.bytes_written, overhead)
        units = LAYER_UNITS
        shares = tracer.self_time_shares(iterations)
        print("self_time_share " + json.dumps({m: round(s, 4) for m, s in shares.items()}))
        tracer.write(WORK_ROOT / f"trace-{args.workload}.jsonl",
                     {"workload": args.workload, "context": context,
                      "fields": ["name", "start", "end", "parent", "iteration", "work"]})
    else:
        # The host's speed drifts between states lasting seconds; the mean
        # iteration time averages them, where the median jumps between them.
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(t for t, _ in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        latencies = [x for _, lat in timed for x in lat]
        print(f"samples iterations={len(timed)} latencies={len(latencies)} setup_probes={len(setup)}")
        # Reported, not gated: steady on single-sample, where every data set is
        # timed, but one sample per iteration on the Monte Carlo workloads.
        print(f"dataset_p50_ms {1e3 * statistics.median(latencies)!r} ms")
        print(f"dataset_p90_ms {1e3 * p90(latencies)!r} ms")
    failed = len(runner.failures)
    for message in runner.failures[:20]:
        print("FAILED " + message)
    print(f"error_rate {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted})")
    if reference is not None:
        print(f"reference numbers_within_1e-7 checked; byte_identical {reference[0]} of {reference[1]} files")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
