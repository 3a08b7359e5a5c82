"""polystate benchmark: one workload per process, checked outputs, one JSON result.

    python3 perfbench/run.py --workload {verify,seed-scan,phase-space,sectors}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
The run repeats whole rounds of its workload's operations until S seconds
have passed. With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced rounds and prints the per-layer metrics
from the traced ones, with the tracing overhead. The last line of standard
output is the result; the line before it says what ran, where it ran, and
which operations failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "seed-scan", "phase-space", "sectors")
SETUP_SAMPLES = 3
SUITES = ("characters", "orthonormality", "erasure", "rotation", "density",
          "gaussian", "c2", "mandel", "circle", "entangle", "inverse", "wigner",
          "coherent")

_CYCLIC = ("cyclic_superposition", "cyclic_erasure", "normalization_record",
           "cyclic_set", "cyclic_density", "density_route_gap", "dihedral_state")
# (metric, unit): every per-layer metric of BENCHMARK.json, per traced round.
PER_LAYER = (
    [("gaussian.gaussian_to_fock.ms", "ms"), ("gaussian.gaussian_to_fock.calls", "count"),
     ("gaussian.hermite_functions.calls", "count"), ("gaussian.hermite_functions.nodes", "count"),
     ("observables.wigner_points.ms", "ms"), ("observables.wigner_points.points", "count"),
     ("observables.wigner_direct.ms", "ms"), ("observables.wigner_direct.calls", "count"),
     ("observables.write_wigner_csv.ms", "ms"), ("observables.write_wigner_csv.bytes", "bytes")]
    + [(f"cyclic.{f}.{k}", u) for f in _CYCLIC for k, u in (("ms", "ms"), ("calls", "count"))]
    + [("observables.linear_entropy.ms", "ms"), ("observables.linear_entropy_oracle.ms", "ms"),
       ("group.character.calls", "count"),
       ("fock.coherent.ms", "ms"), ("fock.rotate.calls", "count"),
       ("fock.vector_from_dict.ms", "ms"), ("fock.vector_to_dict.ms", "ms"),
       ("cli.build.ms", "ms"), ("cli.wigner.ms", "ms"), ("cli.mandel.ms", "ms"),
       ("cli.entangle.ms", "ms"), ("cli.self_ms", "ms")]
    + [(f"verify.{s}.s", "s") for s in SUITES]
    + [(f"{m}.self_ms", "ms") for m in ("group", "fock", "gaussian", "cyclic",
                                        "observables", "verify")]
    + [("trace.overhead_ratio", "ratio")]
)


def cap_threads() -> int:
    """Pin BLAS/OpenMP pools to the CPUs this process may use; must run
    before numpy is imported. The default n_max comes from the environment,
    so that is cleared too: every input names its n_max."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ.pop("POLYSTATE_NMAX", None)
    return nproc


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "commit": git_commit()}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import polystate, build this
    workload's inputs and exit: the set-up a user pays on every start. No
    timeout: with one, subprocess polls the child at 50 ms steps."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed), "--setup-only"],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibration:
    """A fixed kernel, independent of polystate, timed between operations
    about every PERIOD seconds and at least once a round. The speed of this
    shared machine drifts by tens of percent within seconds and minutes;
    dividing each round's time by the median kernel time taken during that
    round cancels the drift, which the program under test cannot move. One
    cal is one kernel run, about 6 ms here."""

    PERIOD = 0.25

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.random.default_rng(0).standard_normal((128, 128))
        self.samples: list[float] = []
        self.last = float("-inf")

    def kernel(self) -> float:
        """Threaded BLAS, vectorised math and interpreted Python, as the
        workloads mix them. A 128x128 product runs on both OpenBLAS threads
        and tracks the workloads' drift better than a one-thread kernel
        (seed-scan: 0.06 against 0.08 spread over 15 s windows), at the cost
        of slowing far more than they do when another process competes for
        the CPUs."""
        start = time.perf_counter()
        for _ in range(30):
            self.a @ self.a
            self.np.exp(self.a)
            sum(i * i for i in range(1500))
        return time.perf_counter() - start

    def tick(self, force: bool = False) -> None:
        """One sample per PERIOD elapsed since the last, up to four after a
        long operation, so the median weighs the round's stretches evenly."""
        owed = min(4, (time.perf_counter() - self.last) / self.PERIOD)
        if owed >= 1 or force:
            self.samples.extend(self.kernel() for _ in range(max(1, int(owed))))
            self.last = time.perf_counter()


class Tally:
    """Attempted, failed and checked operations across a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.latency: list[float] = []                    # passed ops, s
        self.round_s: list[tuple[bool, float, float]] = []  # (traced, s, cal s)
        self.kinds: dict[str, Counter] = defaultdict(Counter)
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.reported: set[str] = set()
        self.cal = Calibration()

    def record(self, op, seconds: float, error: str | None, problems: list[str]) -> None:
        self.attempted += 1
        kind = self.kinds[op.kind]
        kind["s"] += seconds
        if error is not None:
            self.failed += 1
            kind["failed"] += 1
            self.failures[f"{op.label}: {error}"] += 1
        elif problems:
            kind["wrong"] += 1
            self.wrong.append(f"{op.label}: {'; '.join(problems)}")
        else:
            kind["passed"] += 1
            kind["units"] += op.units
            self.latency.append(seconds)

    def report_traceback(self, op) -> None:
        if op.label not in self.reported:
            self.reported.add(op.label)
            sys.stderr.write(f"[{op.label}] failed:\n{traceback.format_exc()}")


def run_rounds(ops, seconds: float, tracer, OpFailed) -> Tally:
    """Whole rounds until `seconds` have passed. With a tracer, rounds
    alternate untraced/traced (untraced first) and at least one of each runs."""
    tally = Tally()
    start = time.perf_counter()
    while (not tally.round_s or time.perf_counter() - start < seconds
           or (tracer is not None and len(tally.round_s) < 2)):
        traced = tracer is not None and len(tally.round_s) % 2 == 1
        gc.collect()  # start every round from the same heap state, untimed
        if traced:
            tracer.install()
        total, first_sample = 0.0, len(tally.cal.samples)
        for op in ops:
            error, problems, out = None, [], None
            if traced:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = tracer.span(op.span, op.run) if traced and op.span else op.run()
            except OpFailed as exc:
                error = str(exc)
            except Exception as exc:  # every failure is counted, none aborts the run
                error = type(exc).__name__
                tally.report_traceback(op)
            dt = time.perf_counter() - t0
            if traced:
                tracer.recording = False
            total += dt
            if error is None:
                try:
                    problems = op.check(out)
                except OpFailed as exc:
                    error = str(exc)
                except Exception as exc:  # a check that cannot read the output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            tally.record(op, dt, error, problems)
            tally.cal.tick()
        if traced:
            tracer.uninstall()
        if len(tally.cal.samples) == first_sample:
            tally.cal.tick(force=True)
        tally.round_s.append((traced, total, statistics.median(tally.cal.samples[first_sample:])))
    return tally


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """The gated metrics: one pass and the operation rate in cal (see
    Calibration). Rates count only operations that completed and passed
    their check, over the time of every operation attempted."""
    rounds = [s / cal for _, s, cal in tally.round_s]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_cal": (statistics.median(rounds), "cal"),
        "ops_per_cal": (len(tally.latency) / sum(rounds), "1/cal"),
    }


# The workload's own name for one pass, and its latency sample.
PASS_NAME = {"verify": "verify_s", "seed-scan": "scan_pass_s",
             "phase-space": "phase_space_s", "sectors": "sectors_pass_s"}
LATENCY_NAME = {"verify": "suite_ms", "seed-scan": "scan_seed_ms",
                "phase-space": "cli_call_ms", "sectors": "sector_op_ms"}


def figures(workload: str, tally: Tally) -> dict:
    """Workload figures printed beside the result, ungated: the per-kind
    rates (units of work per second of that kind's time) and the median and
    p90 latency of passed operations with their sample count. Percentiles
    are left out below 40 samples, where p90 has fewer than 4 beyond it."""
    out = {PASS_NAME[workload]: [statistics.median(s for _, s, _ in tally.round_s), "s"],
           "cal_ms": [statistics.median(tally.cal.samples) * 1e3, "ms"]}
    for kind, c in tally.kinds.items():
        out[f"{kind}_per_s"] = [c["units"] / c["s"], "1/s"]
    lat, name = tally.latency, LATENCY_NAME[workload]
    out[f"{name}.samples"] = [len(lat), "count"]
    if len(lat) >= 40:
        out[f"{name}.p50"] = [statistics.median(lat) * 1e3, "ms"]
        out[f"{name}.p90"] = [statistics.quantiles(lat, n=10)[8] * 1e3, "ms"]
    return out


def per_layer(tally: Tally, tracer) -> dict:
    traced = [s / cal for t, s, cal in tally.round_s if t]
    untraced = [s / cal for t, s, cal in tally.round_s if not t]
    totals = tracer.layer_totals()
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(untraced)
        elif unit == "s":
            value = totals.get(name[:-2] + ".ms", 0.0) / 1e3 / len(traced)
        else:
            value = totals.get(name, 0.0) / len(traced)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (times set-up)")
    args = parser.parse_args(argv)

    nproc = cap_threads()
    if not (ROOT / "src" / "polystate" / "__init__.py").is_file():
        sys.stderr.write(f"error: no polystate sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, work)
        if args.setup_only:
            return 0
        tracer = tracing.Tracer() if args.trace else None
        tally = run_rounds(ops, args.seconds, tracer, workloads.OpFailed)
        if tracer is None:
            metrics = end_to_end(tally, measure_setup(args.workload, args.seed))
        else:
            metrics = per_layer(tally, tracer)
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            tracer.write(spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.wrong[:20]:
        sys.stderr.write(f"wrong: {line}\n")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(tally.round_s), "stamp": machine_stamp(nproc),
        "figures": {} if args.trace else figures(args.workload, tally),
        "kinds": {k: dict(v) for k, v in tally.kinds.items()},
        "failures": dict(tally.failures), "wrong": len(tally.wrong)}))
    print(json.dumps({
        "correct": not tally.wrong, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
