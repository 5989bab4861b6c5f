#!/usr/bin/env python3
"""Benchmark of mpvesd: four workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 bench/run.py --workload expected_vesd --seed 1 --seconds 10 --trace 0

Workloads: law_solve, expected_vesd, spiked_vesd, local_law (see README.md).
A run repeats whole rounds of the workload within ``--seconds`` (at least
one) and checks every round's outputs.  ``--trace 0`` reports the end-to-end metrics
with tracing off.  ``--trace 1`` runs untraced at the program's default job
count, then alternates untraced and traced rounds at jobs=1, and reports
the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record and the spans go to bench/out/.
"""

import os
import sys
import time

# One BLAS thread per process, set before numpy loads.  At the program's
# default job count each worker would otherwise start a BLAS thread pool of
# its own, oversubscribe the cores and spread run times over 3x (README).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("law_solve", "expected_vesd", "spiked_vesd", "local_law")


def process_age() -> float:
    """Seconds since this process started (Linux /proc start time)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def cpu_seconds() -> float:
    """User + sys time of this process and of its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped worker."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class Tally:
    """Checks attempted and failed; failures outside the known faults
    make the run incorrect."""

    def __init__(self, known_faults):
        self.known = known_faults
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.unexpected: dict[str, str] = {}

    def add(self, checks):
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                self.failures.setdefault(c.name, c.detail)
                if c.name not in self.known:
                    self.unexpected.setdefault(c.name, c.detail)


def run_pass(wl, modes, seconds, tally):
    """Whole cycles of rounds within ``seconds``, at least one cycle.

    ``modes`` is a list of (jobs, tracer or None); one cycle runs one round
    in each mode, so modes that alternate share the machine's drift.  A
    cycle starts only if one more as long as the last still fits.
    Returns per-mode lists of round wall and CPU times.
    """
    walls = [[] for _ in modes]
    cpus = [[] for _ in modes]
    start = last = time.perf_counter()
    cycle = 0.0
    while not walls[0] or last - start + cycle <= seconds:
        for i, (jobs, tracer) in enumerate(modes):
            with tracer.active() if tracer else contextlib.nullcontext():
                c0, t0 = cpu_seconds(), time.perf_counter()
                with tracer.span("bench.round") if tracer else \
                        contextlib.nullcontext():
                    out = wl.round(jobs)
                t1, c1 = time.perf_counter(), cpu_seconds()
            walls[i].append(t1 - t0)
            cpus[i].append(c1 - c0)
            tally.add(wl.check(out))
        now = time.perf_counter()
        cycle, last = now - last, now
    return walls, cpus


def layer_metrics(tracer, rounds, jobs, wall_default, wall_one, wall_traced):
    """Per-layer metrics per traced round, plus efficiency and overhead."""
    def per_round(x):
        return x / rounds

    t = tracer
    values = {
        "law.solve_law_s": per_round(t.durations("law.solve_law")),
        "law.solve_law_calls": per_round(t.calls("law.solve_law")),
        "law.solve_m2c_s": per_round(t.durations("law.solve_m2c")),
        "law.solve_m2c_calls": per_round(t.calls("law.solve_m2c")),
        "law.cdf_s": per_round(t.durations("law.cdf")),
        "law.cdf_points": per_round(t.work("law.cdf")),
        "ensembles.sample_s": per_round(t.durations("ensembles.sample")),
        "ensembles.entries_sampled": per_round(t.work("ensembles.sample")),
        "experiments.eigh_s": per_round(t.durations("experiments.eigh")),
        "experiments.eigh_calls": per_round(t.calls("experiments.eigh")),
        "experiments.self_s": per_round(t.self_time("experiments.run")),
        "experiments.parallel_efficiency": wall_one / (jobs * wall_default),
        "vesd.from_jumps_s": per_round(t.durations("vesd.from_jumps")),
        "vesd.jumps_assembled": per_round(t.work("vesd.from_jumps")),
        "vesd.kolmogorov_s": per_round(t.durations("vesd.kolmogorov")),
        "vesd.average_s": per_round(t.durations("vesd.average")),
        "resolvent.build_resolvent_s":
            per_round(t.durations("resolvent.build_resolvent")),
        "resolvent.build_resolvent_calls":
            per_round(t.calls("resolvent.build_resolvent")),
        "resolvent.deterministic_limit_s":
            per_round(t.durations("resolvent.deterministic_limit")),
        "resolvent.local_law_residuals_self_s":
            per_round(t.self_time("resolvent.local_law_residuals")),
        # parsing happens once, in set-up, not per round
        "config.parse_config_s": t.durations("config.parse_config"),
        "trace.overhead_s": wall_traced - wall_one,
    }
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("parallel_efficiency"):
        return "ratio"
    return "count"


def environment(jobs: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return dict(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, blas=blas,
                blas_threads={v: os.environ[v] for v in BLAS_THREAD_VARS},
                jobs=jobs, cpu_count=os.cpu_count(),
                machine=platform.machine())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpvesd" / "__init__.py").is_file():
        print(f"bench: no mpvesd package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from mpvesd import experiments
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        with tracer.active():
            wl.setup()
    setup_s = process_age()

    jobs = experiments.resolve_jobs(None)
    tally = Tally(wl.known_faults)
    record = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  env=environment(jobs))
    (walls,), (cpus,) = run_pass(wl, [(None, None)], args.seconds, tally)
    record["default_jobs"] = dict(walls=walls, cpus=cpus)
    cross = {}
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        # untraced and traced rounds at jobs=1 alternate, so the overhead
        # is not confounded with the machine's drift between passes
        (walls_one, walls_tr), _ = run_pass(
            wl, [(1, None), (1, tracer)], 2 * args.seconds, tally)
        record["jobs_1"] = dict(walls=walls_one)
        record["traced"] = dict(walls=walls_tr)
        values = layer_metrics(tracer, len(walls_tr), jobs,
                               statistics.median(walls),
                               statistics.median(walls_one),
                               statistics.median(walls_tr))
        metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
        metrics.update({k: (int(v), u) for k, (v, u) in metrics.items()
                        if u == "count" and float(v).is_integer()})
        for name, want in wl.expected_counts().items():
            cross[name] = dict(expected=want, measured=values[name],
                               ok=values[name] == want)
        record["cross_checks"] = cross

    correct = not tally.unexpected and all(c["ok"] for c in cross.values())
    record.update(correct=correct, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.failures,
                  unexpected=tally.unexpected,
                  metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    for name, detail in tally.unexpected.items():
        print(f"bench: check {name} failed: {detail}", file=sys.stderr)
    for name, c in cross.items():
        if not c["ok"]:
            print(f"bench: cross-check {name}: measured {c['measured']}, "
                  f"expected {c['expected']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
