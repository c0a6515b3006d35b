"""Benchmark of sbvol: one workload, one seed, one process.

    python3 bench/run.py --workload dim4-ledger --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A single client runs a closed loop of passes, one job at a time,
until the next pass would overrun ``--seconds`` (at least one pass).  A
pass is one pipeline job on dim4-ledger and staged-cone and 40 jobs on
invariant-batch; inputs come from ``--seed`` and never repeat.  Every job
is checked for correctness.

The last line of standard output is one JSON object.  With ``--trace 0``
it holds the end-to-end metrics:

    wall_s       mean time of a pass
    job_p50_ms   median job time
    job_tail_ms  95th percentile of job times (nearest rank); the detail
                 line gives the job count and how many jobs lie beyond it
    setup_s      median over fresh interpreters of imports, generating the
                 first pass's inputs and per-job set-up (seed registry)
    peak_rss_mb  peak resident set of the run process

With ``--trace 1`` it holds the per-layer metrics of a traced re-run of
the same passes (see tracing.py); the untraced passes run first, so the
tracing overhead is measured too.  The line before it is a JSON detail
line: job count, run digest, raw times, top self-time layer, failures.

Times are speed-normalised.  The host's CPU speed drifts by up to 1.7x
between spells lasting seconds to minutes, so a fixed stdlib kernel in
three parts (the speed probe) runs every PROBE_INTERVAL_S during the timed
phase, on a timer signal.  The speed index of a pass is the geometric mean
of the parts' mean durations in it.  Each pass's job times, net of the
probe's own time, are scaled by PROBE_REF_S over its speed index: a time
is reported as it would read on a host where the index is PROBE_REF_S.
Set-up time is scaled the same way by probes taken right after it.  The
raw times are on the detail line.  Traced spans include the probe's time,
about 1-2% of each span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.0005
MIN_PROBES = 5
TAIL_PERCENTILE = 95


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="time imports, input generation and per-job set-up once, print it, exit",
    )
    return ap.parse_args(argv)


def import_workloads():
    """Import the benchmark's workloads, and with them sbvol from this checkout's src/."""
    if not (SRC / "sbvol" / "__init__.py").is_file():
        raise SystemExit(f"error: no sbvol package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sbvol
    import workloads

    if Path(sbvol.__file__).resolve().parent != SRC / "sbvol":
        raise SystemExit(f"error: imported sbvol from {sbvol.__file__}, not from {SRC}")
    return workloads


# -- speed probe -------------------------------------------------------------------


def _fraction_part():
    acc = 0
    for i in range(1, 200):
        a = Fraction(i % 13 - 6, i % 5 + 1) * Fraction(i % 7 + 1, 3)
        acc += a.numerator * a.denominator
    return acc


_NORMALS = ((1, 0, -1), (0, 1, 1), (-1, 2, 0), (1, 1, 1), (2, -1, 3))


def _tuple_part():
    table = {}
    for i in range(60):
        p = (i % 5, (i * 3) % 7 - 3, i % 4)
        table[p] = tuple(sum(a * b for a, b in zip(n, p)) for n in _NORMALS)
    return sorted(table.items())


def _matrix_part():
    rows = [[(i * j) % 11 - 5 for j in range(6)] for i in range(6)]
    acc = 0
    for _ in range(10):
        for r in range(6):
            for c in range(6):
                acc += sum(rows[r][k] * rows[k][c] for k in range(6))
    return acc


# Each part mimics one kind of inner loop in the program: Fraction
# arithmetic; tuples, dicts and generator expressions; integer matrix
# products.  The host's drift slows these kinds by different amounts.  In
# repeated runs of one fixed pass, raw times spread 14-22% (interquartile
# range over median) and times scaled by the geometric mean of the parts
# 1-5%; no single part did better on all three workloads.
PROBE_PARTS = (_fraction_part, _tuple_part, _matrix_part)


class SpeedProbe:
    """Times each probe part every PROBE_INTERVAL_S of wall time while active."""

    def __init__(self):
        self.samples = []  # per tick, the duration of each part
        self.spent = 0.0

    def sample(self, *_signal_args):
        times = []
        for part in PROBE_PARTS:
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        self.samples.append(times)
        self.spent += sum(times)

    def factor_since(self, start):
        """PROBE_REF_S over the speed index of the samples from `start` on (at least MIN_PROBES)."""
        while len(self.samples) - start < MIN_PROBES:
            self.sample()
        means = [statistics.fmean(col) for col in zip(*self.samples[start:])]
        return PROBE_REF_S / statistics.geometric_mean(means)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# -- set-up ------------------------------------------------------------------------


def setup_probe(args):
    t0 = time.perf_counter()
    workloads = import_workloads()
    w = workloads.make(args.workload, OUT)
    for spec in next(w.passes(args.seed)):
        w.prepare(spec)
    raw = time.perf_counter() - t0
    print(raw, raw * SpeedProbe().factor_since(0))


def measure_setup(args):
    """Median (raw, normalised) set-up time over fresh interpreters, each importing anew."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        r, n = done.stdout.split()[-2:]
        raw.append(float(r))
        norm.append(float(n))
    return statistics.median(raw), statistics.median(norm)


# -- timed phase -------------------------------------------------------------------


class Run:
    """One timed phase: per-pass and per-job times (raw and normalised), checks, records."""

    def __init__(self):
        self.pass_raw = []
        self.pass_norm = []
        self.gross_s = 0.0  # job time including the probe's, as spans see it
        self.job_norm = []
        self.speed_index = []
        self.attempted = 0
        self.failures = []
        self.first_pass = []


def run_passes(w, seed, seconds=None, passes=None, tracer=None):
    """Run passes until the next would overrun `seconds`, or exactly `passes` of them.

    With a tracer, spans are recorded during the jobs only, not during
    input generation, per-job set-up or checks.
    """
    run = Run()
    clock = time.perf_counter
    start = clock()
    with SpeedProbe() as probe:
        for k, batch in enumerate(w.passes(seed)):
            first_sample = len(probe.samples)
            jobs = []
            for spec in batch:
                prepared = w.prepare(spec)
                if tracer is not None:
                    tracer.enabled = True
                spent, t0 = probe.spent, clock()
                try:
                    rec = w.job(prepared)
                except Exception as exc:  # a raised job is one failed operation
                    rec = None
                    run.attempted += 1
                    run.failures.append(f"pass {k}: {type(exc).__name__}: {exc}")
                finally:
                    if tracer is not None:
                        tracer.enabled = False
                gross = clock() - t0
                run.gross_s += gross
                jobs.append(gross - (probe.spent - spent))
                if rec is None:
                    continue
                for name, ok in w.checks(rec):
                    run.attempted += 1
                    if not ok:
                        run.failures.append(f"pass {k}: {name}")
                if k == 0:
                    run.first_pass.append(rec)
            factor = probe.factor_since(first_sample)
            run.speed_index.append(PROBE_REF_S / factor)
            run.pass_raw.append(sum(jobs))
            run.pass_norm.append(sum(jobs) * factor)
            run.job_norm += [j * factor for j in jobs]
            if passes is not None:
                if len(run.pass_raw) == passes:
                    break
            elif clock() - start + statistics.fmean(run.pass_raw) > seconds:
                break
    return run


def digest(records):
    text = json.dumps(records, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(values):
    """(TAIL_PERCENTILE by nearest rank, the number of values beyond it)."""
    v = sorted(values)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(v))
    return v[rank - 1], len(v) - rank


def cells_per_class(ledgers):
    """Interior cells over distinct fingerprints, summed over the traced ledgers."""
    from sbvol.subdivision import interior_cells

    cells = classes = 0
    for p, s in ledgers:
        inner = interior_cells(s, p)
        cells += len(inner)
        classes += len({c.normalize_full_dimensional()[0].fingerprint() for c in inner})
    return cells / classes if classes else 0.0


def traced_rerun(w, workloads, args, run, info):
    """Per-layer metrics from a traced re-run of the untraced run's passes."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        traced = run_passes(w, args.seed, passes=len(run.pass_raw), tracer=tracer)
    finally:
        tracer.uninstall()
    failures = [f"traced {f}" for f in traced.failures]
    if digest(traced.first_pass) != info["digest_first_pass"]:
        failures.append("traced digest differs from the untraced one")
    layers = tracer.layer_metrics(cells_per_class(tracer.ledgers))
    layers["trace.wall_s"] = traced.gross_s
    layers["trace.overhead_s"] = sum(traced.pass_norm) - sum(run.pass_norm)
    layers["calib_s"] = statistics.fmean(run.speed_index)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path)
    top = max((n for n in layers if n.endswith(".self_s")), key=lambda n: layers[n])
    info.update(
        top_self_time_layer=top[: -len(".self_s")],
        top_self_s=layers[top],
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    return {n: (v, units[n]) for n, v in layers.items()}, traced.attempted + 1, failures


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_workloads()
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    OUT.mkdir(exist_ok=True)
    w = workloads.make(args.workload, OUT)

    setup_raw, setup_norm = measure_setup(args) if not args.trace else (None, None)
    run = run_passes(w, args.seed, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_norm, beyond = tail(run.job_norm)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "passes": len(run.pass_raw),
        "jobs": len(run.job_norm),
        "job_tail_percentile": TAIL_PERCENTILE,
        "jobs_beyond_tail": beyond,
        "digest_first_pass": digest(run.first_pass),
        "raw_pass_s": run.pass_raw,
        "raw_setup_s": setup_raw,
        "speed_index_s": run.speed_index,
        "calib_s": statistics.fmean(run.speed_index),
    }
    attempted, failures = run.attempted, list(run.failures)

    if not args.trace:
        metrics = {
            "wall_s": (statistics.fmean(run.pass_norm), "s"),
            "job_p50_ms": (1000 * statistics.median(run.job_norm), "ms"),
            "job_tail_ms": (1000 * tail_norm, "ms"),
            "setup_s": (setup_norm, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics, more_attempted, more_failures = traced_rerun(w, workloads, args, run, info)
        attempted += more_attempted
        failures += more_failures

    info["failures"] = failures[:20]
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
