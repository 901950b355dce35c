#!/usr/bin/env python3
"""otuniq benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload library --seed 1 --seconds 56 --trace 0

The run imports otuniq from ``src/`` next to this directory, builds the
workload's inputs from the seed, and repeats whole rounds of its fixed
operation list, one operation after another, for about ``--seconds``
seconds.  Every output is checked against a computation made without
otuniq.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Run metadata goes to the line before it and, with the
per-operation record, to ``bench/_work/results/``.  See README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap numeric-library thread pools at the CPUs this process may use.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def import_package():
    """Import otuniq from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "otuniq", "__init__.py")):
        raise SystemExit(f"error: no otuniq sources under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import otuniq

    where = os.path.abspath(otuniq.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"error: imported otuniq from {where}, not {SRC}")


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "otuniq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Record:
    """Outcome of every operation attempt, per operation."""

    def __init__(self, ops):
        self.ops = ops
        self.times = {op.name: [] for op in ops}
        self.errors = {op.name: [] for op in ops}
        self.passes = {False: [], True: []}    # traced? -> pass walls
        self.attempted = 0

    def run_pass(self, tracer, traced: bool):
        from workloads import CheckFailed

        wall = 0.0
        for op in self.ops:
            args = op.build()
            tracer.enabled = traced
            t0 = time.perf_counter()
            try:
                out = op.call(*args)
                err = None
            except Exception as exc:        # counted as a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            tracer.enabled = False
            if err is None:
                try:
                    op.check(args, out)
                except CheckFailed as exc:
                    err = str(exc)
                except Exception as exc:    # a crash in the check fails too
                    err = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            wall += dt
            if not traced:
                self.times[op.name].append(dt)
            if err is not None:
                self.errors[op.name].append(err)
        self.passes[traced].append(wall)

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.errors.values())

    @property
    def correct(self) -> bool:
        return all(op.fault is not None
                   for op in self.ops if self.errors[op.name])


def end_to_end(record, setup_s) -> dict:
    """Each operation's median over the run's rounds, then sums and means.

    No median across operations: their sizes differ by up to 1000 times
    and their work moves by up to a quarter from seed to seed, so such a
    median jumps from one operation to another where a mean does not.
    """
    med = {op.name: statistics.median(record.times[op.name])
           for op in record.ops}
    top = [med[op.name] for op in record.ops if op.top]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(med.values()), "s"),
        "top_size_s": (statistics.fmean(top), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(record, tracer) -> dict:
    m = tracer.summary(len(record.passes[True]))
    m["trace.overhead_s"] = statistics.median(record.passes[True]) \
        - statistics.median(record.passes[False])
    return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name: str) -> str:
    if "us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    import_package()
    import numpy
    import scipy

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - START
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        prep = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            prep.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(prep)
        ops = wl.ops()
        record = Record(ops)
        tracer = spans.Tracer()
        t_start = time.perf_counter()
        rounds = []
        while True:
            r0 = time.perf_counter()
            # a traced run alternates which pass of a round goes first
            order = ((False, True) if len(rounds) % 2 == 0
                     else (True, False)) if args.trace else (False,)
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    record.run_pass(tracer, traced)
                finally:
                    tracer.uninstall()
            rounds.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t_start
            if elapsed + max(rounds) > args.seconds:
                break
        metrics = per_layer(record, tracer) if args.trace \
            else end_to_end(record, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "rounds": len(rounds), "measured_s": elapsed,
        "attempted": record.attempted, "failed": record.failed,
        "ops": {op.name: {"attempted": len(rounds) * (1 + args.trace),
                          "failed": len(record.errors[op.name]),
                          "fault": op.fault,
                          "median_s": statistics.median(
                              record.times[op.name]),
                          "times_s": record.times[op.name],
                          "first_error": (record.errors[op.name] or [None])[0]}
                for op in ops},
    }
    for name, rec in meta["ops"].items():
        if rec["failed"]:
            print(f"{'expected' if rec['fault'] else 'UNEXPECTED'} failure "
                  f"x{rec['failed']}: {name}: {rec['first_error']}",
                  file=sys.stderr)
    result = {
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", stem + ".json"), "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    if args.trace:
        tracer.dump(os.path.join(WORK, "results", stem + ".spans.json"))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
