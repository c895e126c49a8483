"""ldnn benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train|hessian|campaign --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run.  Nothing else is written to standard
output.  If the benchmark itself fails it prints the reason on standard
error and exits non-zero without a result.
"""

import argparse
import os
import sys
import time

T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PR_SET_CHILD_SUBREAPER = 36


def process_age() -> float:
    """Seconds since this process started, so set-up time includes the
    interpreter's own start-up (to the kernel's clock-tick resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    except OSError:
        return 0.0
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


AGE_AT_T0 = process_age()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "hessian", "campaign"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads(workload: str) -> None:
    """train and hessian run on one BLAS thread; campaign runs the way a
    user does, with the thread variables unset.  This must happen before
    NumPy is imported."""
    for var in THREAD_VARS:
        if workload == "campaign":
            os.environ.pop(var, None)
        else:
            os.environ[var] = "1"


def import_program():
    """Import ldnn from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import ldnn
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import ldnn from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(ldnn.__file__)) != os.path.join(SRC, "ldnn"):
        raise SystemExit(f"benchmark: ldnn was imported from {ldnn.__file__}, not {SRC}")


def become_subreaper() -> None:
    """Orphaned descendants (pool workers, multiprocessing's resource
    tracker) are re-parented to this process, so it can wait for them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def cpu_seconds() -> float:
    """User plus system time of this process and of its ended children."""
    import resource

    own, ended = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + ended.ru_utime + ended.ru_stime


def stop_resource_tracker() -> None:
    """multiprocessing starts a resource tracker in a process that creates
    a pool; it would outlive this process by a moment."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run(args) -> dict:
    import json
    import resource
    import shutil
    import statistics

    import checks
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"]
                  for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install(tracing.SETUP_TARGETS)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = AGE_AT_T0 + time.perf_counter() - T0
        if tracer:
            tracer.uninstall()

        times = {False: [], True: []}
        cpu_times = []
        attempted = failed = 0
        problems = []
        start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced rounds of the same
            # operation; the difference of their medians is the overhead.
            traced = bool(args.trace) and len(times[False]) > len(times[True])
            r0 = time.perf_counter()
            if traced:
                tracer.install()
            try:
                c0 = cpu_seconds()
                output = wl.op(trace_run=bool(args.trace))
                op_s, op_cpu = time.perf_counter() - r0, cpu_seconds() - c0
            finally:
                if traced:
                    tracer.uninstall()
            times[traced].append(op_s)
            cpu_times.append(op_cpu)
            n_ops, n_failed = wl.round_ops()
            attempted, failed = attempted + n_ops, failed + n_failed
            rounds = len(times[False]) + len(times[True])
            try:
                wl.check(output, first=rounds == 1)
            except checks.CheckFailed as exc:
                problems.append(str(exc))
            round_s = time.perf_counter() - r0
            print(f"benchmark: round {rounds}{' traced' if traced else ''}: op {op_s:.4f} s "
                  f"(cpu {op_cpu:.4f} s), round {round_s:.4f} s", file=sys.stderr)
            if rounds >= 1 + args.trace and time.perf_counter() - start + round_s > args.seconds:
                break

        for p in problems:
            print(f"benchmark: check failed: {p}", file=sys.stderr)
        if args.trace:
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
            values = tracing.layer_metrics(tracer.spans, workloads.CAMPAIGN_JOBS,
                                           workloads.CAMPAIGN_SEEDS)
            values["trace.overhead_s"] = (statistics.median(times[True])
                                          - statistics.median(times[False]))
        else:
            who = resource.RUSAGE_CHILDREN if args.workload == "campaign" else resource.RUSAGE_SELF
            values = {"op_s": statistics.median(times[False]),
                      "op_cpu_s": statistics.median(cpu_times),
                      "setup_s": setup_s,
                      "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
        if set(values) != set(listed):
            raise RuntimeError(f"metrics {sorted(values)} != BENCHMARK.json's {sorted(listed)}")
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in listed.items()}}
    finally:
        if args.workload == "campaign":
            if args.trace:
                stop_resource_tracker()
            workloads.reap_children(time.monotonic() + 30)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    import json

    args = parse_args(argv)
    pin_threads(args.workload)
    import_program()
    if args.workload == "campaign":
        become_subreaper()
    # Only the result goes to standard output: anything else written to
    # file descriptor 1, by this process or a child, lands on stderr.
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args)
    except Exception as exc:  # the benchmark itself failed: no result line
        import traceback

        traceback.print_exc()
        print(f"benchmark: failed: {exc!r}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps(result) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
