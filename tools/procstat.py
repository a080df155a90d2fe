"""Run a command several times and report its own wall time, peak RSS and faults.

Usage:
    python tools/procstat.py [-n RUNS] CMD [ARG...]

Each run starts CMD with os.posix_spawnp and waits for it with os.wait4,
whose resource usage is the child's alone. For each of

    wall_s        seconds from spawn to exit
    peak_rss_mb   the child's peak resident set (ru_maxrss)
    minor_faults  the child's minor page faults (ru_minflt)

it prints the median, min and max over the runs, then the launcher's own
peak RSS. Linux carries a process's peak across exec, so a spawned child's
peak is at least the launcher's, and the launcher's at least that of the
process that spawned it. This script imports nothing heavier than the
standard library to keep that floor low: started from a shell, about
15 MB, below any numpy process's. CMD's standard streams are this
script's own.

Exits 0 when every run exited 0, 1 when any run did not (its status is
printed), and 2 when the arguments are bad or CMD cannot be started.
"""

import argparse
import os
import resource
import statistics
import sys
import time

# Each field and the format its values print in.
FIELDS = {
    "wall_s": "12.3f",
    "peak_rss_mb": "12.1f",
    "minor_faults": "12.0f",
}


def run_once(argv: list[str]) -> tuple[int, dict]:
    """Spawn `argv`, wait for it: (wait status, {field: value})."""
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return status, {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "minor_faults": usage.ru_minflt,
    }


def summary(runs: list[dict]) -> dict[str, tuple[float, float, float]]:
    """{field: (median, min, max)} over the runs."""
    return {
        field: (
            statistics.median(r[field] for r in runs),
            min(r[field] for r in runs),
            max(r[field] for r in runs),
        )
        for field in FIELDS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="procstat", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("-n", "--runs", type=int, default=5, help="runs (default 5)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the command to run")
    args = parser.parse_args(argv)
    if args.runs < 1 or not args.command:
        parser.print_usage(sys.stderr)
        print("procstat: need RUNS >= 1 and a command", file=sys.stderr)
        return 2

    runs, failed = [], 0
    for _ in range(args.runs):
        try:
            status, usage = run_once(args.command)
        except OSError as exc:
            print(f"procstat: cannot start {args.command[0]!r}: {exc}", file=sys.stderr)
            return 2
        runs.append(usage)
        if status != 0:
            failed += 1
            code = os.waitstatus_to_exitcode(status)
            print(f"procstat: run {len(runs)} exited {code}", file=sys.stderr)

    print(f"runs {len(runs)}, failed {failed}")
    print(f"{'':14}{'median':>12}{'min':>12}{'max':>12}")
    for field, values in summary(runs).items():
        print(f"{field:14}" + "".join(format(v, FIELDS[field]) for v in values))
    launcher = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"launcher peak_rss_mb {launcher:.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
