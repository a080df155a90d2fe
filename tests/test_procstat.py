"""tools/procstat.py: a command's own wall time, peak RSS and page faults."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PROCSTAT_PATH = Path(__file__).resolve().parent.parent / "tools" / "procstat.py"
_spec = importlib.util.spec_from_file_location("procstat", PROCSTAT_PATH)
procstat = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(procstat)

# Writes 64 MiB: every page is touched, so each one is resident and faulted in.
TOUCH_64_MIB = [sys.executable, "-c", "b = b'x' * (64 << 20)"]


def table(out: str) -> dict[str, list[float]]:
    """{field: [median, min, max]} from procstat's printed table."""
    rows = {}
    for line in out.splitlines():
        name, *values = line.split()
        if name in procstat.FIELDS:
            rows[name] = [float(v) for v in values]
    return rows


def test_reports_the_childs_own_peak_and_faults(capsys):
    status, usage = procstat.run_once(TOUCH_64_MIB)
    assert status == 0
    assert usage["peak_rss_mb"] >= 64
    assert usage["minor_faults"] >= (64 << 20) // 4096 // 2  # 4 KiB pages, or THP halves
    assert usage["wall_s"] > 0

    assert procstat.main(["-n", "3", *TOUCH_64_MIB]) == 0
    out = capsys.readouterr().out
    assert out.startswith("runs 3, failed 0\n")
    rows = table(out)
    assert set(rows) == set(procstat.FIELDS)
    for median, low, high in rows.values():
        assert low <= median <= high
    assert rows["peak_rss_mb"][1] >= 64


def test_summary_is_median_min_max():
    runs = [dict.fromkeys(procstat.FIELDS, v) for v in (3.0, 1.0, 2.0, 10.0)]
    assert procstat.summary(runs) == dict.fromkeys(procstat.FIELDS, (2.5, 1.0, 10.0))


def test_a_failed_run_makes_the_exit_nonzero(capsys):
    fails = [sys.executable, "-c", "import sys; sys.exit(3)"]
    assert procstat.main(["-n", "2", *fails]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("runs 2, failed 2\n")
    assert "run 1 exited 3" in captured.err and "run 2 exited 3" in captured.err


def test_bad_arguments_exit_2(capsys):
    assert procstat.main(["-n", "0", sys.executable, "-c", "pass"]) == 2
    assert procstat.main([]) == 2
    assert procstat.main(["no-such-command-procstat-test"]) == 2
    assert "cannot start 'no-such-command-procstat-test'" in capsys.readouterr().err


def test_runs_as_a_script_whose_floor_is_below_a_childs_peak():
    # A child's peak is at least its launcher's (Linux keeps it across exec),
    # so the script's own peak must stay well below what it measures. A
    # shell starts it, as from a terminal: started by this test process, it
    # would carry this process's peak.
    proc = subprocess.run(
        ["sh", "-c", '"$@"; exit $?', "sh",
         sys.executable, str(PROCSTAT_PATH), "-n", "1", *TOUCH_64_MIB],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("runs 1, failed 0\n")
    rows = table(proc.stdout)
    assert set(rows) == set(procstat.FIELDS)
    launcher = float(proc.stdout.splitlines()[-1].split()[-1])
    assert launcher < 40 <= 64 <= rows["peak_rss_mb"][0]
