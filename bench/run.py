"""prefqc benchmark: the real CLI on seeded inputs, timed end to end and per module.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one after another

Run from the root of a checkout; the program is imported from ./src.

Workloads (see WORKLOADS below and BENCHMARK.json for why each exists):
  beta_bulk       `fit` then `infer`, Beta truth, users sharing (sum_z, n) rows
  twopoint_long   `fit` then `infer`, two-point truth, few users with long logs
  eval_mu_effect  `eval` over the mu_effect cells for mu 0.8 and 0.9, serial

Each CLI command runs as its own child process (`python3 -m prefqc.cli`),
so its wall time and peak RSS (from os.wait4) are its own. A run generates
its inputs from --seed, times `import prefqc.cli` in fresh interpreters
(setup_s), then repeats the workload's commands for --seconds and reports
medians. Every pass is checked (exit codes, output shapes, recovery
accuracy, and identical output digests across passes); a failed check
counts as a failed operation.

Each child runs in slices of SLICE_S, stopped between them while a fixed
reference computation is timed (bench/hostspeed.py); each slice is scaled
by the host speed measured at its edges. Reported times are therefore
seconds at a fixed reference host speed, and the shared host's drift does
not show as a change of the program. The raw wall times (raw.*) and the
host factors (raw over reference seconds) are printed too.

With --trace 1 each pass is run twice: once through the CLI, once through
bench/traced.py, which calls the same public functions with a span around
each call into a module. The per-layer metrics come from the spans; their
output digests (or, for eval, per-cell delta and accuracy) must equal the
CLI's. trace.overhead_s is traced wall time minus untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen import BulkSpec, Dataset, generate  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from traced import sha256_of  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MIN_SETUP_SAMPLES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170  # children still running this long after the start are killed
SLICE_S = 1.0  # a child runs this long between two timings of the host's speed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class BulkWorkload:
    spec: BulkSpec
    family: str
    rule: dict
    eta_stars: list | None
    accuracy_floor: float  # sanity floor; measured values sit far above it


@dataclass(frozen=True)
class EvalWorkload:
    cells: list


def _mu_effect_cells(mus, users: int) -> list[dict]:
    """The CLI's mu_effect preset cells, for the given mu values and users.

    Same scenario (Beta(3, 5) truth, 50 to 100 labels per user), the same
    two mu variants and the same two rules as the preset, so each
    (mu, variant) fit is repeated once per rule cell, as in the preset.
    """
    median = 0.3641160864480825  # median of Beta(3, 5), the preset's threshold
    rules = (
        ("ranking", {"type": "top_fraction", "fraction": 0.5}),
        ("threshold", {"type": "threshold", "value": median}),
    )
    cells = []
    for mu in mus:
        for variant in ("known", "beta_prior"):
            for rule_name, rule in rules:
                scenario = {
                    "prior": {"type": "beta", "alpha": 3.0, "beta": 5.0},
                    "mu": mu,
                    "num_users": users,
                    "n_range": [50, 100],
                    "seed": 0,
                    "per_item_p_model": None,
                }
                cells.append({
                    "cell": f"mu_{mu:g}_{variant}_{rule_name}",
                    "family": "beta",
                    "scenario": scenario,
                    "mu_variant": variant,
                    "rule": rule,
                })
    return cells


WORKLOADS = {
    "beta_bulk": BulkWorkload(
        spec=BulkSpec("beta", (3.0, 5.0), 0.8, users=2000, n_range=(50, 100),
                      item_pool=2000),
        family="beta",
        rule={"type": "tail_probability", "eta_star": 0.5, "level": 0.5},
        eta_stars=[0.3, 0.5, 0.7],
        accuracy_floor=0.1,
    ),
    "twopoint_long": BulkWorkload(
        spec=BulkSpec("two_point", (0.6, 0.4, 0.98), 0.8, users=200,
                      n_range=(500, 1500), item_pool=2000),
        family="two_point",
        rule={"type": "top_fraction", "fraction": 0.5},
        eta_stars=None,
        accuracy_floor=0.9,
    ),
    "eval_mu_effect": EvalWorkload(cells=_mu_effect_cells((0.8, 0.9), users=250)),
}

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


# --------------------------------------------------------- child processes

@dataclass
class Child:
    peak_rss_mb: float
    exit_code: int
    output: str
    # (start, stop, scale) of each slice the child ran, in time.perf_counter()
    # seconds; scale turns the slice's wall time into reference seconds.
    slices: list

    @property
    def wall_s(self) -> float:
        return sum(stop - start for start, stop, _ in self.slices)

    @property
    def seconds(self) -> float:
        """Wall time at the reference host speed (see hostspeed.py)."""
        return reference_clock(self.slices, math.inf)

    @property
    def host_factor(self) -> float:
        return self.wall_s / self.seconds if self.slices else 1.0


def reference_clock(slices: list, t: float) -> float:
    """Reference seconds a child had run by time t (a perf_counter value).

    time.perf_counter() reads the system's monotonic clock, so a span the
    child recorded maps onto the slices the parent recorded.
    """
    return sum((min(t, stop) - start) * scale
               for start, stop, scale in slices if start < t)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("PREFQC_WORKERS", None)  # eval runs serially, as users run it
    # One BLAS thread: every child then runs on one core, as the reference
    # computation does, so the host speed measured between slices is the
    # speed the child ran at. A second thread on a few-core shared host
    # measures the scheduler (fit took 3.2-4.1 s with two threads and
    # 3.5-4.3 s with one).
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float, speed: HostSpeed,
              log: Path) -> Child:
    """Run one child to completion, in slices; wall time and peak RSS are its own.

    The child runs in its own session for SLICE_S at a time. Between slices
    its process group is stopped while this process times the reference
    computation (hostspeed.py), so the samples that scale each slice are
    taken right at its edges and never compete with the child for a core.
    wall_s is the sum of the slices. The child is killed at `deadline` (a
    time.monotonic() value), so a hung command cannot hold the run past its
    time limit. Its output goes to `log`.
    """
    ended = threading.Event()
    reaped: dict = {}

    def reap(pid: int) -> None:
        _, status, usage = os.wait4(pid, 0)
        reaped.update(end=time.perf_counter(), status=status, usage=usage)
        ended.set()

    before = speed.sample()
    with open(log, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        waiter = threading.Thread(target=reap, args=(proc.pid,), daemon=True)
        waiter.start()
        slices = []
        try:
            while not ended.wait(SLICE_S):
                if time.monotonic() > deadline:
                    signal_group(proc.pid, signal.SIGKILL)
                    break
                signal_group(proc.pid, signal.SIGSTOP)
                stop = time.perf_counter()
                after = speed.sample()
                if ended.is_set():  # it exited before the stop took effect
                    stop = min(stop, reaped["end"])
                slices.append((start, stop, 2 * REFERENCE_S / (before + after)))
                before = after
                if ended.is_set():
                    break
                signal_group(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
            else:
                after = speed.sample()
                slices.append((start, reaped["end"], 2 * REFERENCE_S / (before + after)))
        finally:
            if not ended.is_set():
                signal_group(proc.pid, signal.SIGKILL)
                signal_group(proc.pid, signal.SIGCONT)
            waiter.join()
        out.seek(0)
        output = out.read()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Child(reaped["usage"].ru_maxrss / 1024.0, proc.returncode,
                 output.decode("utf-8", "replace"), slices)


def signal_group(pgid: int, sig: int) -> None:
    """Signal a child's process group; a group that has ended is ignored."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


@dataclass(frozen=True)
class Launcher:
    env: dict
    deadline: float
    speed: HostSpeed
    log: Path

    def run(self, args: list[str]) -> Child:
        return run_child(args, self.env, self.deadline, self.speed, self.log)

    def cli(self, command: str, config: Path) -> Child:
        return self.run(
            [sys.executable, "-m", "prefqc.cli", command, "--config", str(config)]
        )

    def traced(self, command: str, config: Path, result: Path) -> Child:
        return self.run(
            [sys.executable, str(BENCH / "traced.py"), command, str(config), str(result)]
        )

    def import_time(self) -> Child:
        return self.run([sys.executable, "-c", "import prefqc.cli"])


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    """One repetition of a workload's commands, with its checks."""

    wall_s: float = 0.0  # at the reference host speed
    raw_wall_s: float = 0.0
    host_factors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    accuracy: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    commands: dict = field(default_factory=dict)  # command -> (wall_s, peak_rss_mb)
    cells: dict = field(default_factory=dict)  # eval: cell -> (delta, accuracy)

    def add(self, command: str, child: Child) -> bool:
        self.wall_s += child.seconds
        self.raw_wall_s += child.wall_s
        self.host_factors.append(child.host_factor)
        self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
        self.commands[command] = (child.seconds, child.peak_rss_mb)
        if child.exit_code != 0:
            self.problems.append(
                f"{command} exited {child.exit_code}: {child.output.strip()[-300:]}"
            )
            return False
        return True

    def fail(self, problem: str, ops: int = 1) -> None:
        self.problems.append(problem)
        self.failed += ops


def checked(p: Pass, check, out: Path) -> bool:
    """Run an output check; unreadable or malformed outputs fail it."""
    try:
        return check(p, out)
    except (OSError, ValueError, KeyError) as exc:
        p.problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
        return False


class BulkRunner:
    def __init__(self, wl: BulkWorkload, seed: int, work: Path, launch: Launcher):
        self.wl, self.launch = wl, launch
        self.annotations = work / "annotations.jsonl"
        start = time.perf_counter()
        self.data: Dataset = generate(wl.spec, seed, self.annotations)
        self.gen_s = time.perf_counter() - start
        above = self.data.true_eta > np.quantile(self.data.true_eta, 0.5)
        self.truly_above = {u for u, a in zip(self.data.user_ids, above) if a}
        self.n_of = dict(zip(self.data.user_ids, self.data.n_labels.tolist()))

    def sizes(self) -> dict:
        d = self.data
        return {"users": len(d.user_ids), "records": d.records,
                "unique_rows": d.unique_rows, "input_bytes": d.bytes}

    def configs(self, out: Path) -> tuple[Path, Path]:
        out.mkdir(parents=True, exist_ok=True)
        fit = {"annotations": str(self.annotations), "out_dir": str(out),
               "family": self.wl.family, "mu": self.wl.spec.mu, "mu_mode": "fixed"}
        infer = {"annotations": str(self.annotations), "fit": str(out / "fit.json"),
                 "out_dir": str(out), "rule": self.wl.rule}
        if self.wl.eta_stars:
            infer["eta_stars"] = self.wl.eta_stars
        return (write_config(out / "fit_config.json", fit),
                write_config(out / "infer_config.json", infer))

    def cli_pass(self, out: Path) -> Pass:
        p = Pass(attempted=2)
        fit_cfg, infer_cfg = self.configs(out)
        if not p.add("fit", self.launch.cli("fit", fit_cfg)):
            p.fail("fit failed", ops=2)  # infer cannot run without a fit
            return p
        if not checked(p, self.check_fit, out):
            p.failed += 1
        if not p.add("infer", self.launch.cli("infer", infer_cfg)):
            p.failed += 1
            return p
        if not checked(p, self.check_infer, out):
            p.failed += 1
            return p
        p.digests = {name: sha256_of(out / name) for name in sorted(
            ("fit.json", "trajectory.csv", "posteriors.csv", "decisions.csv",
             "filtered.jsonl", "pairs.jsonl"))}
        return p

    def check_fit(self, p: Pass, out: Path) -> bool:
        stop = json.loads((out / "fit.json").read_text())["stop_reason"]
        if stop != "param_tol":
            p.problems.append(f"fit stop_reason {stop!r}, expected 'param_tol'")
            return False
        return True

    def check_infer(self, p: Pass, out: Path) -> bool:
        with open(out / "decisions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        users = [r["user_id"] for r in rows]
        if len(users) != len(self.n_of) or set(users) != set(self.n_of):
            p.problems.append("decisions.csv does not hold exactly one row per user")
            return False
        kept = {r["user_id"] for r in rows if r["attentive"] == "true"}
        want = sum(self.n_of[u] for u in kept)
        ok = True
        for name in ("filtered.jsonl", "pairs.jsonl"):
            got = count_lines(out / name)
            if got != want:
                p.problems.append(f"{name} has {got} lines, kept users have {want}")
                ok = False
        p.accuracy = len(kept & self.truly_above) / len(self.truly_above)
        if p.accuracy < self.wl.accuracy_floor:
            p.problems.append(
                f"recovery_accuracy {p.accuracy:.4f} below floor {self.wl.accuracy_floor}"
            )
            ok = False
        return ok

    def traced_pass(self, out: Path, reference: Pass) -> tuple[Pass, list[dict]]:
        p = Pass(attempted=2)
        fit_cfg, infer_cfg = self.configs(out)
        results = []
        for command, cfg in (("fit", fit_cfg), ("infer", infer_cfg)):
            result_path = out / f"trace_{command}.json"
            child = self.launch.traced(command, cfg, result_path)
            if not p.add(command, child):
                p.failed = 2
                return p, results
            results.append(json.loads(result_path.read_text()))
            results[-1]["slices"] = child.slices
            for name, digest in results[-1]["digests"].items():
                p.digests[name] = digest
                if reference.digests and reference.digests.get(name) != digest:
                    p.fail(f"traced {name} differs from the CLI's")
        return p, results


class EvalRunner:
    def __init__(self, wl: EvalWorkload, seed: int, work: Path, launch: Launcher):
        self.wl, self.seed, self.launch = wl, seed, launch
        self.gen_s = 0.0

    def sizes(self) -> dict:
        return {"cells": len(self.wl.cells),
                "users": sum(c["scenario"]["num_users"] for c in self.wl.cells)}

    def config(self, out: Path) -> Path:
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"cells": self.wl.cells, "seeds": [self.seed], "out_dir": str(out)}
        return write_config(out / "eval_config.json", cfg)

    def cli_pass(self, out: Path) -> Pass:
        tasks = len(self.wl.cells)
        p = Pass(attempted=tasks)
        if not p.add("eval", self.launch.cli("eval", self.config(out))):
            p.failed = tasks
            return p
        if not checked(p, self.check_sweep, out):
            p.failed = tasks
            return p
        p.digests = {"sweep.csv": sha256_of(out / "sweep.csv")}
        return p

    def check_sweep(self, p: Pass, out: Path) -> bool:
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.wl.cells):
            p.problems.append(f"sweep.csv has {len(rows)} rows, "
                              f"expected {len(self.wl.cells)}")
            return False
        bad = [r for r in rows if int(r["seeds_failed"]) != 0]
        if bad:
            p.problems.append(f"{len(bad)} eval tasks failed: {bad[0]['note']}")
            return False
        p.cells = {
            r["cell"]: (float(r["delta_mean"]), float(r["accuracy_mean"])) for r in rows
        }
        p.accuracy = statistics.fmean(a for _, a in p.cells.values())
        return True

    def traced_pass(self, out: Path, reference: Pass) -> tuple[Pass, list[dict]]:
        tasks = len(self.wl.cells)
        p = Pass(attempted=tasks)
        result_path = out / "trace_eval.json"
        child = self.launch.traced("eval", self.config(out), result_path)
        if not p.add("eval", child):
            p.failed = tasks
            return p, []
        result = json.loads(result_path.read_text())
        result["slices"] = child.slices
        traced_cells = {c["cell"]: (c["delta"], c["accuracy"]) for c in result["cells"]}
        if reference.cells and traced_cells != reference.cells:
            p.fail(f"traced per-cell (delta, accuracy) {traced_cells} differ from "
                   f"sweep.csv {reference.cells}")
        return p, [result]


# ------------------------------------------------------------ statistics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# Sizes of the dataset a command works on. fit and infer each group the same
# records, so these are the largest value over a pass's commands; all other
# counters are work done, summed over the pass.
DATASET_COUNTERS = ("model.users", "model.unique_rows")


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counters.

    Span times are mapped onto the slices their child ran, so they are in
    reference seconds, as the end-to-end times are, and leave out the time
    the child was stopped.
    """
    spans = [
        dict(s, start=reference_clock(r["slices"], s["start"]),
             end=reference_clock(r["slices"], s["end"]))
        for r in results for s in r["spans"]
    ]
    counters: dict[str, float] = {}
    for r in results:
        for name, value in r["counters"].items():
            if name in DATASET_COUNTERS:
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0.0) + value
    total: dict[str, float] = {}
    child_time: dict[tuple, float] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + duration
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + duration
    cli_self = sum(
        (s["end"] - s["start"]) - child_time.get((s["run"], s["id"]), 0.0)
        for s in spans if s["parent"] is None
    )
    imports = [s["end"] - s["start"] for s in spans if s["name"] == "cli.import"]
    m = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith("_s") and name[:-2] in total:
            m[name] = total[name[:-2]]
        elif name in counters:
            m[name] = counters[name]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["cli.self_s"] = cli_self
    users = counters.get("model.users", 0.0)
    m["model.rows_per_user"] = counters.get("model.unique_rows", 0.0) / users if users else 0.0
    iterations = counters.get("em.iterations", 0.0)
    if iterations:
        m["em.s_per_iteration"] = total.get("em.fit", 0.0) / iterations
        m["em.matrix_cells_per_iteration"] = counters["em.matrix_cells"] / iterations
        m["em.matrix_bytes_per_iteration"] = 8.0 * m["em.matrix_cells_per_iteration"]
    return m


# ------------------------------------------------------------------- run

def environment(seed: int, env: dict, sizes: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        **{var: env[var] for var in BLAS_VARS},
        "PREFQC_WORKERS": os.environ.get("PREFQC_WORKERS", "unset")
        + " (children run with it unset)",
        "seed": seed,
        **sizes,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def time_import(launch: Launcher, imports: list, problems: list) -> None:
    child = launch.import_time()
    if child.exit_code != 0:
        problems.append(f"import prefqc.cli exited {child.exit_code}: "
                        f"{child.output.strip()[-300:]}")
    imports.append(child)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launch = Launcher(child_env(), time.monotonic() + RUN_LIMIT_S, HostSpeed(),
                      work / "child.log")
    try:
        return _run(name, seed, seconds, trace, launch, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, launch, work) -> dict:
    wl = WORKLOADS[name]
    runner = (BulkRunner if isinstance(wl, BulkWorkload) else EvalRunner)(
        wl, seed, work, launch
    )
    imports: list[Child] = []
    problems: list[str] = []
    passes: list[Pass] = []
    traced_passes: list[Pass] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        # Import timings are spread over the run, one before each pass, so
        # that setup_s sees the same machine state as the passes do.
        time_import(launch, imports, problems)
        out = work / f"pass{len(passes)}"
        p = runner.cli_pass(out / "cli")
        passes.append(p)
        if trace:
            tp, results = runner.traced_pass(out / "traced", p)
            traced_passes.append(tp)
            if not tp.failed:
                m = layer_metrics(results)
                m["trace.overhead_s"] = tp.wall_s - p.wall_s
                layers.append(m)
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        # At least MIN_PASSES untraced (one traced pair, which has no
        # bound); then start another only if it should end within the run.
        enough = len(passes) >= (1 if trace else MIN_PASSES)
        if enough and elapsed + elapsed / len(passes) > seconds:
            break

    while len(imports) < MIN_SETUP_SAMPLES:
        time_import(launch, imports, problems)
    reference = next((p.digests for p in passes if p.digests), {})
    for p in passes:
        if p.digests and p.digests != reference:
            p.fail("output digests differ from the first pass")
    all_passes = passes + traced_passes
    problems += [msg for p in all_passes for msg in p.problems]
    attempted = sum(p.attempted for p in all_passes)
    failed = min(attempted, sum(p.failed for p in all_passes))
    digest_sets = {json.dumps(p.digests, sort_keys=True) for p in passes if p.digests}

    samples = {
        "setup_s": [c.seconds for c in imports],
        "wall_s": [p.wall_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "raw.setup_s": [c.wall_s for c in imports],
        "raw.wall_s": [p.raw_wall_s for p in passes],
        "host_factor": [c.host_factor for c in imports]
        + [f for p in passes for f in p.host_factors],
    }
    accuracy = [p.accuracy for p in passes if p.accuracy is not None]
    for command in passes[0].commands:
        samples[f"{command}_s"] = [p.commands[command][0] for p in passes
                                   if command in p.commands]
        samples[f"{command}_peak_rss_mb"] = [p.commands[command][1] for p in passes
                                             if command in p.commands]
    if trace:
        samples.update({metric: [m[metric] for m in layers] for metric in PER_LAYER})
    samples["filtering.recovery_accuracy"] = accuracy
    correct = failed == 0 and not problems and all(samples.get(k) for k in (
        PER_LAYER if trace else END_TO_END))
    return {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed, launch.env, runner.sizes()),
        "gen_s": runner.gen_s,
        "passes": len(passes),
        "samples": samples,
        "digests": reference,
        "digest_sets": len(digest_sets),
        "problems": problems,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    if metric == "host_factor":
        return "ratio"
    return "MB" if metric.endswith("_mb") else "s"


def report(result: dict) -> dict:
    """Print the human-readable table; return the contract's result object."""
    name = result["workload"]
    print(f"== {name} (trace {result['trace']}), {result['passes']} passes")
    for key, value in result["environment"].items():
        print(f"   env {key} = {value}")
    print(f"   input generation {result['gen_s']:.3f} s (not a program metric)")
    print(f"   {'metric':<34} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for metric, values in result["samples"].items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        print(f"   {metric:<34} {unit_of(metric):<6} {med:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g} {len(values):>3}")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}")
    print(f"   distinct output digest sets across passes: {result['digest_sets']}")
    for file_name, digest in sorted(result["digests"].items()):
        print(f"   sha256 {file_name} {digest}")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")

    wanted = PER_LAYER if result["trace"] else END_TO_END
    metrics = {
        metric: {"value": statistics.median(result["samples"][metric]),
                 "unit": wanted[metric]}
        for metric in wanted if result["samples"].get(metric)
    }
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(result: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = result["environment"]
    path = results / f"{result['workload']}-seed{env['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "prefqc" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'prefqc'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save(result)
        summary[name] = report(result)
    if args.workload == "all":
        print(json.dumps(summary))
        return 0 if all(s["correct"] for s in summary.values()) else 1
    print(json.dumps(summary[args.workload]))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One hash seed for this process and its children: dict and set
        # layouts then repeat from process to process. With a random seed the
        # reference computation's median moved by up to 10% between two
        # processes on the same host, and every time of a run moved with it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
