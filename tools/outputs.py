"""Run a fixed prefqc command set on one source tree and keep every output.

Usage:
    python tools/outputs.py SRC OUT

Each command runs as a child process, `python -m prefqc.cli COMMAND --config
CONFIG`, with PYTHONPATH=SRC and its case directory under OUT as the working
directory. Configs name files relative to that directory, so no output holds
OUT's own path. The set:

- `fit`, `infer` and `filter` on the `bench/gen.py` inputs of the `beta_bulk`
  and `twopoint_long` workloads at seeds 1-3, with the specs, rules and
  eta_stars of `bench/run.py`'s WORKLOADS (case `<workload>_<seed>`; filter
  replays infer's decisions into `filter/`);
- `fit` and `infer` on the `beta_bulk` input at seed 1, twice more: a free
  `mu` under a Beta(8, 2) log-prior (case `beta_bulk_free_mu`), and `mu` 0.2
  on the input with every label flipped, so that the fit flips them back
  (case `beta_bulk_flipped`);
- `infer` and `filter` on a small input that this tool writes, with a
  fit.json it writes (fixed Beta and two-point parameters), for each rule of
  RULES (case `ids_<family>_<rule>`). Its users share (sum_z, n) rows, its
  ids hold commas, quotes, newlines, non-ASCII text and the empty string,
  and its rules cut through users of tied (MAP, mean), sit on -0.0 or ask
  for a tail at a star that `eta_stars` leaves out. A second input adds an
  id holding a bare carriage return, which the CSV reports quote (case
  `bare_cr_<family>`);
- `eval` over the `eval_mu_effect` cells, one run per seed 1-3 (case
  `eval_<seed>`), and over two-point cells with tail and ranking rules and
  quantiles other than the median, seeds 1-3 in one run (case
  `eval_two_point`), and over two of those cells renamed to names that
  `sweep.csv` must quote, one holding a bare carriage return, seed 1 (case
  `eval_odd_names`);
- `simulate` on every preset that SRC lists (case `simulate_<preset>`).

Beside a command's output files its case directory holds COMMAND_config.json,
COMMAND.exit (the exit code), COMMAND.stdout and COMMAND.stderr. To check that
two trees write the same bytes, run this on each and then
`python tools/outdiff.py OUT_A OUT_B`.

Exits 0 when every command exited 0, 1 when one did not, and 2 on bad
arguments.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)

# The small input's parameters, rules and tail points.
PARAMS = {
    "beta": {"prior": {"type": "beta", "alpha": 3.0, "beta": 5.0}, "mu": 0.8},
    # Rows of 200 labels with few losses put all mass on eta_hi, so distinct
    # rows share their MAP and mean.
    "two_point": {"prior": {"type": "two_point", "q1": 0.6, "eta_lo": 0.4,
                            "eta_hi": 0.98}, "mu": 0.8},
}
RULES = {
    "top_fraction": {"type": "top_fraction", "fraction": 0.45},
    "top_fraction_tied_rows": {"type": "top_fraction", "fraction": 0.1},
    "threshold_minus_zero": {"type": "threshold", "value": -0.0},
    "tail_star_not_evaluated": {"type": "tail_probability", "eta_star": 0.55,
                                "level": 0.5},
}
ETA_STARS = [0.3, 0.7]
ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "", "naïve—日本", "\r\n,\""]
BARE_CR_ID = "cr\ronly"
# eval_two_point's cells: a two-point population scored with a tail rule and
# a ranking, each at a quantile other than the median, known and free mu.
TWO_POINT_SCENARIO = {
    "prior": {"type": "two_point", "q1": 0.6, "eta_lo": 0.4, "eta_hi": 0.98},
    "mu": 0.8, "num_users": 300, "n_range": [20, 60], "seed": 0,
    "per_item_p_model": None,
}
TWO_POINT_CELLS = [
    {"cell": f"{variant}_{name}", "family": "two_point", "scenario": TWO_POINT_SCENARIO,
     "mu_variant": variant, "rule": rule, "quantile": quantile}
    for variant in ("known", "beta_prior")
    for name, rule, quantile in (
        ("tail", {"type": "tail_probability", "eta_star": 0.7, "level": 0.5}, 0.3),
        ("ranking", {"type": "top_fraction", "fraction": 0.5}, 0.2),
    )
]
# eval_odd_names' cell names: a comma, a quote and a newline, then a bare
# carriage return.
ODD_CELL_NAMES = ['a,b "c"\nd', BARE_CR_ID]


@dataclass(frozen=True)
class Command:
    case: str  # the directory under OUT it runs in
    name: str  # the prefqc subcommand
    config: dict  # paths relative to the case directory
    # Writes annotations.jsonl; for the small input, fit.json beside it too.
    make_input: Callable[[Path], object] | None = None


def small_input(params: dict, ids: list[str], path: Path) -> None:
    """Write annotations.jsonl of users on a few shared (sum_z, n) rows, and
    fit.json holding `params`, beside it."""
    rows = [(9, 10), (7, 10), (7, 10), (5, 10), (200, 200), (190, 200), (20, 40), (1, 3)]
    users = [f"u{k:02d}" for k in range(28)] + ids
    labels = [[1] * s + [0] * (n - s) for s, n in (rows[k % len(rows)] for k in range(len(users)))]
    # Users interleave: the j-th label of every user that has one, j = 0, 1, ...
    lines = [
        json.dumps({"user_id": u, "item_id": f"i{j}", "label": z[j]}, ensure_ascii=False)
        + "\n"
        for j in range(max(map(len, labels)))
        for u, z in zip(users, labels)
        if j < len(z)
    ]
    path.write_text("".join(lines), encoding="utf-8")
    fit = {"params": {**params, "mu_mode": "fixed"}, "converged": True}
    (path.parent / "fit.json").write_text(json.dumps(fit) + "\n", encoding="utf-8")


def flipped_input(generate, path: Path) -> None:
    """Write `generate`'s annotations.jsonl, then flip every label in it."""
    generate(path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    path.write_text(
        "".join(json.dumps({**r, "label": 1 - r["label"]}) + "\n" for r in records),
        encoding="utf-8",
    )


def _bench_run():
    """bench/run.py as a module; it puts bench/ on sys.path for bench/gen.py."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _python(src: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def presets(src: Path) -> list[str]:
    """The simulate presets that the prefqc of `src` lists."""
    code = "import prefqc; print('\\n'.join(prefqc.list_presets()))"
    done = _python(src, ROOT, "-c", code)
    if done.returncode != 0:
        raise RuntimeError(f"listing presets failed: {done.stderr.strip()}")
    return done.stdout.split()


def command_set(src: Path) -> list[Command]:
    bench = _bench_run()
    commands = []
    for name in ("beta_bulk", "twopoint_long"):
        wl = bench.WORKLOADS[name]
        for seed in SEEDS:
            case = f"{name}_{seed}"
            infer = {"annotations": "annotations.jsonl", "fit": "fit.json",
                     "out_dir": ".", "rule": wl.rule}
            if wl.eta_stars:
                infer["eta_stars"] = wl.eta_stars
            commands += [
                Command(case, "fit", {"annotations": "annotations.jsonl", "out_dir": ".",
                                      "family": wl.family, "mu": wl.spec.mu,
                                      "mu_mode": "fixed"},
                        functools.partial(bench.generate, wl.spec, seed)),
                Command(case, "infer", infer),
                Command(case, "filter", {"annotations": "annotations.jsonl",
                                         "decisions": "decisions.csv",
                                         "out_dir": "filter"}),
            ]
    wl = bench.WORKLOADS["beta_bulk"]
    generate = functools.partial(bench.generate, wl.spec, SEEDS[0])
    infer = {"annotations": "annotations.jsonl", "fit": "fit.json", "out_dir": ".",
             "rule": wl.rule, "eta_stars": wl.eta_stars}
    free_mu = {"mu_mode": "free", "regularizer": {"type": "log_prior_on_mu", "a": 8.0,
                                                  "b": 2.0}}
    for case, make, mu_keys in (
        ("beta_bulk_free_mu", generate, free_mu),
        ("beta_bulk_flipped", functools.partial(flipped_input, generate),
         {"mu": 0.2}),
    ):
        fit = {"annotations": "annotations.jsonl", "out_dir": ".", "family": wl.family}
        commands += [
            Command(case, "fit", {**fit, **mu_keys}, make),
            Command(case, "infer", infer),
        ]
    for family, params in PARAMS.items():
        for name, rule in RULES.items():
            case = f"ids_{family}_{name}"
            make = functools.partial(small_input, params, ODD_IDS)
            commands += [
                Command(case, "infer", {"annotations": "annotations.jsonl",
                                        "fit": "fit.json", "out_dir": ".", "rule": rule,
                                        "eta_stars": ETA_STARS}, make),
                Command(case, "filter", {"annotations": "annotations.jsonl",
                                         "decisions": "decisions.csv",
                                         "out_dir": "filter"}),
            ]
        commands += [
            Command(f"bare_cr_{family}", "infer",
                    {"annotations": "annotations.jsonl", "fit": "fit.json", "out_dir": ".",
                     "rule": RULES["top_fraction"], "eta_stars": ETA_STARS},
                    functools.partial(small_input, params, ODD_IDS + [BARE_CR_ID])),
            Command(f"bare_cr_{family}", "filter", {"annotations": "annotations.jsonl",
                                                    "decisions": "decisions.csv",
                                                    "out_dir": "filter"}),
        ]
    cells = bench.WORKLOADS["eval_mu_effect"].cells
    commands += [
        Command(f"eval_{seed}", "eval", {"cells": cells, "seeds": [seed], "out_dir": "."})
        for seed in SEEDS
    ]
    commands.append(Command("eval_two_point", "eval", {"cells": TWO_POINT_CELLS,
                                                       "seeds": list(SEEDS), "out_dir": "."}))
    odd_cells = [{**c, "cell": name} for c, name in zip(TWO_POINT_CELLS, ODD_CELL_NAMES)]
    commands.append(Command("eval_odd_names", "eval", {"cells": odd_cells,
                                                       "seeds": [SEEDS[0]], "out_dir": "."}))
    commands += [
        Command(f"simulate_{preset}", "simulate", {"preset": preset, "out_dir": "."})
        for preset in presets(src)
    ]
    return commands


def run(src: Path, out: Path, commands: list[Command]) -> int:
    """Run `commands` in order; the number that exited nonzero."""
    failed = 0
    for cmd in commands:
        cwd = out / cmd.case
        cwd.mkdir(parents=True, exist_ok=True)
        if cmd.make_input is not None:
            cmd.make_input(cwd / "annotations.jsonl")
        config = cwd / f"{cmd.name}_config.json"
        config.write_text(json.dumps(cmd.config, indent=2) + "\n", encoding="utf-8")
        done = _python(src, cwd, "-m", "prefqc.cli", cmd.name, "--config", config.name)
        (cwd / f"{cmd.name}.exit").write_text(f"{done.returncode}\n")
        (cwd / f"{cmd.name}.stdout").write_text(done.stdout)
        (cwd / f"{cmd.name}.stderr").write_text(done.stderr)
        failed += done.returncode != 0
        print(f"{cmd.case} {cmd.name}: exit {done.returncode}", flush=True)
    return failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    src, out = (Path(a).resolve() for a in argv)
    if not (src / "prefqc").is_dir():
        print(f"error: {src} holds no prefqc package", file=sys.stderr)
        return 2
    failed = run(src, out, command_set(src))
    print(f"{failed} commands exited nonzero" if failed else "every command exited 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
