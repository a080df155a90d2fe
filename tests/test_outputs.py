"""tools/outputs.py: a fixed command set run against one source tree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)
_spec = importlib.util.spec_from_file_location("outdiff", ROOT / "tools" / "outdiff.py")
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)


def test_command_set_covers_every_command_and_preset():
    commands = outputs.command_set(ROOT / "src")
    names = [(c.case, c.name) for c in commands]
    assert len(names) == len(set(names))
    for workload in ("beta_bulk", "twopoint_long"):
        for seed in outputs.SEEDS:
            case = f"{workload}_{seed}"
            assert [n for c, n in names if c == case] == ["fit", "infer", "filter"]
    for case in ("beta_bulk_free_mu", "beta_bulk_flipped"):
        assert [n for c, n in names if c == case] == ["fit", "infer"]
    for family in outputs.PARAMS:
        for rule in outputs.RULES:
            assert [n for c, n in names if c == f"ids_{family}_{rule}"] == ["infer", "filter"]
        assert [n for c, n in names if c == f"bare_cr_{family}"] == ["infer", "filter"]
    evals = [c for c, n in names if n == "eval"]
    assert evals == ["eval_1", "eval_2", "eval_3", "eval_two_point", "eval_odd_names"]
    (two_point,) = [c for c in commands if c.case == "eval_two_point"]
    cells = two_point.config["cells"]
    assert {c["family"] for c in cells} == {"two_point"}
    assert {c["rule"]["type"] for c in cells} >= {"tail_probability"}
    assert all(c["quantile"] != 0.5 for c in cells)
    (odd,) = [c for c in commands if c.case == "eval_odd_names"]
    names = "".join(c["cell"] for c in odd.config["cells"])
    assert all(ch in names for ch in ',"\n') and "\r" in names.replace("\r\n", "")
    simulated = [c.config["preset"] for c in commands if c.name == "simulate"]
    assert simulated == outputs.presets(ROOT / "src") and simulated


def test_two_commands_write_the_same_bytes_in_any_directory(tmp_path):
    commands = outputs.command_set(ROOT / "src")[:2]  # beta_bulk seed 1: fit, infer
    for side in ("a", "b"):
        assert outputs.run(ROOT / "src", tmp_path / side, commands) == 0
    case = tmp_path / "a" / "beta_bulk_1"
    for name in ("fit", "infer"):
        assert (case / f"{name}.exit").read_text() == "0\n"
        assert (case / f"{name}.stderr").read_text() == ""
        assert str(tmp_path) not in (case / f"{name}.stdout").read_text()
    for name in ("annotations.jsonl", "fit.json", "decisions.csv", "pairs.jsonl"):
        assert (case / name).is_file()
    assert outdiff.compare(tmp_path / "a", tmp_path / "b") == {}


def test_small_input_cases_exit_0_and_repeat_their_bytes(tmp_path):
    commands = [
        c for c in outputs.command_set(ROOT / "src")
        if c.case in ("ids_two_point_top_fraction_tied_rows", "bare_cr_beta")
    ]
    assert [c.name for c in commands] == ["infer", "filter", "infer", "filter"]
    for side in ("a", "b"):
        assert outputs.run(ROOT / "src", tmp_path / side, commands) == 0
    case = tmp_path / "a" / "bare_cr_beta"
    assert (case / "infer.stderr").read_text() == ""
    with open(case / "decisions.csv", encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert '\n"cr\ronly",' in text and '\n"two\nlines",' in text
    for case in ("ids_two_point_top_fraction_tied_rows", "bare_cr_beta"):
        filtered = tmp_path / "a" / case / "filter"
        assert (filtered / "filtered.jsonl").stat().st_size > 0
    assert outdiff.compare(tmp_path / "a", tmp_path / "b") == {}


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert outputs.main([str(tmp_path)]) == 2
    assert outputs.main([str(tmp_path), str(tmp_path / "out")]) == 2
    assert "holds no prefqc package" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
