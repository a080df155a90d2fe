"""tools/outdiff.py: what differs between two output directories."""

import importlib.util
import json
from pathlib import Path

OUTDIFF_PATH = Path(__file__).resolve().parent.parent / "tools" / "outdiff.py"
_spec = importlib.util.spec_from_file_location("outdiff", OUTDIFF_PATH)
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)


def _outputs(root: Path, score=0.25, attentive="true", mu=0.8, lines=("a", "b")) -> Path:
    root.mkdir()
    (root / "decisions.csv").write_text(
        "user_id,attentive,rule,score\n"
        f"u0,{attentive},r,{score}\n"
        "u1,false,r,0.5\n"
    )
    (root / "fit.json").write_text(
        json.dumps({"params": {"mu": mu, "prior": {"type": "beta"}}, "iterations": 3})
    )
    (root / "filtered.jsonl").write_text("".join(f'{{"x": "{s}"}}\n' for s in lines))
    return root


def test_identical_directories(tmp_path, capsys):
    a, b = _outputs(tmp_path / "a"), _outputs(tmp_path / "b")
    assert outdiff.compare(a, b) == {}
    assert outdiff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical: 3 files\n"


def test_reports_each_kind_of_change(tmp_path, capsys):
    a = _outputs(tmp_path / "a")
    b = _outputs(tmp_path / "b", score=0.3, attentive="false", mu=0.81, lines=("b", "c", "a"))
    (b / "extra.csv").write_text("x\n1\n")
    report = outdiff.compare(a, b)
    assert report["only_in_b"] == ["extra.csv"]
    changed = report["changed"]
    assert set(changed) == {"decisions.csv", "fit.json", "filtered.jsonl"}
    decisions = changed["decisions.csv"]
    assert decisions["columns"]["attentive"] == {"cells_differ": 1}
    score = decisions["columns"]["score"]
    assert abs(score["max_abs"] - 0.05) < 1e-12
    assert abs(score["max_rel"] - 0.05 / 0.3) < 1e-12
    assert decisions["decision_flips"] == ["u0"]
    assert changed["fit.json"]["keys"] == ["params.mu"]
    assert changed["filtered.jsonl"] == {
        "sha256": changed["filtered.jsonl"]["sha256"],
        "only_in_a": 0,
        "only_in_b": 1,
    }
    assert outdiff.main([str(a), str(b)]) == 1
    assert json.loads(capsys.readouterr().out) == report


def test_a_row_split_by_a_bare_carriage_return_is_reported(tmp_path):
    a, b = _outputs(tmp_path / "a"), _outputs(tmp_path / "b")
    for root, user in ((a, "cr\ronly"), (b, '"cr\ronly"')):
        with open(root / "decisions.csv", "a", newline="") as fh:
            fh.write(f"{user},true,r,0.75\n")
    report = outdiff.compare(a, b)["changed"]["decisions.csv"]
    assert report["rows"] == [4, 3]
    assert report["columns"]["score"] == {"cells_differ": 1}


def test_json_changes_name_added_and_removed_keys():
    x = {"a": 1, "b": {"c": [1, 2], "d": None}}
    y = {"a": 1, "b": {"c": [1, 3], "e": 0}}
    assert outdiff.json_changes(x, y) == ["b.c", "b.d", "b.e"]
    assert outdiff.json_changes(1, 2) == ["(root)"]


def test_a_missing_directory_exits_2(tmp_path):
    assert outdiff.main([str(tmp_path), str(tmp_path / "nope")]) == 2
    assert outdiff.main([str(tmp_path)]) == 2
