import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_compare_outputs_reports_each_file(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    csv_head = "tick,agent,metric,value\n"
    _write(parent, "a/metrics.csv", csv_head + "1,0,sq_err,2.0\n1,1,sq_err,4.0\n")
    _write(change, "a/metrics.csv", csv_head + "1,0,sq_err,2.0\n1,1,sq_err,4.5\n")
    _write(parent, "a/summary.json", json.dumps({"mse": 10.0, "norms": [1.0, 2.0], "scenario": "x"}))
    _write(change, "a/summary.json", json.dumps({"mse": 10.0, "norms": [1.0, 1.5], "scenario": "x"}))
    _write(parent, "b/metrics.csv", csv_head + "1,0,sq_err,1.0\n")
    _write(change, "b/metrics.csv", csv_head + "1,0,sq_err,1.0\n")
    _write(parent, "c/metrics.csv", csv_head)

    assert compare_outputs.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "a/metrics.csv: 1 of 3 rows differ, largest change 0.5 absolute, 0.125 relative",
        "a/summary.json: 1 of 4 rows differ, largest change 0.5 absolute, 0.25 relative",
        "b/metrics.csv: identical",
        "c/metrics.csv: only in the parent",
        "1 of 4 files identical",
    ]
    # a set against itself is identical throughout
    assert compare_outputs.main([str(parent), str(parent)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4 of 4 files identical"
    assert compare_outputs.main([str(parent)]) == 2
