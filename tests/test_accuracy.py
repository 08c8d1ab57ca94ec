import importlib.util
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # the tool imports its sibling golden_outputs
_SPEC = importlib.util.spec_from_file_location("accuracy", _TOOLS / "accuracy.py")
accuracy = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(accuracy)


def _record(parent, change):
    keys = ("steady_state_mse", "steady_state_mse_central")
    return {
        str(seed): {"parent": dict.fromkeys(keys, p), "change": dict.fromkeys(keys, c)}
        for seed, (p, c) in enumerate(zip(parent, change), start=1)
    }


def test_summarize_allows_a_rounding_level_move_past_the_parent_range():
    parent = [256.35, 300.0, 400.0, 500.0, 1000.0]
    # seeds 1 and 5 hold the parent's minimum and maximum; each moves just past
    # it, by less than 1e-9 relative (the -5.7e-14 move of a real record), by
    # more on seeds 2 and 3, and not at all on seed 4
    change = [256.35 - 5.7e-14, 256.35 * (1 - 2e-9), 1000.0 * (1 + 2e-9), 500.0, 1000.0 * (1 + 0.5e-9)]
    out = accuracy.summarize(_record(parent, change))
    for key in ("steady_state_mse", "steady_state_mse_central"):
        summary = out[key]
        assert (summary["parent_min"], summary["parent_max"]) == (256.35, 1000.0)
        assert summary["seeds_outside_the_parent_range"] == ["2", "3"]
        assert summary["change_minus_parent"]["4"] == 0.0

