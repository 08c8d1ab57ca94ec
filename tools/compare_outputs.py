"""Compare two output sets of ``tools/golden_outputs.py`` file by file.

    python3 tools/compare_outputs.py PARENT_OUT CHANGE_OUT

For each file of either set it prints one line: ``identical``, the side it
is missing from, or how many rows differ and the largest absolute and
relative change of the differing values. A ``metrics.csv`` row is one line,
and its value is the last column; a ``summary.json`` row is one key, a list
entry counting as a key of its own, and its value is the key's number. A
relative change is the absolute change over the parent's magnitude. The last
line counts the identical files. The exit status is 0 when every file is
identical, 1 otherwise and 2 on a usage error.
"""

import csv
import json
import math
import sys
from pathlib import Path


def _rows(path: Path) -> list:
    """The (key, value) rows of one output file, in file order."""
    if path.suffix == ".json":
        out = []

        def walk(key, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{key}.{k}" if key else k, v)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{key}[{i}]", v)
            else:
                out.append((key, json.dumps(value)))

        walk("", json.loads(path.read_text(encoding="utf-8")))
        return out
    with path.open(newline="", encoding="utf-8") as fh:
        return [(tuple(row[:-1]), row[-1]) for row in csv.reader(fh)]


def _number(text: str):
    """``text`` as a float, or None when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def compare(parent: Path, change: Path) -> str:
    """One line on how ``change`` differs from ``parent``."""
    if parent.read_bytes() == change.read_bytes():
        return "identical"
    old, new = _rows(parent), _rows(change)
    differ = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    line = f"{differ} of {len(old)} rows differ"
    if len(old) != len(new):
        line += f" ({len(new)} rows in the change)"
    largest_abs = largest_rel = 0.0
    for (key_a, a), (key_b, b) in zip(old, new):
        x, y = _number(a), _number(b)
        if key_a != key_b or a == b or x is None or y is None:
            continue
        gap = abs(y - x)
        if math.isnan(gap):  # a number against NaN
            gap = math.inf
        largest_abs = max(largest_abs, gap)
        largest_rel = max(largest_rel, gap / abs(x) if 0.0 < abs(x) < math.inf else math.inf)
    return f"{line}, largest change {largest_abs:.3g} absolute, {largest_rel:.3g} relative"


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage:", __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_root, change_root = (Path(a) for a in argv)
    for root in (parent_root, change_root):
        if not root.is_dir():
            print(f"{root} is not a directory", file=sys.stderr)
            return 2
    names = sorted({p.relative_to(root) for root in (parent_root, change_root) for p in root.rglob("*") if p.is_file()})
    same = 0
    for name in names:
        parent, change = parent_root / name, change_root / name
        if not change.exists():
            verdict = "only in the parent"
        elif not parent.exists():
            verdict = "only in the change"
        else:
            verdict = compare(parent, change)
        same += verdict == "identical"
        print(f"{name}: {verdict}")
    print(f"{same} of {len(names)} files identical")
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
