"""Write the byte-identity output set of this checkout into OUTDIR.

    python3 tools/golden_outputs.py OUTDIR

Each run below goes through ``dbfnet run`` and keeps its ``metrics.csv`` and
``summary.json`` (48 files); perfbench's ``envelope-objapi`` workload, run by
``perfbench/workload.py`` as it stands, adds its ``metrics.csv`` (49 files).
Every run is its own process, one at a time, importing ``dbfnet`` from this
checkout's ``src`` with BLAS on one thread. A change that must keep every
output's bits runs this script in the parent's checkout and in its own, and
compares the two sets byte for byte:

    diff -rq parent_out change_out

``tools/compare_outputs.py parent_out change_out`` says how far any file
that moved has moved. The whole set takes about half a minute on a 2-core
machine.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# output directory name -> ``dbfnet run`` arguments
RUNS = {
    **{f"formation-n{n}-seed1": ["--scenario", "formation", "--seed", "1", "--set", f"n_agents={n}"] for n in (3, 4, 5)},
    **{
        f"benchmark1-dt0.5-seed{s}": ["--scenario", "benchmark1", "--dt", "0.5", "--set", "duration=10", "--seed", str(s)]
        for s in (1, 3)
    },
    **{
        f"benchmark2-dt0.02-seed{s}": ["--scenario", "benchmark2", "--dt", "0.02", "--set", "duration=6", "--seed", str(s)]
        for s in range(1, 17)
    },
    "benchmark2-dt0.1-seed1": ["--scenario", "benchmark2", "--dt", "0.1", "--seed", "1"],
    "benchmark2-no-sensors-seed1": [
        "--scenario", "benchmark2", "--dt", "0.02", "--set", "duration=6", "--set", "n_toa=0", "--set", "n_doa=0"
    ],
    "multiloop-seed1": ["--scenario", "multiloop", "--seed", "1"],
}
KEEP = ("metrics.csv", "summary.json")


def one_thread_env(checkout: Path) -> dict:
    """This process's environment importing ``dbfnet`` from ``checkout``'s
    ``src``, with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list, scratch: Path, keep: tuple, dest: Path) -> None:
    """Run ``cmd`` writing into ``scratch``, then move the files in ``keep`` to ``dest``."""
    shutil.rmtree(scratch, ignore_errors=True)
    subprocess.run([sys.executable, *cmd, "--outdir", str(scratch)], cwd=ROOT, env=one_thread_env(ROOT),
                   stdout=subprocess.DEVNULL, check=True)
    dest.mkdir(parents=True)
    for name in keep:
        shutil.move(str(scratch / name), str(dest / name))
    shutil.rmtree(scratch)


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage:", __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    scratch = out / ".run"
    for name, args in RUNS.items():
        _run(["-m", "dbfnet.cli", "run", *args], scratch, KEEP, out / name)
        print(f"wrote {out / name}")
    envelope = ["perfbench/workload.py", "--workload", "envelope-objapi", "--seed", "1"]
    _run(envelope, scratch, ("metrics.csv",), out / "envelope-objapi-seed1")
    print(f"wrote {out / 'envelope-objapi-seed1'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
