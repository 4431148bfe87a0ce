"""LAPACK and layer call counts of one opeq command, traced as the benchmark traces.

Usage, from the root of the repository::

    python3 benchmarks/counts.py check --a {A} --c {C}
    python3 benchmarks/counts.py solve --a {A} --c {C} --mode positive
    python3 benchmarks/counts.py perturb --n 1000 --eps 0.1
    python3 benchmarks/counts.py verify --trials 10 --max-dim 6 --seed 1000

``{A}`` and ``{C}`` stand for the dense workload's n = 200 pair made from
seed 1.  The command's JSON goes to a temporary file; the counts are printed
as one JSON object.  Counts do not depend on the machine and repeat exactly.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import opeq.cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Dense, work_dir, write_matrix  # noqa: E402


def main(argv):
    with work_dir(ROOT, "counts") as work:
        a, c = Dense.pair(1, Dense.N)
        write_matrix(a, work / "a.json")
        write_matrix(c, work / "c.json")
        argv = [arg.replace("{A}", str(work / "a.json")).replace("{C}", str(work / "c.json")) for arg in argv]
        tracer = Tracer()
        code, _ = tracer.run_op(lambda: opeq.cli.main([*argv, "--out", str(work / "out.json")]))
    counts = {key: tracer.calls[key] for key in sorted(tracer.calls)}
    print(json.dumps({"exit_code": code, "calls": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
