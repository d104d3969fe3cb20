"""Write reference_levels.json: the levels the spectrum workloads must give.

    PYTHONPATH=src python3 bench/make_reference.py

Runs the spectrum-su2-8 and converge-so4-5 configs once through the CLI
and stores lambda_n at full double precision.  The levels do not depend
on the workload seed.  The stored file comes from the ymspec code at the commit
that added the benchmark; regenerate it only for a change that is meant
to move the levels, and say so where the change is described.
"""

import json
import os
import sys
import tempfile

from ymspec import cli

import workloads


def main() -> int:
    levels = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("spectrum-su2-8", "converge-so4-5"):
            workload = workloads.WORKLOADS[name]
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(workload.config(0), fh)
            outdir = os.path.join(tmp, name)
            code = cli.main([workload.command, "--config", path, "--out", outdir])
            if code != 0:
                return code
            if name == "spectrum-su2-8":
                rows = workloads._read_csv(os.path.join(outdir, "spectrum.csv"))
                levels[name] = {"lambda": [float(r["lambda"]) for r in rows]}
            else:
                rows = workloads._read_csv(os.path.join(outdir, "convergence.csv"))
                levels[name] = {"lambda": {
                    str(N): [float(r[f"lambda_Nmax{N}"]) for r in rows]
                    for N in workload.config(0)["model"]["N_max_list"]
                }}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(levels, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
