"""Write ``reference.json``: the key outputs of each workload at this commit.

    python3 benchmarks/capture_reference.py

Run it only on a commit whose outputs are known good; every later benchmark
run is checked against what it writes (tolerances in ``checks.py``).
"""

import json
import shutil
import subprocess
import sys

import checks
from run import WORK, WORKLOADS, child_env, prepare


def main():
    prepare()
    reference = {}
    for workload, argv in WORKLOADS.items():
        out = WORK / f"capture-{workload}"
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, "-m", "pemplate.cli", *argv,
                        "--out", str(out)], env=child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        reference[workload] = checks.read_outputs(out)
        shutil.rmtree(out)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
