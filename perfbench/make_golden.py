"""Write golden.json: each workload's CSV digest at the default seed.

    python3 perfbench/make_golden.py

Run it on the commit whose output is the reference. A digest hashes the
CSV without its wall-clock fit_ms column (see run.py).
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main():
    run.check_program()
    digests = {}
    work = run.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for w in run.WORKLOADS.values():
            csv_path = Path(tmp) / f"{w.name}.csv"
            child = run.run_child(run.cli_cmd(w, run.DEFAULT_SEED, csv_path))
            _, failed, problems, dig = run.score_child(w, child, csv_path)
            if failed or problems:
                print(f"make_golden: {w.name}: {failed} failed rows, {problems}",
                      file=sys.stderr)
                return 1
            digests[w.name] = {"trials": w.trials, "sha256": dig}
    golden = {"seed": run.DEFAULT_SEED, "digests": digests}
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
