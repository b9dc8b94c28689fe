"""Regenerate the stored output references at the reference seed.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Only run this when a change is meant to move results, and say by how much.
"""

import json
import sys
from pathlib import Path

import checks
import run


def main() -> int:
    root = Path.cwd()
    with run.work_dir(root, "reference") as work:
        bench = run.Bench(root / "src", work)
        for name, (prepare, _, _) in run.WORKLOADS.items():
            seed = checks.REFERENCE_SEED
            p = run.run_pass(bench, name, seed, prepare(bench, seed), False)
            if p["error"]:
                print(f"{name}: {p['error']}", file=sys.stderr)
                return 1
            checks.REFERENCE_DIR.mkdir(exist_ok=True)
            doc = {"seed": seed, "outputs": p["outputs"]}
            path = checks.reference_path(name)
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
