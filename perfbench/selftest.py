"""Self-test of the benchmark's output check.

Usage, from the root of a checkout: python3 perfbench/selftest.py

1. Each stored reference matches itself; moving one of its numbers by
   1e-12 (relative) still matches, since the check has a tolerance; moving
   it by 1e-6 does not.
2. In a copy of the checkout whose grid-export reference has one value
   changed, ``run.py`` reports ``"correct": false`` and exits 1.
3. In a copy holding only the benchmark, ``run.py`` exits non-zero without
   printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run


def _first_float(tree, path=()):
    """Key path of the first float in a nested sketch, in sorted key order."""
    if isinstance(tree, dict):
        items = sorted(tree.items())
    elif isinstance(tree, list):
        items = list(enumerate(tree))
    else:
        return path if isinstance(tree, float) else None
    for key, value in items:
        found = _first_float(value, path + (key,))
        if found is not None:
            return found
    return None


def _scaled(tree, path, factor):
    """Deep copy of ``tree`` with the number at ``path`` multiplied."""
    tree = json.loads(json.dumps(tree))
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    return tree


def _run(cwd: Path):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-export",
         "--seed", str(checks.REFERENCE_SEED), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    failures = []
    for name in run.WORKLOADS:
        ref = checks.load_reference(name)
        path = _first_float(ref)
        if checks.compare(ref, ref):
            failures.append(f"{name}: reference does not match itself")
        if checks.compare(ref, _scaled(ref, path, 1 + 1e-12)):
            failures.append(f"{name}: a 1e-12 change at {path} was refused")
        if not checks.compare(ref, _scaled(ref, path, 1 + 1e-6)):
            failures.append(f"{name}: a 1e-6 change at {path} went unnoticed")

    root = Path.cwd()
    with run.work_dir(root, "selftest") as work:
        corrupt = work / "corrupt"
        shutil.copytree(root / "src", corrupt / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(run.HERE, corrupt / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        ref_file = corrupt / "perfbench" / "reference" / "grid-export.json"
        doc = json.loads(ref_file.read_text())
        doc["outputs"] = _scaled(doc["outputs"], _first_float(doc["outputs"]),
                                 1 + 1e-6)
        ref_file.write_text(json.dumps(doc))
        proc = _run(corrupt)
        last = (proc.stdout.strip().splitlines() or ["{}"])[-1]
        if proc.returncode != 1 or json.loads(last).get("correct") is not False:
            failures.append(f"corrupted reference: exit {proc.returncode}, "
                            f"last line {last!r}")

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"no sources: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}")

    for line in failures:
        print(f"FAIL {line}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
