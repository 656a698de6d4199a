#!/usr/bin/env python3
"""Print a digest manifest of the outputs a refactor must keep byte-identical.

    python scripts/output_digests.py [TREE]

TREE is a checkout of this repository, by default the one holding this
script. Each command runs as a new `python -W error -m fockwitness`
process, with TREE/src first on PYTHONPATH, writing into a temporary
directory:

* `figure ID` for fig1 .. fig12 at default resolution (the 42 default CSVs);
* `figure ID --steps 9 --grid-steps 5 --engine both` for the same 12 packs;
* `verify`.

It prints one `sha256  exit-code  name` line per output file and per
stdout, the temporary directory replaced by `OUT` in each stdout before it
is hashed. A diff of two trees' manifests shows every output that changed:

    python scripts/output_digests.py ../parent > parent.txt
    python scripts/output_digests.py > change.txt
    diff parent.txt change.txt

Digests can differ across numpy builds, so a manifest is compared with one
made on the same machine. The script exits 0 whatever the commands do.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

FIGURES = [f"fig{i}" for i in range(1, 13)]
# (name, arguments of the fockwitness CLI, whether it writes a pack to --out)
RUNS = ([(f"default/{figure}", ["figure", figure], True) for figure in FIGURES]
        + [(f"both/{figure}", ["figure", figure, "--steps", "9", "--grid-steps", "5", "--engine", "both"], True)
           for figure in FIGURES]
        + [("verify", ["verify"], False)])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(tree: str) -> list[str]:
    """The manifest lines of every run of RUNS on tree, in run order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(tree, "src"), env.get("PYTHONPATH")]))
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, args, writes in RUNS:
            out = os.path.join(scratch, name.replace("/", "_"))
            command = [sys.executable, "-W", "error", "-m", "fockwitness", *args]
            if writes:
                command += ["--out", out]
            done = subprocess.run(command, capture_output=True, env=env, cwd=scratch)
            stdout = done.stdout.replace(os.fsencode(out), b"OUT")
            lines.append(f"{_sha256(stdout)}  {done.returncode}  {name} stdout")
            for file in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                with open(os.path.join(out, file), "rb") as fh:
                    lines.append(f"{_sha256(fh.read())}  {done.returncode}  {name}/{file}")
    return lines


def main(argv: list[str]) -> int:
    tree = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    print("\n".join(manifest(tree)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
