"""One SHA-256 over the CLI's outputs on a fixed matrix of commands.

Run as `python tests/output_digest.py` (pytest does not collect it). Each
case runs `bennett8.cli.main` in process in an empty working directory and
hashes its exit code, standard output, standard error and the files it
wrote. Two trees give the same digest when their CLIs behave the same, bit
for bit, on:

- `verify` with the default grid and with `--phi-grid 101`, and `sweep` on
  the CI's two grids, for both 8-bar demos and four seeded designs of each
  8-bar kind (tests/conftest.py's generators);
- `pose` to standard output, with `--out` and with `--obj`, at phi1 in
  {0.8, 0, pi, 1e-9, -2.5}, for the four demos and those designs;
- `validate` and `derive` on every spec.

The digest depends on how the host's numpy rounds, so compare two trees on
one host; its value is not pinned anywhere.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from bennett8 import scene  # noqa: E402
from bennett8.cli import main  # noqa: E402
from conftest import random_eightbar_spec, random_spatial_spec  # noqa: E402

SEED = 2024
DESIGNS_PER_KIND = 4
POSE_ANGLES = ("0.8", "0", repr(math.pi), "1e-9", "-2.5")
SWEEP_GRIDS = (
    ("--from=-3.1", "--to=3.1", "--samples=101"),
    (f"--from={-math.pi!r}", f"--to={math.pi!r}", "--samples=41"),
)


def _specs() -> dict[str, str]:
    """Name -> spec file text: the demos, then the seeded 8-bar designs."""
    specs = {}
    for name in sorted(os.listdir(os.path.join(ROOT, "specs"))):
        with open(os.path.join(ROOT, "specs", name), encoding="utf-8") as fh:
            specs[name] = fh.read()
    rng = np.random.default_rng(SEED)
    for kind, draw in (("spherical8", random_eightbar_spec), ("spatial8", random_spatial_spec)):
        for k in range(DESIGNS_PER_KIND):
            specs[f"{kind}_seeded{k}.json"] = json.dumps(scene.dump_spec(draw(rng)))
    return specs


def _cases(specs: dict[str, str]) -> list[tuple[str, list[str]]]:
    cases = []
    for name in specs:
        cases += [(name, ["validate", name]), (name, ["derive", name])]
    for name in specs:
        eightbar = name.startswith(("spherical8", "spatial8"))
        if eightbar:
            cases += [(name, ["verify", name]), (name, ["verify", name, "--phi-grid", "101"])]
            cases += [(name, ["sweep", name, *grid, "--out", "out.csv"]) for grid in SWEEP_GRIDS]
        for phi in POSE_ANGLES:
            for extra in ([], ["--out", "out.json"], ["--obj", "out.obj"]):
                cases.append((name, ["pose", name, f"--phi={phi}", *extra]))
    return cases


def _run(spec_text: str, spec_name: str, argv: list[str], workdir: str) -> bytes:
    """The case's exit code, output, errors and written files, as bytes."""
    with open(os.path.join(workdir, spec_name), "w", encoding="utf-8") as fh:
        fh.write(spec_text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    parts = [json.dumps(argv), str(code), out.getvalue(), err.getvalue()]
    for name in sorted(os.listdir(workdir)):
        if name != spec_name:
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                parts += [name, fh.read()]
        os.remove(os.path.join(workdir, name))
    return "\0".join(parts).encode()


def digest() -> tuple[str, int]:
    """The SHA-256 over every case, and the number of cases."""
    specs = _specs()
    cases = _cases(specs)
    total = hashlib.sha256()
    cwd = os.getcwd()
    workdir = tempfile.mkdtemp(prefix="bennett8-digest-")
    try:
        os.chdir(workdir)
        for name, argv in cases:
            total.update(hashlib.sha256(_run(specs[name], name, argv, workdir)).digest())
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)
    return total.hexdigest(), len(cases)


if __name__ == "__main__":
    value, count = digest()
    print(f"{value} {count} cases")
