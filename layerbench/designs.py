"""Seeded 8-bar designs, written as spec files.

The draws mirror `random_eightbar_spec` and `random_spatial_spec` of the
test suite (tests/conftest.py): the same ranges, the same order of draws
from one numpy Generator, and the same rejection rules. A candidate is
accepted only after the program has loaded and validated its spec file,
so the program sees nothing but files.

One rule is added: a random design must also pass `screen`, which
assembles it at a few driving angles (workloads.closes_at_screen_angles).
A workload runs only designs on which every op succeeds; the few the
program cannot close at regular angles today (ROADMAP item 1, absolute
closure tolerance) are drawn again, and their number is reported with the
results.
"""
from __future__ import annotations

import json
import os

import numpy as np

DEMO_SPECS = ("spherical8_demo.json", "spatial8_demo.json")


def _draw_eightbar(rng: np.random.Generator, accept) -> dict:
    while True:
        u1 = rng.uniform(0.0, 0.4)
        a1 = rng.uniform(0.35, 1.25)
        a2 = rng.uniform(0.35, 1.25)
        if a1 + a2 > np.pi - 0.15:
            continue
        b1 = rng.uniform(0.3, np.pi - 0.3)
        b2 = rng.uniform(0.3, np.pi - 0.3)
        br1 = "plus" if rng.uniform() < 0.5 else "minus"
        br2 = "plus" if rng.uniform() < 0.5 else "minus"
        if br1 == "minus" and abs(np.sin(a1) - np.sin(b1)) < 0.08:
            continue
        if br2 == "minus" and abs(np.sin(a2) - np.sin(b2)) < 0.08:
            continue
        doc = {
            "schema_version": 1,
            "kind": "spherical8",
            "u1": float(u1),
            "u2": float(u1 + a1),
            "u3": float(u1 + a1 + a2),
            "beta1": float(b1),
            "beta2": float(b2),
            "branch1": br1,
            "branch2": br2,
        }
        if accept(doc):
            return doc


def _draw_spatial(rng: np.random.Generator, accept) -> dict:
    doc = dict(_draw_eightbar(rng, accept), kind="spatial8")
    doc["a1"] = float(rng.uniform(0.4, 1.6))
    doc["a2"] = float(rng.uniform(0.4, 1.6))
    return doc


def write_spec(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return path


def generate(seed: int, pairs: int, demo_dir: str, accept, screen) -> tuple[dict, dict]:
    """The demo designs plus `pairs` random spherical and spatial designs
    drawn from `seed`, as ({"spherical": [doc, ...], "spatial": [...]},
    {kind: number of draws the screen rejected}).

    `accept(doc)` is the validity filter of the suite's generator; it gets
    each spherical candidate and says whether to keep it. `screen(doc, d)`
    gets each complete random design and its index d in its kind's list, and
    says whether the workload can use it; a rejected design is drawn again,
    spherical part included.
    """
    rng = np.random.default_rng(seed)
    docs: dict[str, list[dict]] = {"spherical": [], "spatial": []}
    rejected = dict.fromkeys(docs, 0)
    for kind, name in zip(docs, DEMO_SPECS):
        with open(os.path.join(demo_dir, name), encoding="utf-8") as fh:
            docs[kind].append(json.load(fh))
    draw = {"spherical": _draw_eightbar, "spatial": _draw_spatial}
    for _ in range(pairs):
        for kind in docs:
            while True:
                doc = draw[kind](rng, accept)
                if screen(doc, len(docs[kind])):
                    break
                rejected[kind] += 1
            docs[kind].append(doc)
    return docs, rejected


def write_all(docs: dict, workdir: str) -> dict:
    """Write every design as a spec file; {kind: [path, ...]} in draw order
    (the demo design first)."""
    paths = {}
    for kind, kind_docs in docs.items():
        names = [dict(zip(docs, DEMO_SPECS))[kind]] + [f"{kind}_{k}.json" for k in range(len(kind_docs) - 1)]
        paths[kind] = [write_spec(os.path.join(workdir, n), d) for n, d in zip(names, kind_docs)]
    return paths
