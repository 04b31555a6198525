"""One share of a workload in a fresh interpreter, started by run.py.

With `--prepare`, it only draws the run's inputs from the seed and writes
them to `--manifest`: the designs (designs.py; each random one screened by
workloads.closes_at_screen_angles) and, for oracle_crosscheck, the driving
angles of each design (workloads.oracle_poses, which also screens). This
runs once per run, untimed.

Otherwise, set-up (import bennett8, then write, load and validate the
manifest's spec files) ends at the moment written as `t_ready`. Then op 0
runs once as an untimed warm-up; its output digest lets run.py check that
fresh interpreters agree. The host speed probe (hostspeed.py) runs after
set-up and before every op. Then comes a closed loop (one client, one
thread) over the cycles `--first-cycle`, `--first-cycle + --stride`, ...:
at least `--min-cycles` of them, and more until `--seconds` are spent.
With `--trace 1` the layer wrappers are installed after the warm-up and
the spans are written to `--spans`.

Everything else goes to the JSON file named by `--result`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import designs  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

RANDOM_PAIRS = 12
MAX_COEFFICIENT = 25.0  # the suite's conditioning filter on c21, c32, c31


def _import_program(src: str):
    import bennett8

    expected = os.path.realpath(os.path.join(src, "bennett8"))
    if os.path.dirname(os.path.realpath(bennett8.__file__)) != expected:
        raise SystemExit(f"bennett8 imported from {bennett8.__file__}, expected {expected}")


def loader(workdir: str):
    """load(doc): the program's validated spec of a design, read from a
    spec file as a user would give it."""
    from bennett8 import linkage, scene

    candidate = os.path.join(workdir, "candidate.json")

    def load(doc):
        return linkage.validate_spec(scene.load_spec(designs.write_spec(candidate, doc)))

    return load


def accepter(load):
    """The suite generator's filter: the spec validates, and its transmission
    coefficients stay within MAX_COEFFICIENT."""

    def accept(doc) -> bool:
        try:
            v = load(doc)
        except Exception:  # the suite's generator rejects any failing draw
            return False
        return max(abs(v.c21), abs(v.c32), abs(v.c31)) <= MAX_COEFFICIENT

    return accept


def prepare(args) -> None:
    _import_program(args.src)
    load = loader(args.workdir)
    oracle = args.workload == "oracle_crosscheck"
    oracle_phis: dict = {"spherical": {}, "spatial": {}}

    def screen(doc, d) -> bool:
        kind = "spatial" if doc["kind"] == "spatial8" else "spherical"
        try:
            v = load(doc)
        except Exception:
            return False
        if not workloads.closes_at_screen_angles(v, kind):
            return False
        if oracle:
            oracle_phis[kind][d] = workloads.oracle_poses(args.seed, kind, d, v)
            return oracle_phis[kind][d] is not None
        return True

    docs, rejected = designs.generate(args.seed, RANDOM_PAIRS, args.demo_dir, accepter(load), screen)
    manifest = {"designs": docs, "screen_rejected": rejected, "oracle_phis": None}
    if oracle:
        for kind in docs:  # the demo designs are not screened
            oracle_phis[kind][0] = workloads.oracle_poses(args.seed, kind, 0, load(docs[kind][0]))
            if oracle_phis[kind][0] is None:
                raise SystemExit(f"{kind} demo design: no well-conditioned oracle pose")
        manifest["oracle_phis"] = {
            kind: [oracle_phis[kind][d] for d in range(len(kind_docs))] for kind, kind_docs in docs.items()
        }
    with open(args.manifest, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def setup(args):
    _import_program(args.src)
    from bennett8 import linkage, scene

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    paths = designs.write_all(manifest["designs"], args.workdir)
    validated = {
        path: linkage.validate_spec(scene.load_spec(path)) for kind in paths for path in paths[kind]
    }
    return paths, validated, manifest["oracle_phis"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--first-cycle", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--min-cycles", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--demo-dir", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--prepare", action="store_true")
    p.add_argument("--result")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    if args.prepare:
        prepare(args)
        return 0

    paths, validated, oracle_phis = setup(args)
    t_ready = time.monotonic()

    import bennett8
    import numpy

    runner = workloads.Runner(args.workload, args.workdir, validated)
    clock = time.perf_counter
    setup_refs = sorted(hostspeed.probe(clock) for _ in range(5))
    warmup = runner.run(workloads.op_inputs(args.workload, args.seed, 0, paths, oracle_phis), clock)
    out = {
        "t_ready": t_ready,
        "setup_ref_s": setup_refs[2],
        "meta": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": bennett8.KERNEL_BACKEND,
            "nproc": os.cpu_count(),
        },
        "typed_errors": [t.__name__ for t in runner.typed],
        "warmup_digest": warmup.digest,
    }
    out.update(timed_loop(args, runner, paths, oracle_phis, clock))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def timed_loop(args, runner, paths, oracle_phis, clock) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    cycle = workloads.CYCLE[args.workload]
    ops, failures, refs = [], [], []
    t0 = clock()
    deadline = t0 + args.seconds
    k = args.first_cycle
    done = 0
    while True:
        t_cycle = clock()
        for i in range(k * cycle, (k + 1) * cycle):
            inputs = workloads.op_inputs(args.workload, args.seed, i, paths, oracle_phis)
            refs.append(hostspeed.probe(clock))
            if tracer is not None:
                first_span = len(tracer.spans)
                tracer.begin_op(i)
            t_op = clock()
            res = runner.run(inputs, clock)
            wall = clock() - t_op
            if tracer is not None:
                tracer.end_op()
                _locate_exit_failures(res.failures, tracer.spans[first_span:])
            ops.append([i, res.kind, res.seconds, res.items, res.failed_items, res.digest, wall])
            failures += [dict(f, op=i, kind=res.kind) for f in res.failures]
        done += 1
        k += args.stride
        now = clock()
        # stop where the next cycle would end nearer the deadline than this one
        if done >= args.min_cycles and now + (now - t_cycle) / 2 >= deadline:
            break
    refs.append(hostspeed.probe(clock))
    for n, op in enumerate(ops):
        op.append((refs[n] + refs[n + 1]) / 2)  # reference time around the op
    out = {"elapsed": clock() - t0, "ops": ops, "failures": failures}
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return out


def _locate_exit_failures(failures, spans) -> None:
    """Give a failure the cli turned into an exit code the layer of the
    innermost span that raised its exception class."""
    for f in failures:
        if f["stage"] == "exit":
            for span in spans:  # spans close innermost first
                if span[7] == f["class"]:
                    f["layer"] = span[3]
                    break


if __name__ == "__main__":
    sys.exit(main())
