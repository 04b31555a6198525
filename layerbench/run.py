"""Layered benchmark of bennett8: verify, sweep, pose export and the oracle
cross-check.

Run from the root of a source checkout:

    python3 layerbench/run.py --workload verify_random --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters (worker.py), one after another,
as a closed loop: one client, one process, one thread, BLAS pinned to one
thread. The program is imported from ./src; nothing is installed. A first
interpreter draws the run's designs (and oracle poses) from the seed,
untimed; the workloads keep to designs and driving angles on which every op
succeeds at present, and the report says how many draws were screened out.

--trace 0 prints the end-to-end metrics. Five interpreters share the timed
loop; set-up time is their median. All of them run op 0 as a warm-up and
must agree on its output digest.

--trace 1 prints the per-layer metrics: half the time untraced, half with
every public bennett8 function wrapped (tracer.py). Both halves must give
the same output digests, so tracing does not change behaviour.

The printed digest covers the ops of the first cycles, so it depends on the
seed alone and two runs with one seed must print the same digest.

Every time reported (latencies, ops_per_s, setup_s, per-layer self time) is
scaled to nominal host speed by the reference probe of hostspeed.py; the
raw figures are printed beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details, the failures and the
spans go to layerbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import stats  # noqa: E402
from layers import PREDICTIONS  # noqa: E402
from workloads import CYCLE, ITEM, KINDS, WORKLOADS  # noqa: E402

CHILDREN = 5  # fresh interpreters sharing the timed loop of an end-to-end run
DIGEST_CYCLES = 2  # the digest covers the ops of the first cycles, which every run reaches
RUN_BUDGET_S = 170.0  # a run ends (without a result) once this is spent


class BenchError(RuntimeError):
    pass


class Harness:
    def __init__(self, root: str, workload: str, seed: int, workdir: str, out_dir: str):
        self.root, self.workload, self.seed = root, workload, seed
        self.workdir, self.out_dir = workdir, out_dir
        self.manifest = os.path.join(workdir, "manifest.json")
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.children = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def _worker(self, work: str, *extra: str) -> float:
        """Run worker.py in a fresh interpreter; returns its launch time."""
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--src", os.path.join(self.root, "src"), "--demo-dir", os.path.join(self.root, "specs"),
            "--workdir", work, "--manifest", self.manifest, *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        t_launch = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return t_launch

    def prepare(self) -> dict:
        """Draw the run's designs (and oracle poses) once, untimed."""
        self._worker(self.workdir, "--prepare")
        with open(self.manifest, encoding="utf-8") as fh:
            return json.load(fh)

    def child(self, seconds: float, first_cycle=0, stride=1, min_cycles=1, trace=0) -> dict:
        """Run one share of the timed loop and return its result, with
        setup_s measured from launch to the end of its set-up."""
        self.children += 1
        work = os.path.join(self.workdir, f"child{self.children}")
        os.mkdir(work)
        result = os.path.join(work, "result.json")
        extra = [
            "--seconds", repr(seconds), "--first-cycle", str(first_cycle), "--stride", str(stride),
            "--min-cycles", str(min_cycles), "--trace", str(trace), "--result", result,
        ]
        if trace:
            extra += ["--spans", self.spans_path()]
        t_launch = self._worker(work, *extra)
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["setup_s"] = doc["t_ready"] - t_launch
        return doc

    def spans_path(self) -> str:
        return os.path.join(self.out_dir, f"{self.workload}_seed{self.seed}_spans.json")


def loop_summary(docs: list, prefix_ops: int) -> dict:
    """Throughput, latency per kind, failures and digest of the timed loops
    of some children, pooled. Times are scaled to nominal host speed
    (hostspeed.py); the raw ones are kept beside them. The digest covers
    ops 0 .. prefix_ops - 1."""
    ops = sorted(op for doc in docs for op in doc["ops"])
    failures = [f for doc in docs for f in doc["failures"]]
    # op: [index, kind, seconds, items, failed items, digest, wall seconds, reference seconds]
    ok = [op for op in ops if op[4] == 0]
    by_kind = {
        kind: stats.latency_summary([op[2] * hostspeed.scale(op[7]) for op in ok if op[1] == kind])
        for kind in KINDS
    }
    raw_by_kind = {kind: stats.latency_summary([op[2] for op in ok if op[1] == kind]) for kind in KINDS}
    busy = sum(op[6] for op in ops)
    prefix = {op[0]: op[5] for op in ops if op[0] < prefix_ops}
    return {
        "ops": len(ops),
        "ops_per_kind": dict(Counter(op[1] for op in ops)),
        "ok_ops": len(ok),
        "ops_per_s": len(ok) / sum(op[6] * hostspeed.scale(op[7]) for op in ops),
        "raw_ops_per_s": len(ok) / busy,
        "elapsed_s": sum(doc["elapsed"] for doc in docs),
        "host_scale": stats.percentile([hostspeed.scale(op[7]) for op in ops], 0.5),
        "latency": by_kind,
        "raw_latency": raw_by_kind,
        "items": sum(op[3] for op in ops),
        "failed_items": sum(op[4] for op in ops),
        "fail_classes": dict(Counter(f["class"] for f in failures)),
        # typed: from bennett8.errors; untyped: any other exception; None: a failed check
        "fail_kinds": {
            kind: sum(1 for f in failures if f["typed"] is typed)
            for kind, typed in (("typed", True), ("untyped", False), ("check", None))
        },
        "op_digests": {op[0]: op[5] for op in ops},
        "op_seconds": [[op[1], op[2], op[4], op[7]] for op in ops],
        "digest": _digest(prefix) if len(prefix) == prefix_ops else None,
    }


def _digest(op_digests: dict) -> str:
    return hashlib.sha256("".join(op_digests[i] for i in sorted(op_digests)).encode()).hexdigest()


def end_to_end(h: Harness, seconds: float) -> tuple[dict, dict]:
    """The timed loop is shared by CHILDREN fresh interpreters, each taking
    every CHILDREN-th cycle, so no one process's luck sets the figures."""
    docs = []
    for c in range(CHILDREN):
        left = seconds - sum(d["elapsed"] for d in docs)
        docs.append(h.child(max(0.0, left) / (CHILDREN - c), first_cycle=c, stride=CHILDREN))
    loop = loop_summary(docs, DIGEST_CYCLES * CYCLE[h.workload])
    setup_times = [d["setup_s"] * hostspeed.scale(d["setup_ref_s"]) for d in docs]
    metrics = {
        "setup_s": (stats.percentile(setup_times, 0.5), "s"),
        "ops_per_s": (loop["ops_per_s"], "1/s"),
    }
    for kind in KINDS:
        lat = loop["latency"][kind]
        # a kind with no successful op has no latency; the whole loop bounds it
        metrics[f"op_{kind}_p50_s"] = (lat.get("p50", loop["elapsed_s"]), "s")
        metrics[f"op_{kind}_tail_s"] = (lat.get("tail", loop["elapsed_s"]), "s")
    metrics["ok_ratio"] = (1.0 - stats.ratio(loop["failed_items"], loop["items"]), "ratio")
    metrics["peak_rss_mb"] = (max(d["maxrss_kb"] for d in docs) / 1024.0, "MB")
    checks = {
        "fresh_interpreters_same_digest": len({d["warmup_digest"] for d in docs}) == 1,
        "digest_prefix_complete": loop["digest"] is not None,
    }
    details = {"meta": docs[0]["meta"], "loop": loop, "setup_times_s": setup_times,
               "raw_setup_times_s": [d["setup_s"] for d in docs],
               "checks": checks, "failures": [f for d in docs for f in d["failures"]]}
    return metrics, details


def per_layer(h: Harness, seconds: float) -> tuple[dict, dict]:
    from tracer import layer_metrics

    prefix = DIGEST_CYCLES * CYCLE[h.workload]
    plain = h.child(seconds / 2, min_cycles=DIGEST_CYCLES)
    traced = h.child(seconds / 2, min_cycles=DIGEST_CYCLES, trace=1)
    plain_loop, traced_loop = loop_summary([plain], prefix), loop_summary([traced], prefix)
    with open(h.spans_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = layer_metrics(
        doc, len(traced["ops"]), set(traced["typed_errors"]), traced_loop["host_scale"]
    )
    metrics["tracing.overhead_ratio"] = (traced_loop["ops_per_s"] / plain_loop["ops_per_s"], "ratio")
    common = sorted(set(plain_loop["op_digests"]) & set(traced_loop["op_digests"]))
    checks = {
        "traced_same_digest": all(
            plain_loop["op_digests"][i] == traced_loop["op_digests"][i] for i in common
        ),
        "fresh_interpreters_same_digest": plain["warmup_digest"] == traced["warmup_digest"],
        "digest_prefix_complete": traced_loop["digest"] is not None,
    }
    details = {"meta": traced["meta"], "loop": traced_loop, "compared_ops": len(common),
               "unmapped": doc["unmapped"],
               "untraced_ops_per_s": plain_loop["ops_per_s"], "checks": checks,
               "failures": traced["failures"], "spans": h.spans_path()}
    return metrics, details


def print_report(args, metrics: dict, details: dict) -> None:
    meta, loop = details["meta"], details["loop"]
    item = ITEM.get(args.workload, "op")
    print(f"layerbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  python {python}  numpy {numpy}  kernel_backend {kernel_backend}  nproc {nproc}".format(**meta))
    print(f"  ops {loop['ops']} ({', '.join(f'{k} {n}' for k, n in loop['ops_per_kind'].items())}), "
          f"closed loop, 1 client, {loop['elapsed_s']:.2f} s")
    print(f"  times scaled to nominal host speed by x{loop['host_scale']:.4g} (median); raw: "
          f"{loop['raw_ops_per_s']:.6g} ops/s, p50 " + ", ".join(
              f"{kind} {loop['raw_latency'][kind].get('p50', float('nan')):.6g} s" for kind in KINDS))
    for kind in KINDS:
        lat = loop["latency"][kind]
        if lat["n"]:
            note = "" if lat["beyond"] >= stats.MIN_BEYOND else ", too few samples for a higher percentile"
            print(f"  {kind}: n={lat['n']} successful; tail = p{100 * lat['tail_q']:g} "
                  f"with {lat['beyond']} samples beyond{note}")
    fail_ratio = stats.ratio(loop["failed_items"], loop["items"])
    print(f"  fail_ratio {fail_ratio:.6g} = {loop['failed_items']} / {loop['items']} {item}s")
    print("    failures: " + ", ".join(f"{k} {n}" for k, n in loop["fail_kinds"].items()))
    for cls, n in sorted(loop["fail_classes"].items(), key=lambda kv: -kv[1]):
        print(f"    {cls}: {n}")
    print("  random designs drawn again because the screen rejected them (no assembly at a screen "
          "angle; oracle_crosscheck: too few well-conditioned poses): "
          + ", ".join(f"{kind} {n}" for kind, n in details["screen_rejected"].items()))
    for name, value in details["checks"].items():
        print(f"  check {name}: {value}")
    print(f"  digest {loop['digest']} (ops of the first {DIGEST_CYCLES} cycles)")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    if details.get("unmapped"):
        print("  not traced (no layer; time counts to the caller): " + ", ".join(details["unmapped"]))
    if args.trace:
        print("  predictions: layer metric -> end-to-end metric -> workload")
        for layer, metric, where in PREDICTIONS:
            print(f"    {layer} -> {metric} -> {where}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for need in ("src/bennett8/__init__.py", "specs/spherical8_demo.json", "specs/spatial8_demo.json"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"layerbench: run from a bennett8 checkout; {need} is missing", file=sys.stderr)
            return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        h = Harness(root, args.workload, args.seed, workdir, out_dir)
        screen_rejected = h.prepare()["screen_rejected"]
        if args.trace:
            metrics, details = per_layer(h, args.seconds)
        else:
            metrics, details = end_to_end(h, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = details["loop"]
    correct = all(details["checks"].values())
    details.update(
        screen_rejected=screen_rejected,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        predictions=PREDICTIONS,
    )
    details["loop"] = {k: v for k, v in loop.items() if k not in ("op_digests", "op_seconds")}
    details["op_seconds"] = loop["op_seconds"]
    with open(os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print_report(args, metrics, details)
    print(json.dumps({
        "correct": correct,
        "attempted": loop["items"],
        "failed": loop["failed_items"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
