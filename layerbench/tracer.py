"""Layer tracing from outside the program.

`install` replaces every public function of every bennett8 module, at its
module attribute and at every by-name import of it in another bennett8
module, with a wrapper that records where time goes:

- a call that crosses from one layer into another opens a span (id, parent
  id, op id, layer, function, start, end, exception class);
- a call within the caller's own layer passes straight through;
- the primitive layers (layers.PRIMITIVE_*) keep a call count, summed time
  and self time per (parent span, layer, function) instead of spans.

Spans stay in memory; `dump` returns them for writing out at the end.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time

from layers import LAYERS, is_primitive, layer_of
from stats import self_times


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.prims: dict[tuple, list] = {}
        # frames: [layer, span id, time spent in traced callees]
        self.stack: list[list] = [["harness", None, 0.0]]
        self.op = None
        self._op_start = None
        self.next_id = 0
        self.counters = {
            "assemble_calls": 0,
            "assemble_repeats": 0,
            "solves": 0,
            "solve_iterations": 0,
            "solves_converged": 0,
            "mobility_samples": 0,
            "mobility_nullity_one": 0,
        }
        self._assembled: set = set()
        self.unmapped: list = []

    def begin_op(self, op_id) -> None:
        """Open the root span of one benchmark op."""
        self.op = op_id
        self._assembled = set()
        sid = self._new_id()
        self.stack.append(["op", sid, 0.0])
        self._op_start = (sid, self.clock())

    def end_op(self) -> None:
        sid, t0 = self._op_start
        self.stack.pop()
        self.spans.append((sid, None, self.op, "op", "op", t0, self.clock(), None))
        self.op = None

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def wrap(self, fn, layer: str):
        if is_primitive(layer, fn.__name__):
            return self._wrap_primitive(fn, layer)
        return self._wrap_span(fn, layer)

    def _wrap_span(self, fn, layer):
        tracer, stack, clock, name = self, self.stack, self.clock, fn.__name__
        spans = self.spans
        pre, post = _PRE_HOOKS.get(name), _POST_HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args, kwargs)
            sid = tracer._new_id()
            stack.append([layer, sid, 0.0])
            err = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent[2] += t1 - t0
                spans.append((sid, parent[1], tracer.op, layer, name, t0, t1, err))
            if post is not None:
                post(tracer, result)
            return result

        return _like(traced, fn)

    def _wrap_primitive(self, fn, layer):
        tracer, stack, clock, name = self, self.stack, self.clock, fn.__name__
        prims = self.prims

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, parent[1], 0.0]
            stack.append(frame)
            failed = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[2] += dt
                key = (parent[1], layer, name)
                agg = prims.get(key)
                if agg is None:
                    agg = prims[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[2]
                agg[3] += failed

        return _like(traced, fn)

    def dump(self) -> dict:
        """Everything recorded, in a JSON-serialisable form."""
        return {
            "spans": [list(s) for s in self.spans],
            "prims": [[sid, layer, name, *agg] for (sid, layer, name), agg in self.prims.items()],
            "counters": dict(self.counters),
            "unmapped": list(self.unmapped),
        }


def _like(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _assemble_hook(tracer, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    phi1 = args[1] if len(args) > 1 else kwargs["phi1"]
    key = (spec, float(phi1))
    tracer.counters["assemble_calls"] += 1
    if key in tracer._assembled:
        tracer.counters["assemble_repeats"] += 1
    tracer._assembled.add(key)


def _solve_hook(tracer, result):
    tracer.counters["solves"] += 1
    tracer.counters["solve_iterations"] += result.iterations
    tracer.counters["solves_converged"] += int(result.converged)


def _mobility_hook(tracer, result):
    tracer.counters["mobility_samples"] += len(result)
    tracer.counters["mobility_nullity_one"] += sum(
        1 for m in result if m.status == "ok" and m.nullity == 1
    )


# Counted before the call, so failed assemblies count as calls too.
_PRE_HOOKS = {"assemble_spherical": _assemble_hook, "assemble_spatial": _assemble_hook}
_POST_HOOKS = {"solve_loop": _solve_hook, "mobility_check": _mobility_hook}


def bennett8_modules() -> list:
    """The package and every submodule except the `python -m` entry point."""
    import bennett8

    mods = [bennett8]
    for info in pkgutil.iter_modules(bennett8.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"bennett8.{info.name}"))
    return mods


def public_functions(modules) -> tuple[dict, list]:
    """({id(original): (function, layer)}, [unmapped names]) over the public
    functions defined in the given bennett8 modules."""
    found, unmapped = {}, []
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not _is_function(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            layer = layer_of(mod.__name__, name)
            if layer is None:
                unmapped.append(f"{mod.__name__}.{name}")
            else:
                found[id(obj)] = (obj, layer)
    return found, unmapped


def _is_function(obj) -> bool:
    # compiled kernels are callables that are neither Python functions nor classes
    return callable(obj) and not inspect.isclass(obj) and hasattr(obj, "__name__")


def install(tracer: Tracer):
    """Wrap every public bennett8 function at every module-level binding.

    Returns a callable that restores the originals.
    """
    modules = bennett8_modules()
    originals, tracer.unmapped = public_functions(modules)
    wrappers = {key: tracer.wrap(fn, layer) for key, (fn, layer) in originals.items()}
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and obj is originals[id(obj)][0]:
                setattr(mod, name, wrappers[id(obj)])
                patched.append((mod, name, obj))

    def restore():
        for mod, name, obj in patched:
            setattr(mod, name, obj)

    return restore


def layer_metrics(doc: dict, ops: int, typed_errors, host_scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}. Self
    times are multiplied by `host_scale` (hostspeed.py)."""
    spans = doc["spans"]
    prim_self: dict = {}
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    for sid, layer, _name, n, _total, own, failed in doc["prims"]:
        prim_self[sid] = prim_self.get(sid, 0.0) + own
        calls[layer] += n
        self_s[layer] += own
        errors[layer] += failed
    own_time = self_times([(s[0], s[1], s[5], s[6]) for s in spans], prim_self)
    untyped = 0
    for sid, _parent, _op, layer, _name, _t0, _t1, err in spans:
        if layer not in calls:
            continue
        calls[layer] += 1
        self_s[layer] += own_time[sid]
        if err is not None:
            errors[layer] += 1
            if layer == "linkage.assemble" and err not in typed_errors:
                untyped += 1
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = (calls[layer] / ops, "calls/op")
        out[f"{layer}.self_ms_per_op"] = (1e3 * host_scale * self_s[layer] / ops, "ms/op")
        out[f"{layer}.errors_per_op"] = (errors[layer] / ops, "errors/op")
    c = doc["counters"]
    out["linkage.assemble.repeat_ratio"] = (_share(c["assemble_repeats"], c["assemble_calls"]), "ratio")
    out["linkage.assemble.untyped_errors"] = (untyped / ops, "errors/op")
    out["oracle.iterations_per_solve"] = (_share(c["solve_iterations"], c["solves"]), "iter/solve")
    out["oracle.converged_ratio"] = (_share(c["solves_converged"], c["solves"]), "ratio")
    out["linkage.mobility.nullity_one_ratio"] = (
        _share(c["mobility_nullity_one"], c["mobility_samples"]),
        "ratio",
    )
    return out


def _share(num, base):
    """num / base, or 0 where the layer made no such call at all."""
    return num / base if base else 0.0
