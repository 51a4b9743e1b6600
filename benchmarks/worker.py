"""One measured ghostsim run in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Modes:

* ``setup`` -- time ``import ghostsim``, ``load_config`` and ``build_scene``.
* ``run``   -- the same set-up, then ``run_experiment`` into ``--out``.
* ``trace`` -- wrap the public functions of every ``ghostsim.*`` module, then
  set up and run as above; reports per-function span statistics.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import sys
import threading
import time


class _Stat:
    __slots__ = ("calls", "total", "self", "outer", "by_caller", "durations", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.outer = 0.0  # time of calls made from another module
        self.by_caller = {}  # traced caller name -> time of calls it made
        self.durations = []
        self.counts = {}


class Tracer:
    """Span statistics per wrapped function, kept in memory per thread.

    A span's self time is its duration minus the spans it directly caused;
    ``outer`` sums only spans whose caller lives in another module, so the
    outer times of a module add up to the time spent inside that layer;
    ``by_caller`` splits a function's time by the traced function calling it.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.wrapped = []

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(local.table)
        return local.table, local.stack

    def wrap(self, name: str, module: str, fn, measure=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            table, stack = self._state()
            caller = stack[-1] if stack else (None, 0.0, None)
            frame = [module, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = table.get(name)
                if stat is None:
                    stat = table[name] = _Stat()
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[1]
                if caller[0] != module:
                    stat.outer += elapsed
                stat.by_caller[caller[2]] = stat.by_caller.get(caller[2], 0.0) + elapsed
                stat.durations.append(elapsed)
            if measure is not None:
                try:
                    counts = measure(args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    counts = {}  # a changed signature loses the count, not the run
                for key, value in counts.items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        self.wrapped.append(name)
        return traced

    def report(self) -> dict:
        merged: dict[str, _Stat] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stat in table.items():
                into = merged.setdefault(name, _Stat())
                into.calls += stat.calls
                into.total += stat.total
                into.self += stat.self
                into.outer += stat.outer
                for key, value in stat.by_caller.items():
                    into.by_caller[key] = into.by_caller.get(key, 0.0) + value
                into.durations.extend(stat.durations)
                for key, value in stat.counts.items():
                    into.counts[key] = into.counts.get(key, 0) + value
        out = {}
        for name in self.wrapped:
            stat = merged.get(name, _Stat())
            out[name] = {
                "calls": stat.calls,
                "total_s": stat.total,
                "self_s": stat.self,
                "outer_s": stat.outer,
                "by_caller_s": stat.by_caller,
                "median_s": statistics.median(stat.durations) if stat.durations else 0.0,
                "max_s": max(stat.durations, default=0.0),
                "counts": stat.counts,
            }
        return out


def _stack_bytes(args, kwargs, result):
    return {"bytes": int(getattr(getattr(result, "stack", None), "nbytes", 0))}


def _part_count(args, kwargs, result):
    return {"parts": sum(int(getattr(sub, "part_count", 0)) for sub in result)}


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    return {"bytes": len(text.encode("utf-8"))}


# Extra counts read off a call's arguments or result, keyed "module.function".
_MEASURES = {
    "bases.modify_basis": _stack_bytes,
    "bases.decompose_basis": _part_count,
    "pgmio.atomic_write_text": _text_bytes,
}


def install_tracer() -> Tracer:
    """Wrap every public function of every loaded ``ghostsim.*`` module.

    Each wrapper replaces the function in every ``ghostsim`` module that
    bound it, so calls through ``from ... import`` names are traced too.
    Modules are looked up in ``sys.modules`` because some package attributes
    (``ghostsim.reconstruct``) name a function, not the module.
    """
    tracer = Tracer()
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == "ghostsim" or name.startswith("ghostsim.")}
    replacements = {}
    for modname, mod in sorted(modules.items()):
        if modname == "ghostsim":
            continue
        layer = modname.split(".", 1)[1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == modname:
                name = f"{layer}.{attr}"
                replacements[fn] = tracer.wrap(name, layer, fn, _MEASURES.get(name))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
    return tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--overrides", required=True,
                        help="JSON object of config key -> value string")
    parser.add_argument("--out", default=None, help="empty output directory")
    args = parser.parse_args(argv)
    overrides = json.loads(args.overrides)

    start = time.perf_counter()
    import ghostsim  # noqa: F401  (timed: part of set-up)
    from ghostsim import cli, config

    tracer = install_tracer() if args.mode == "trace" else None
    cfg = config.load_config(None, environ={}, overrides=overrides)
    cli.build_scene(cfg)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}

    if args.mode != "setup":
        start = time.perf_counter()
        cli.run_experiment(cfg, args.out)
        result["run_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
