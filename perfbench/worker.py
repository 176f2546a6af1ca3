"""One unit of a benchmark workload, run as a fresh Python process.

    python3 perfbench/worker.py {identities,oracle,table} --trace {0,1} < spec.json

``spec.json`` holds the unit's inputs (``ops`` for the library workloads,
``argv`` for ``table``).  The last line of stdout is one JSON object with
the per-operation results, their latencies and, under ``--trace 1``, the
per-layer statistics of the outside-in tracer below.  ``table`` runs only
traced: untraced, the benchmark spawns the real CLI instead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import sys
import time

# Modules whose public functions the tracer wraps; the package itself and
# cli are only rebinding sites, apart from cli.main.
TRACED_MODULES = (
    "rootsystems",
    "ratpoly",
    "quasipoly",
    "ehrhart",
    "eulerian",
    "arrangements",
    "rootline",
)


class Tracer:
    """Self time and call count per wrapped function, plus result counters.

    A wrapper pushes a child-time accumulator on entry; on exit its self
    time is its duration minus the time its traced callees took.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []

    def wrap(self, key, fn, count=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[key] = 0
        self_s[key] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                inner = stack.pop()
                calls[key] += 1
                self_s[key] += total - inner
                if stack:
                    stack[-1] += total
            if count is not None:
                count(args, result)
            return result

        return traced

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def install(self):
        """Wrap every public function of the traced modules and rebind it in
        every linial module that imported it by name."""
        pkg = importlib.import_module("linial")
        # import_module, not attribute access: ``linial.eulerian`` is the
        # re-exported function, not the module.
        mods = {m: importlib.import_module(f"linial.{m}") for m in TRACED_MODULES}
        cli = importlib.import_module("linial.cli")
        sites = [pkg, cli, *mods.values()]
        # the unwrapped function: the wrapper does not carry cache_info
        self._char_quasi = getattr(mods["arrangements"], "char_quasi", None)
        self._cache_start = _cache_hits(self._char_quasi)
        replace = {}
        for short, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not _is_function(fn, mod.__name__):
                    continue
                replace[id(fn)] = self.wrap(f"{short}.{name}", fn, self._counter(short, name))
        replace[id(cli.main)] = self.wrap("cli.main", cli.main)
        for site in sites:
            for name, value in list(vars(site).items()):
                if id(value) in replace:
                    setattr(site, name, replace[id(value)])

    def _counter(self, module, name):
        key = f"{module}.{name}"
        if key in ("quasipoly.apply_S", "quasipoly.apply_Sbar", "quasipoly.tilde"):
            return lambda args, f: self.add("quasipoly.slots_built", f.period)
        if key == "arrangements.char_quasi":
            seen = {}

            def built(args, f):
                # an lru_cache hit returns the object already counted
                if id(f) not in seen:
                    seen[id(f)] = f
                    self.add("arrangements.char_quasi_slots", f.period)

            return built
        if key == "arrangements.oracle_count":
            return lambda args, r: self.add("arrangements.oracle_points", args[3] ** args[0].rank)
        return None

    def report(self) -> dict:
        out = {}
        for key, n in self.calls.items():
            module = key.split(".")[0]
            out[f"{key}_calls"] = n
            out[f"{key}_ms"] = self.self_s[key] * 1e3
            out[f"{module}.self_ms"] = out.get(f"{module}.self_ms", 0.0) + self.self_s[key] * 1e3
        out.update(self.counters)
        out["arrangements.char_quasi_cache_hits"] = (
            _cache_hits(self._char_quasi) - self._cache_start
        )
        return out


def _is_function(obj, module_name) -> bool:
    """A plain or lru_cache'd function defined in that module."""
    return getattr(obj, "__module__", None) == module_name and (
        hasattr(obj, "__code__") or hasattr(obj, "cache_info")
    )


def _cache_hits(fn) -> int:
    info = getattr(fn, "cache_info", None)
    return info().hits if info is not None else 0


def _identity_op(label, n):
    """The main-theorem suite at one (type, n): every check must be True."""
    import linial

    info = linial.catalog(label)
    checks = [
        linial.verify_main_theorem(info, n),
        linial.verify_corollary1(info, n),
        linial.verify_rad_theorem(info, n),
    ]
    if math.gcd(n + 1, info.period_rho) == 1:
        checks.append(linial.gcd_prime_polynomial(info, n) == linial.char_poly(info, n))
    return checks


def _oracle_op(label, n, q):
    import linial

    return linial.oracle_count(linial.catalog(label), 1, n, q)


def _timed(op, ops):
    """Run and time each operation; an exception fails that operation only."""
    results, op_ms = [], []
    for args in ops:
        t0 = time.perf_counter()
        try:
            value = op(*args)
        except Exception as exc:  # one failed operation must not end the unit
            value = {"error": f"{type(exc).__name__}: {exc}"}
        op_ms.append((time.perf_counter() - t0) * 1e3)
        results.append(value)
    return results, op_ms


def _cli_table(argv):
    from linial import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("identities", "oracle", "table"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.load(sys.stdin)

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart: it dominates the import)

    t1 = time.perf_counter()
    import linial.cli  # noqa: F401

    t2 = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    out = {}
    if args.workload == "table":
        out["results"] = _cli_table(spec["argv"])
    else:
        op = _identity_op if args.workload == "identities" else _oracle_op
        out["results"], out["op_ms"] = _timed(op, spec["ops"])
    if tracer is not None:
        layers = tracer.report()
        layers["cli.import_numpy_ms"] = (t1 - t0) * 1e3
        layers["cli.import_ms"] = (t2 - t0) * 1e3
        out["layers"] = layers
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
