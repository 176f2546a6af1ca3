"""Benchmark of the linial package, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads (seed 0 is the canonical input set; other seeds draw sets of the
same size and cost):

table-e8    one CLI process ``linial table E8 --n-list ... --format json``
            over 60 values of n (seed 0: 1..60, else 60 drawn from 1..120).
            Every row must equal ``e8_table_ref.json`` (recorded from the
            seed with n = 1..120) and ``GOLDEN`` in tests/golden_tables.py,
            with ``exact`` = yes and max_deviation <= 1e-8.
identities  one process runs verify_main_theorem, verify_corollary1 and
            verify_rad_theorem, plus gcd_prime_polynomial == char_poly when
            gcd(n+1, rho) = 1, for all 32 catalogued types over a window of
            rho + 1 values of n (seed 0: n = 0..rho; else each n moves up by
            0 or rho).  Every check must be True.
oracle      one process runs oracle_count(info, 1, n, q) on 26 (type, n, q)
            inputs with q >= n(h-1), where the count must equal
            char_quasi(info, n).eval(q).  Other seeds redraw (n, q) in that
            band, keeping each type's q^rank point total within 3%.

Each workload unit is a fresh Python process, run in a closed loop by one
client for up to ``--seconds``.  The last line of stdout is one JSON
object: end-to-end metrics under ``--trace 0``, per-layer metrics of one
extra traced unit under ``--trace 1``; metric names and units come from
BENCHMARK.json.  The line before it holds machine info and raw samples.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN_FILE = ROOT / "tests" / "golden_tables.py"
SPEC_FILE = ROOT / "BENCHMARK.json"

# every family the catalog knows, at ranks up to 8
ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# (type, n, q values): every q is at the agreement bound n(h-1) or above.
ORACLE_CANON = (
    ("F4", 1, range(11, 24)),
    ("A5", 2, range(10, 14)),
    ("B4", 3, range(21, 26)),
    ("D5", 2, range(14, 17)),
    ("E6", 1, range(11, 12)),
)

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120.0
MAX_DEVIATION = 1e-8


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# child processes


class Child:
    """A finished child process: wall time, peak RSS, exit code and output."""

    def __init__(self, argv, stdin: bytes = b""):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child ended early; its exit code tells why
            self.stdout = proc.stdout.read()
            # wait4, unlike Popen.wait, returns this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
        finally:
            timer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stderr = err[0] if err else b""
        self.rss_mb = usage.ru_maxrss / 1024.0

    def last_json(self):
        """The JSON object on the last line of stdout, or None."""
        lines = self.stdout.decode(errors="replace").strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


def _python(*args) -> list[str]:
    return [sys.executable, *args]


def setup_samples() -> list[float]:
    """Wall times of a fresh interpreter running ``import linial``."""
    argv = _python("-c", "import linial")
    Child(argv)  # warm-up: bytecode compile and file cache, paid once per checkout
    out = []
    for _ in range(SETUP_REPEATS):
        child = Child(argv)
        if child.code != 0:
            raise SetupError(child.stderr.decode().strip())
        out.append(child.wall_s)
    return out


# ---------------------------------------------------------------------------
# workloads


class Unit(NamedTuple):
    """Measured result of one workload unit.  ``busy_s`` is the time spent in
    operations: the whole process for the CLI, the timed calls otherwise."""

    child: Child
    busy_s: float
    op_ms: list[float]
    failed: int


class TableE8:
    """One CLI run of ``linial table E8`` over 60 values of n."""

    name = "table-e8"

    def __init__(self, seed: int, linial):
        ns = range(1, 61) if seed == 0 else sorted(random.Random(seed).sample(range(1, 121), 60))
        self.ns = list(ns)
        self.attempted = len(self.ns)
        self.work = len(self.ns)
        self.h = linial.catalog("E8").coxeter_h
        self.args = ["table", "E8", "--n-list", ",".join(map(str, self.ns)), "--format", "json"]
        ref = json.loads((HERE / "e8_table_ref.json").read_text())
        self.ref = {row["n"]: row for row in ref["rows"]}
        self.golden = {n: coeffs for n, coeffs, *_ in _golden()["E8"]}
        for n, coeffs in self.golden.items():
            if self.ref[n]["coeffs"] != [str(c) for c in reversed(coeffs)]:
                raise SetupError(f"e8_table_ref.json disagrees with GOLDEN at n={n}")
        self.last_stdout = b""

    @staticmethod
    def rows(stdout: str) -> dict:
        """Rows of one JSON table output by n; empty if it is unusable."""
        try:
            return {row["n"]: row for row in json.loads(stdout)["rows"]}
        except (ValueError, KeyError, TypeError):
            return {}

    def check(self, code: int, stdout: str) -> int:
        """Failed rows of one table output (all of them if it is unusable)."""
        rows = self.rows(stdout) if code == 0 else {}
        failed = 0
        for n in self.ns:
            row = rows.get(n, {})
            ok = (
                row.get("coeffs") == self.ref[n]["coeffs"]
                and row.get("real_part") == self.ref[n]["real_part"] == str(Fraction(n * self.h, 2))
                and row.get("exact") == "yes"
                and isinstance(row.get("max_deviation"), (int, float))
                and row["max_deviation"] <= MAX_DEVIATION
            )
            if ok and n in self.golden:
                ok = row["coeffs"] == [str(c) for c in reversed(self.golden[n])]
            failed += not ok
        return failed

    def cli(self, *extra) -> Child:
        return Child(_python("-m", "linial.cli", *self.args, *extra))

    def unit(self) -> Unit:
        child = self.cli()
        self.last_stdout = child.stdout
        failed = self.check(child.code, child.stdout.decode())
        return Unit(child, child.wall_s, [child.wall_s * 1e3], failed)

    def traced(self):
        child = Child(_python(str(HERE / "worker.py"), "table", "--trace", "1"),
                      json.dumps({"argv": self.args}).encode())
        doc = child.last_json() if child.code == 0 else None
        if doc is None:
            return child, self.attempted, {}
        res = doc["results"]
        return child, self.check(res["exit"], res["stdout"]), doc["layers"]

    def extra_layers(self):
        """Root-line accuracy of the last untraced table, and one run with
        ``--jobs 2``, whose stdout must be byte-identical to it.  Returns the
        metrics and the rows attempted and failed."""
        rows = self.rows(self.last_stdout.decode()).values()
        devs = [r["max_deviation"] for r in rows if isinstance(r.get("max_deviation"), (int, float))]
        out = {
            "rootline.max_deviation": max(devs, default=0.0),
            "rootline.certified_ratio": sum(r.get("exact") == "yes" for r in rows) / len(self.ns),
            "cli.table_jobs2_s": 0.0,
        }
        child = self.cli("--jobs", "2")
        if child.code == 2 and b"--jobs" in child.stderr:
            return out, 0, 0  # the flag is gone: reported as 0, not as a failure
        out["cli.table_jobs2_s"] = child.wall_s
        same = child.code == 0 and child.stdout == self.last_stdout
        return out, self.attempted, 0 if same else self.attempted


class _Library:
    """Shared runner of the library workloads: one worker process per unit."""

    def __init__(self, ops, expected):
        self.ops = ops
        self.expected = expected
        self.attempted = len(ops)
        self.spec = json.dumps({"ops": ops}).encode()

    def _run(self, trace: int):
        child = Child(_python(str(HERE / "worker.py"), self.name, "--trace", str(trace)), self.spec)
        doc = child.last_json() if child.code == 0 else None
        if doc is None or len(doc.get("results", ())) != len(self.ops):
            return child, None, self.attempted
        failed = sum(got != want for got, want in zip(doc["results"], self.expected))
        return child, doc, failed

    def unit(self) -> Unit:
        child, doc, failed = self._run(0)
        op_ms = doc["op_ms"] if doc else []
        return Unit(child, sum(op_ms) / 1e3 if doc else child.wall_s, op_ms, failed)

    def traced(self):
        child, doc, failed = self._run(1)
        return child, failed, (doc or {}).get("layers", {})

    def extra_layers(self):
        return {}, 0, 0


class Identities(_Library):
    name = "identities"

    def __init__(self, seed: int, linial):
        rng = random.Random(seed)
        ops = []
        for label in ALL_TYPES:
            rho = linial.catalog(label).period_rho
            # n and n + rho share gcd(n+1, rho); n = 0 and n = rho move together
            shift = {n: (rng.randrange(2) if seed else 0) * rho for n in range(rho)}
            shift[rho] = shift[0]
            ops += [[label, n + shift[n]] for n in range(rho + 1)]
        expected = [
            [True] * (4 if math.gcd(n + 1, linial.catalog(label).period_rho) == 1 else 3)
            for label, n in ops
        ]
        super().__init__(ops, expected)
        self.work = len(ops)


class Oracle(_Library):
    name = "oracle"

    def __init__(self, seed: int, linial):
        rng = random.Random(seed)
        ops = []
        for label, n, qs in ORACLE_CANON:
            info = linial.catalog(label)
            canon = [(n, q) for q in qs]
            pairs = canon
            if seed:
                band = [(m, q) for m in range(1, n + 1) for q in qs if q >= m * (info.coxeter_h - 1)]
                target = sum(q**info.rank for _, q in canon)
                for _ in range(10000):
                    pick = rng.sample(band, len(canon))
                    if abs(sum(q**info.rank for _, q in pick) - target) <= 0.03 * target:
                        pairs = pick
                        break
            ops += [[label, m, q] for m, q in pairs]
        expected = [linial.char_quasi(linial.catalog(l), m).eval(q) for l, m, q in ops]
        super().__init__(ops, expected)
        self.work = sum(q ** linial.catalog(l).rank for l, _, q in ops)


WORKLOADS = {w.name: w for w in (TableE8, Identities, Oracle)}


# ---------------------------------------------------------------------------
# helpers


def _golden() -> dict:
    """GOLDEN from tests/golden_tables.py, read as a literal, never executed."""
    tree = ast.parse(GOLDEN_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SetupError("GOLDEN not found in tests/golden_tables.py")


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _loc() -> dict:
    """Line counts per module of the package (``init`` for __init__) and of src/."""
    out = {
        f"{p.stem.strip('_')}.loc": len(p.read_text().splitlines())
        for p in (SRC / "linial").glob("*.py")
    }
    out["src.loc"] = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return out


def _machine(linial) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "linial": getattr(linial, "__version__", "?"),
    }


def _layers(raw: dict) -> dict:
    """Per-layer metrics from the tracer's raw counts; absent ones are 0."""
    out = dict(raw)
    slots = raw.get("arrangements.char_quasi_slots", 0)
    used = raw.get("arrangements.char_poly_calls", 0)
    out["arrangements.slot_use_ratio"] = used / slots if slots else float(used > 0)
    return out


# ---------------------------------------------------------------------------
# main


def measure(workload, seconds: float) -> list[Unit]:
    """Closed loop, one client: the next unit starts when the previous ends,
    and none starts that would likely end after ``seconds``."""
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(workload.unit())
        elapsed = time.perf_counter() - t0
        if elapsed + units[-1].child.wall_s > seconds:
            return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        for path in (SRC / "linial" / "__init__.py", GOLDEN_FILE, SPEC_FILE):
            if not path.is_file():
                raise SetupError(f"{path.relative_to(ROOT)} not found; run from the repository root")
        spec = json.loads(SPEC_FILE.read_text())
        sys.path.insert(0, str(SRC))
        import linial

        workload = WORKLOADS[args.workload](args.seed, linial)
        setup = setup_samples()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = measure(workload, args.seconds)
    attempted = workload.attempted * len(units)
    failed = sum(u.failed for u in units)
    walls = [u.child.wall_s for u in units]
    busy = [u.busy_s for u in units]
    op_ms = [ms for u in units for ms in u.op_ms]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "work_per_s": workload.work / statistics.median(busy),
        "peak_rss_mb": statistics.median(u.child.rss_mb for u in units),
    }
    samples = {
        "setup_s": setup,
        "wall_s": walls,
        "busy_s": busy,
        "rss_mb": [u.child.rss_mb for u in units],
        "op_ms": op_ms,
    }

    if args.trace:
        child, traced_failed, raw = workload.traced()
        extra, extra_attempted, extra_failed = workload.extra_layers()
        attempted += workload.attempted + extra_attempted
        failed += traced_failed + extra_failed
        layers = _layers(raw)
        layers.update(extra)
        layers.update(_loc())
        layers.update(
            {
                "trace.untraced_wall_s": metrics["wall_s"],
                "trace.traced_wall_s": child.wall_s,
                "trace.overhead_s": child.wall_s - metrics["wall_s"],
                "run.failed_ratio": failed / attempted,
                "run.op_p50_ms": _percentile(op_ms, 50),
                "run.op_p90_ms": _percentile(op_ms, 90),
                "run.op_samples": len(op_ms),
            }
        )
        metrics = layers
        samples["traced_wall_s"] = [child.wall_s]
        names = spec["per_layer"]
    else:
        names = spec["end_to_end"]

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "machine": _machine(linial),
        "samples": samples,
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
