"""dreg benchmark: seeded closed-loop workloads of CLI verbs, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
One client sends the next request only when the previous one returned
(`dreg.cli.main(argv)` in this process).  The seed picks the requests
from the workload's fixed pool (workloads.py); input files are written
before timing starts.

Every output is checked: the exit code, the SHA-256 of the report bytes
recorded in expected.json (record.py writes it), the answers theory
predicts, and that running a request twice gives the same bytes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: after the untraced passes it rebinds each layer's
functions (tracing.py), runs the requests and the workload's cliff
requests twice traced, and fails if any count differs between the two.
The last line of stdout is the result object; lines before it are rows
for people.  Results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_STARTS = 15
PROBE_EVERY = 0.2           # seconds between speed probes
PROBE_ITERATIONS = 300
PROBE_TABLE = 10_000
PROBE_READS = 300
PROBE_NOMINAL = 0.00125     # seconds the probe takes at nominal speed
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
MIN_PASSES = 2
# counts that must repeat exactly between the two traced passes
EXACT_SUFFIXES = (".calls", ".steps", "_ratio", "peak_coeff_bits", "ratfun_built",
                  "cli.requests", ".per_request")
# requests reported in rows of their own, with their traced counts
CLIFFS = {"systems/cliff-d3-saturation-inf": "cliff.d3_saturation",
          "weyl/cliff-unit-ideal/charvar": "cliff.weyl_unit_ideal"}
CLIFF_COUNTERS = {
    "cliff.d3_saturation": ("systems.saturate_lattice.steps", "lattices.build.calls",
                            "lattices.contains.calls", "polynomials.univar_gcd.calls",
                            "polynomials.ratfun_built", "polynomials.peak_coeff_bits"),
    "cliff.weyl_unit_ideal": ("weyl.weyl_mul.calls", "weyl.weyl_normal_form.calls",
                              "weyl.weyl_normal_form.nonzero_ratio",
                              "ideals.groebner_basis.calls", "polynomials.peak_coeff_bits"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    src = ROOT / "src"
    if not (src / "dreg" / "cli.py").is_file():
        raise BenchError(f"no dreg sources under {src}")
    sys.path.insert(0, str(src))
    import dreg
    import dreg.cli
    import dreg.corpus
    if Path(dreg.__file__).resolve().parent != src / "dreg":
        raise BenchError(f"imported dreg from {dreg.__file__}, not from {src}")
    return dreg


@dataclass
class Outcome:
    code: object
    out: bytes
    err: bytes
    seconds: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out + b"\0" + self.err).hexdigest()


def execute(main, request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(request.argv))
        except SystemExit as exc:           # argparse rejects the argv
            code = exc.code
        except Exception:
            code = "uncaught " + traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue().encode(), err.getvalue().encode(), seconds)


def lookup(report, path):
    for part in path:
        report = report[part]
    return report


def check(request, outcome, expected: dict) -> list[str]:
    """Reasons the outcome is wrong; empty when it is right."""
    problems = []
    if outcome.code != request.exit_code:
        problems.append(f"exit {outcome.code!r}, expected {request.exit_code}: "
                        f"{outcome.err.decode()[:200]}")
        return problems
    if expected.get(request.key) != outcome.digest:
        problems.append("report bytes differ from the recorded SHA-256")
    if request.checks:
        report = json.loads(outcome.out)
        for path, want in request.checks:
            try:
                got = lookup(report, path)
            except (KeyError, IndexError, TypeError):
                got = "<missing>"
            if got != want:
                problems.append(f"{'/'.join(map(str, path))} = {got!r}, expected {want!r}")
    return problems


def verdict_histogram(outcomes) -> dict:
    hist: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.code != 0:
            key = f"exit {outcome.code}"
            hist[key] = hist.get(key, 0) + 1
            continue
        report = json.loads(outcome.out)
        keys = [f"{v['method']}: {v['verdict']}" for v in report["verdicts"]]
        for cert in report["certificates"]:
            if isinstance(cert, dict) and "point" in cert and "verdict" in cert:
                keys.append(f"point: {cert['verdict']}")     # fuchs on P^1
            if isinstance(cert, dict):
                keys += ["untested factor"] * len(cert.get("untested_factors", ()))
        for key in keys:
            key = f"{report['command']} {key}"
            hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


def pool_digest(workload) -> str:
    h = hashlib.sha256()
    for r in workload.pool:
        h.update(json.dumps([r.key, r.argv, r.files, r.checks, r.exit_code],
                            default=str).encode())
    return h.hexdigest()


def write_inputs(requests) -> None:
    for r in requests:
        for rel, content in r.files:
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)


# -- measurements -------------------------------------------------------------------------


class SpeedProbe:
    """Fixed reference computations timed between requests.

    Other tenants of a shared host change its speed by up to 2x within
    seconds, for dreg and for any other Python code alike.  Every time is
    scaled by PROBE_NOMINAL / (probe time around it): the time the work
    takes at the speed where the probe takes PROBE_NOMINAL seconds.  That
    keeps runs made minutes apart comparable; `raw_*` rows keep the
    unscaled figures.  The probe is the geometric mean of a compute part
    (rationals, tuple-keyed dicts, formatting, sorting: what dreg is made
    of) and a memory part (rationals read at random from a table of a few
    MB); together they track dreg's speed better than either alone.
    """

    def __init__(self):
        rng = random.Random(0)
        self.table = {i: Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                      for i in range(PROBE_TABLE)}
        self.keys = [rng.randrange(PROBE_TABLE) for _ in range(PROBE_READS)]
        self.samples: list[float] = []
        self.last = -1.0

    @staticmethod
    def _compute() -> float:
        start = time.perf_counter()
        table, terms = {}, []
        for i in range(PROBE_ITERATIONS):
            f = Fraction(i % 13 + 1, i % 11 + 1) * Fraction(3, i % 7 + 2) + Fraction(1, 3)
            key = (i % 50, "x", i % 3)
            table[key] = table.get(key, 0) + 1
            terms.append(f"{f}*x^{i % 5}")
        terms.sort()
        return time.perf_counter() - start

    def _memory(self) -> float:
        start = time.perf_counter()
        acc = Fraction(0)
        for k in self.keys:
            acc += self.table[k]
        return time.perf_counter() - start

    def take(self) -> int:
        compute = min(self._compute() for _ in range(3))
        memory = min(self._memory() for _ in range(3))
        self.samples.append(math.sqrt(compute * memory))
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def index(self) -> int:
        """The probe before the next piece of work, taken anew when stale."""
        if not self.samples or time.perf_counter() - self.last >= PROBE_EVERY:
            return self.take()
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Factor to nominal speed for work between probe i and the next one."""
        return PROBE_NOMINAL / statistics.mean(self.samples[i:i + 2])


def measure_setup(probe: SpeedProbe) -> tuple[float, float]:
    """Median time, scaled and raw, from spawning a fresh interpreter to a built CLI parser."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import dreg.cli; "
            "dreg.cli.build_parser(); print(repr(time.perf_counter()))")
    raw, scaled = [], []
    for _ in range(SETUP_STARTS):
        i = probe.take()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=60)
        raw.append(float(done.stdout.strip()) - start)
        probe.take()
        scaled.append(raw[-1] * probe.scale(i))
    return statistics.median(scaled), statistics.median(raw)


# -- the run --------------------------------------------------------------------------------


class Ledger:
    """Attempted and failed request runs, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list] = {}

    def add(self, key: str, problems: list, runs: int = 1) -> None:
        self.attempted += runs
        if problems:
            self.failed += 1
            self.problems.setdefault(key, problems)


def warm_up(main, requests, expected, ledger) -> dict:
    """Run each distinct request twice: outputs must match each other and the record."""
    first = {}
    for r in requests:
        if r.key in first:
            continue
        a, b = execute(main, r), execute(main, r)
        problems = check(r, a, expected)
        if (a.code, a.out, a.err) != (b.code, b.out, b.err):
            problems.append("two runs gave different bytes")
        ledger.add(r.key, problems, runs=2)
        first[r.key] = a
    return first


def run_pass(main, requests, expected, ledger, probe, tracer=None, first_id=0) -> list:
    """One closed-loop pass: (key, seconds, probe index) per request, outputs checked by digest."""
    timings = []
    for i, r in enumerate(requests):
        p = probe.index()
        if tracer is not None:
            tracer.request = first_id + i
        o = execute(main, r)
        if tracer is not None:
            tracer.end_request()
        timings.append((r.key, o.seconds, p))
        ledger.add(r.key, [] if o.code == r.exit_code and expected.get(r.key) == o.digest
                   else [f"exit {o.code!r} or report bytes differ from the record"])
    probe.take()
    return timings


def scaled(timings, probe) -> list:
    return [(key, seconds * probe.scale(p)) for key, seconds, p in timings]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = -(-q * len(sorted_values) // 1)
    return sorted_values[max(0, int(rank) - 1)]


def tail_quantile(distinct: int) -> float:
    """Highest ladder percentile with at least ten distinct requests beyond it.

    Counting requests, not repeated samples of them, keeps the tail from
    resting on the three or four slowest requests a seed happens to pick.
    """
    return max([q for q in TAIL_LADDER if distinct * (1 - q) >= 10] or [TAIL_LADDER[0]])


def run(args) -> int:
    dreg = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.BUILDERS[args.workload](dreg.corpus)
    record = json.loads((HERE / "expected.json").read_text())["workloads"][args.workload]
    if record["pool_digest"] != pool_digest(workload):
        raise BenchError("the request pool changed; re-record with perfbench/record.py")
    expected = {key: digest for key, (_, digest) in record["requests"].items()}
    requests = workload.select(args.seed)
    os.chdir(ROOT)              # reports carry the relative input paths
    write_inputs(requests + list(workload.cliffs))
    main = dreg.cli.main
    ledger = Ledger()
    rows = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "requests_per_pass": len(requests)}

    probe = SpeedProbe()
    setup = None if args.trace else measure_setup(probe)
    first = warm_up(main, requests, expected, ledger)
    rows["verdicts"] = verdict_histogram(first[key] for key in sorted(first))
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(main, requests, expected, ledger, probe))
    walls = [sum(s for _, s in scaled(p, probe)) for p in passes]
    samples = sorted(s for p in passes for _, s in scaled(p, probe))
    q_tail = tail_quantile(len(requests))
    rows.update(passes=len(passes), latency_samples=len(samples),
                latency_tail_percentile=100 * q_tail,
                raw_wall_s=statistics.median(sum(s for _, s, _ in p) for p in passes),
                probe_median_ms=1000 * statistics.median(probe.samples))
    rows["cliffs"] = {}
    for key in CLIFFS:
        values = [s for p in passes for k, s in scaled(p, probe) if k == key]
        if values:
            rows["cliffs"][key] = {"latency_ms": 1000 * statistics.median(values)}

    if args.trace:
        metrics = traced_run(dreg, workload, requests, expected, ledger, rows, probe)
        metrics["trace.untraced_wall_s"] = statistics.mean(walls)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - statistics.mean(walls)
        names = spec["per_layer"]
    else:
        rows["raw_setup_s"] = setup[1]
        metrics = {"setup_s": setup[0],
                   "wall_s": statistics.mean(walls),
                   "requests_per_s": len(samples) / sum(samples),
                   "latency_p50_ms": 1000 * statistics.median(samples),
                   "latency_tail_ms": 1000 * percentile(samples, q_tail),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        names = spec["end_to_end"]
    rows["error_rate"] = ledger.failed / ledger.attempted
    report(args, rows, metrics, names, ledger)
    return 0


def traced_run(dreg, workload, requests, expected, ledger, rows, probe) -> dict:
    """Two traced passes over the requests and the cliffs; counts must repeat."""
    tracer = Tracer(dreg)
    tracer.install()
    order = requests + list(workload.cliffs)
    loop_walls, bases = [], []
    try:
        main = dreg.cli.main            # now the traced entry point
        for base in (0, len(order)):
            timings = run_pass(main, requests, expected, ledger, probe, tracer, base)
            loop_walls.append(sum(s for _, s in scaled(timings, probe)))
            for i, r in enumerate(workload.cliffs):
                p = probe.index()
                tracer.request = base + len(requests) + i
                o = execute(main, r)
                tracer.end_request()
                probe.take()
                ledger.add(r.key, check(r, o, expected))
                rows["cliffs"].setdefault(r.key, {}).setdefault("traced_latency_ms", []).append(
                    1000 * o.seconds * probe.scale(p))
            bases.append(base)
    finally:
        tracer.uninstall()
    if tracer.missing:
        rows["untraced"] = tracer.missing     # gone from the program; their metrics read 0
    (HERE / "results").mkdir(exist_ok=True)
    tracer.write(HERE / "results" / f"spans-{rows['workload']}-seed{rows['seed']}.json.gz")
    # counts over everything a pass ran must repeat; the workload's numbers leave the cliffs out
    first, second = (tracer.metrics(range(base, base + len(order))) for base in bases)
    for name in first:
        if name.endswith(EXACT_SUFFIXES) and first[name] != second[name]:
            ledger.add("trace", [f"{name} differs between traced passes: "
                                 f"{first[name]} != {second[name]}"])
    if first["dmod.fuchs_kashiwara_equivalence.calls"] and first["dmod.agree_ratio"] != 1:
        ledger.add("trace", ["dmod.agree_ratio is not 1"])
    first, second = (tracer.metrics(range(base, base + len(requests))) for base in bases)
    metrics = {name: first[name] if name.endswith(EXACT_SUFFIXES)
               else (first[name] + second[name]) / 2 for name in first}
    metrics["trace.traced_wall_s"] = statistics.mean(loop_walls)
    order_keys = [r.key for r in order]
    for key, prefix in CLIFFS.items():
        if key not in order_keys:
            for name in ("latency_ms",) + CLIFF_COUNTERS[prefix]:
                metrics[f"{prefix}.{name}"] = 0      # this workload does not run it
            continue
        rid = order_keys.index(key)
        counts = tracer.metrics(range(rid, rid + 1))
        row = rows["cliffs"][key]
        row.update({name: counts[name] for name in CLIFF_COUNTERS[prefix]})
        # untraced latency when the cliff is in the loop, else the traced one
        metrics[f"{prefix}.latency_ms"] = row.get("latency_ms") or statistics.mean(
            row["traced_latency_ms"])
        for name in CLIFF_COUNTERS[prefix]:
            metrics[f"{prefix}.{name}"] = counts[name]
    return metrics


def report(args, rows, metrics, names, ledger) -> None:
    result_dir = HERE / "results"
    result_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (result_dir / f"{stem}.json").write_text(json.dumps(
        {"rows": rows, "metrics": metrics, "failures": ledger.problems},
        indent=1, sort_keys=True))
    for key, value in rows.items():
        if key == "verdicts":
            for verdict, count in value.items():
                print(f"{'verdicts':>24}  {count:6d}  {verdict}")
        elif key == "cliffs":
            for cliff, row in value.items():
                print(f"{'cliff':>24}  {cliff}  {json.dumps(row)}")
        else:
            print(f"{key:>24}  {value}")
    for key, problems in ledger.problems.items():
        print(f"{'FAILED':>24}  {key}: {'; '.join(problems)}")
    out = {}
    for m in names:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:>48}  {value:.6g} {m['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (BenchError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
