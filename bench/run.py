"""Benchmark for efmeasures: three seeded closed-loop workloads, one caller.

    python3 bench/run.py --workload closed-form-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 1 --out runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

Workloads:

  closed-form-sweep  ``evaluate_measure`` on seeded pairs of all six families,
                     11 measures at six alphas; outputs checked against 50-digit
                     mpmath references and each measure's range.
  verify-grid        closed form vs ``oracle_measure`` (Monte Carlo at 2x10^4
                     samples) on the 31 `verify` cells (23 for mvn), checked
                     with the `verify` agreement rule (Monte Carlo at 5
                     standard errors, see ``reference.py``).
  estimate-ingest    the ``estimate`` command, in process, on 2000-row CSVs,
                     checked against an exactly rounded MLE of the same data.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics. They have generic names, because every workload reports
each of them; ``OWN_NAMES`` gives what each means on each workload (for
closed-form-sweep, throughput_per_s is evaluations per second and
latency_p50_ms the median evaluate_measure call). A workload draws one
fixed pass of operations from the seed and runs it over and over: warm-up
passes first, then timed passes until they add up to ``--seconds``.
Timings are best-of-passes (see ``workloads.Measurement``): throughput is
the work of a pass over the pass's time with every block of work at its
best, and latency_p50_ms the median over operations of each operation's
best latency. ``setup_s`` is the median of fresh-interpreter probes
(``probe.py``) spread over the run, between timed passes.

With ``--trace 1`` the run replays one pass after its warm-up, untraced
and then with spans recorded around the package's public functions (see ``tracing.py``),
and reports per-layer metrics; its counts repeat exactly for a given seed.
It also runs the workload's probe set: fixed seeded inputs on which the
seed commit is known to miss its checks, reported as a miss ratio and not
as failed operations. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts every operation that raised or failed its check, and
``correct`` is true when none did.

``--out FILE`` appends one JSON record per run, with sample counts and the
workload's own metric names; ``--compare`` reads two such files.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread (single caller, nothing in
# parallel) and no bytecode written into the checkout.
BLAS_THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Workloads, and the units and directions of every metric.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# What the generic metrics mean on each workload: (own name, unit, scale).
OWN_NAMES = {
    "closed-form-sweep": {
        "throughput_per_s": ("evals_per_s", "evaluations/s", 1.0),
        "latency_p50_ms": ("eval_p50_us", "us", 1e3),
    },
    "verify-grid": {
        "throughput_per_s": ("cells_per_s", "cells/s", 1.0),
        "latency_p50_ms": ("cell_p50_ms", "ms", 1.0),
    },
    "estimate-ingest": {
        "throughput_per_s": ("rows_per_s", "rows/s", 1.0),
        "latency_p50_ms": ("invocation_p50_ms", "ms", 1.0),
    },
}

SETUP_PROBES = 7
IMPORT_PROBES = 3


def child_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = tmp
    return env


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": BLAS_THREADS,
    }


class SetupProbes:
    """Wall seconds of fresh interpreters running the set-up probe.

    The first probe is untimed, so every timed one finds files in the page
    cache. ``between`` takes one more whenever a share ``1 / count`` of the
    run has passed since the last, so the probes sample the whole run;
    ``finish`` takes the rest.
    """

    def __init__(self, args: list[str], env: dict, count: int, seconds: float) -> None:
        self.cmd = [sys.executable, str(BENCH / "probe.py"), *args]
        self.env = env
        self.count = count
        self.gap = seconds / count
        self.times: list[float] = []
        self._probe()
        self.times.clear()
        self.last = perf_counter()

    def _probe(self) -> None:
        t0 = perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True, stdout=subprocess.DEVNULL)
        self.times.append(perf_counter() - t0)

    def between(self) -> None:
        if len(self.times) < self.count and perf_counter() - self.last >= self.gap:
            self._probe()
            self.last = perf_counter()

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self._probe()
        return self.times


def import_seconds(env: dict, count: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "probe.py"), "import"]
    return [
        float(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(count)
    ]


def make_workload(name: str, seed: int, tiny: bool, tmp: str):
    import workloads

    if name == "closed-form-sweep":
        return workloads.ClosedFormSweep(seed, tiny)
    if name == "verify-grid":
        return workloads.VerifyGrid(seed, tiny)
    return workloads.EstimateIngest(seed, tiny, tmp)


def setup_probe_args(name: str, tmp: str) -> list[str]:
    if name != "estimate-ingest":
        return [name]
    path = os.path.join(tmp, "probe.csv")
    with open(path, "w") as handle:
        handle.write("\n".join(repr(0.25 * k + 0.5) for k in range(10)) + "\n")
    return [name, path]


def run_untraced(name: str, work, seconds: float, probes: SetupProbes):
    import workloads

    out = workloads.measure(work, seconds, after_pass=probes.between)
    setup = probes.finish()
    fails = out.fails
    ops = out.op_best_ns()
    values = {
        "throughput_per_s": work.work_per_pass / (out.pass_best_ns() * 1e-9),
        "latency_p50_ms": statistics.median(ops) * 1e-6,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": out.peak_rss_mb,
    }
    timed_ops = len(ops) * len(out.passes)
    samples = {"throughput_per_s": len(out.passes), "latency_p50_ms": timed_ops,
               "setup_s": len(setup), "peak_rss_mb": 1}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    report = {}
    for key, value in values.items():
        label, unit, scale = OWN_NAMES[name].get(key, (key, UNITS[key], 1.0))
        report[label] = {"value": value * scale, "unit": unit, "samples": samples[key]}
    report["fail_ratio"] = {
        "value": fails.failed / fails.attempted,
        "unit": "ratio",
        "samples": fails.attempted,
    }
    notes = {"warmup_passes": out.warmup_passes, "timed_passes": len(out.passes), "ops_per_pass": len(ops)}
    return metrics, report, fails, notes


def run_traced(name: str, work, env: dict, spans_path: str | None):
    import tracing
    import workloads

    for _ in range(work.warmup_passes):
        work.replay()
    a = perf_counter_ns()
    plain = work.replay()
    plain_ns = perf_counter_ns() - a
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a = perf_counter_ns()
        traced = work.replay(tracer)
        traced_ns = perf_counter_ns() - a
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write_spans(spans_path)
    fails = workloads.Failures()
    work.check(plain, fails)
    work.check(traced, fails)
    layers = tracer.layer_metrics(traced_ns)
    layers["trace.overhead_ratio"] = (traced_ns / plain_ns, len(traced.latencies_ns))
    for key in ("measures.cancellation_miss_ratio", "oracle.agree_ratio", "oracle.verify_miss_ratio"):
        layers[key] = (0.0, 0)
    layers.update(work.trace_layers(traced))
    imports = import_seconds(env, IMPORT_PROBES)
    layers["cli.import_s"] = (statistics.median(imports), len(imports))
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, (v, _) in sorted(layers.items())}
    report = {k: dict(m, samples=layers[k][1]) for k, m in metrics.items()}
    return metrics, report, fails, {"spans": len(tracer.start)}


def print_table(name: str, report: dict, fails, notes: dict) -> None:
    print(f"# {name} ({', '.join(f'{k} {v}' for k, v in notes.items())})")
    for key, m in report.items():
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']:<14s} n={m['samples']}")
    print(f"  failed {fails.failed} of {fails.attempted}")
    for line in fails.problems:
        print(f"  FAILED {line}")


def run(args) -> int:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        env = child_env(tmp)
        probe_args = setup_probe_args(args.workload, tmp)
        work = make_workload(args.workload, args.seed, args.tiny, tmp)
        if args.trace:
            metrics, report, fails, notes = run_traced(args.workload, work, env, args.spans)
        else:
            probes = SetupProbes(probe_args, env, 1 if args.tiny else SETUP_PROBES, args.seconds)
            metrics, report, fails, notes = run_untraced(args.workload, work, args.seconds, probes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    result = {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": metrics,
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "machine": machine(),
            "report": report,
            "notes": notes,
            "failures": fails.problems,
            "result": result,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print_table(args.workload, report, fails, notes)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# Compare mode.
# --------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better_of(name: str) -> str:
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for own in OWN_NAMES.values():
        for key, (label, _, _) in own.items():
            if label == name:
                return better[key]
    return better.get(name, "lower")  # fail_ratio


def _load(path: str) -> dict:
    """workload -> metric -> values, in run order (untraced runs only)."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            per_metric = runs.setdefault(record["workload"], {})
            for key, m in record["report"].items():
                per_metric.setdefault(key, []).append(m["value"])
    return runs


def compare(parent_path: str, change_path: str) -> int:
    """One row per workload x metric; the verdict follows the pairs-won and quartile rule.

    Runs are paired in file order. A change is better (worse) only when it
    wins (loses) at least 9 of 10 pairs and its median differs from the
    parent's by more than the parent's own interquartile distance.
    """
    parent, change = _load(parent_path), _load(change_path)
    print(f"{'workload':18s} {'metric':20s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s} "
          f"{'won':>7s} verdict")
    for workload in WORKLOADS:
        for metric, base in parent.get(workload, {}).items():
            new = change.get(workload, {}).get(metric)
            if not new:
                continue
            sign = 1.0 if _better_of(metric) == "higher" else -1.0
            pairs = list(zip(base, new))
            won = sum(1 for b, c in pairs if sign * (c - b) > 0)
            lost = sum(1 for b, c in pairs if sign * (c - b) < 0)
            bq, cq = _quartiles(base), _quartiles(new)
            spread = bq[2] - bq[0]
            gain = sign * (cq[1] - bq[1])
            if won >= 0.9 * len(pairs) and gain > spread:
                verdict = "better"
            elif lost >= 0.9 * len(pairs) and -gain > spread:
                verdict = "worse"
            else:
                verdict = "unresolved"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:18s} {metric:20s} {fmt(bq):>34s} {fmt(cq):>34s} "
                  f"{won:>3d}/{len(pairs):<3d} {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record of this run to this file")
    parser.add_argument("--spans", help="with --trace 1, write every span to this CSV file")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "efmeasures" / "__init__.py").is_file():
        print(f"error: no efmeasures package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import efmeasures

    if Path(efmeasures.__file__).resolve().parent != SRC / "efmeasures":
        print(f"error: imported efmeasures from {efmeasures.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
