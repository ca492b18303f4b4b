"""The three workloads: closed loop, one caller, nothing in parallel.

Each workload draws one fixed pass of operations from the seed. ``measure``
runs the pass over and over until the timed passes add up to the requested
seconds, ``replay`` runs it once more (traced or not, so the traced run
compares like with like and its counts repeat exactly), and ``check``
counts the operations of a pass that raised or failed their check.

A pass holds only inputs on which the package is expected to be correct.
The seed commit's known precision defects (cancellation far off the origin
and between near-identical Gaussians; `verify` floors missed near alpha = 1
at Poisson rates of 10^2 to 10^3 and on mvn) are measured apart, on a fixed
seeded probe set, by ``trace_layers`` in the traced run.
"""

from __future__ import annotations

import io
import json
import math
import resource
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter_ns

import efmeasures
from efmeasures import cli, measures, oracle
from efmeasures.measures import MEASURE_NAMES, measure_needs_alpha, measure_needs_pair

import inputs
import reference

SWEEP_ALPHAS = (0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 1e-7, 2.0)
SWEEP_CELLS = tuple(
    (m, a) for m in MEASURE_NAMES for a in (SWEEP_ALPHAS if measure_needs_alpha(m) else (None,))
)
# Sweep pairs per family in one pass; Poisson rates take one stratum each.
SWEEP_PAIRS = inputs.POISSON_STRATA
# The 31 cells `efmeasures verify` runs for every family, restated here.
NEAR_ONE = (1.0 - 1e-4, 1.0 + 1e-4)
VERIFY_ALPHAS = (0.5, 0.9, *NEAR_ONE, 2.0)
VERIFY_CELLS = (
    tuple(("renyi", a) for a in VERIFY_ALPHAS)
    + tuple(("tsallis", a) for a in VERIFY_ALPHAS)
    + tuple((m, None) for m in ("shannon", "cross-entropy", "kl", "bregman", "bhattacharyya", "hellinger"))
    + tuple((m, a) for m in ("renyi-div", "tsallis-div", "jensen") for a in VERIFY_ALPHAS)
)
# Monte Carlo samples per mvn cell in a verify pass. The CLI default, 10^6,
# makes a cell take ~0.25 s on one core of a 2.1 GHz Xeon; at 2x10^4 it takes
# ~5 ms, short enough for its best repetition to fall inside the moments a
# shared host runs at full speed (see ``Measurement``). The probe set runs
# at the CLI default, where the `verify` rule is tightest.
VERIFY_MC_SAMPLES = 20_000
PROBE_MC_SAMPLES = 1_000_000
# At alpha = 1 +- 1e-4 the mvn Renyi and Tsallis closed forms miss the Monte
# Carlo bound (a floating-point floor there, whatever the sample count) by
# their rounding: the probe set runs these cells, a verify pass the rest.
PROBE_MVN_CELLS = tuple(
    (m, a) for m in ("renyi", "tsallis", "renyi-div", "tsallis-div") for a in NEAR_ONE
)
VERIFY_MVN_CELLS = tuple(c for c in VERIFY_CELLS if c not in PROBE_MVN_CELLS)
# Scalar pairs per family for the one mvn pair of a verify pass.
VERIFY_SCALAR_PAIRS = 8
# log10 of the Poisson rates in a verify pass, and in the probe set where
# the closed forms and series miss the 1e-9 discrete-sum floor.
VERIFY_POISSON_LOG10 = (-1.0, 1.7)
PROBE_POISSON_LOG10 = (2.0, 3.0)
# Far-off-origin and near-identical Gaussian pairs in the sweep's probe set.
PROBE_GAUSSIAN_PAIRS = 32
# Data sets in an estimate pass, and rows of each CSV: an invocation takes
# a few milliseconds, short enough to fall inside the moments a shared
# host runs at full speed.
ESTIMATE_SETS = 12
ESTIMATE_ROWS = 2000


@dataclass
class Failures:
    """Operations checked, and a description of the first few that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class Pass:
    """One run of a workload's fixed operations.

    ``latencies_ns`` times each operation; ``blocks_ns`` times the blocks of
    work that make up the pass (for closed-form-sweep a pair: its conversion
    to natural parameters and its evaluations; elsewhere one operation).
    """

    latencies_ns: array = field(default_factory=lambda: array("q"))
    blocks_ns: array = field(default_factory=lambda: array("q"))
    busy_ns: int = 0
    outputs: list = field(default_factory=list)


@dataclass
class Measurement:
    """The timed passes of a run (outputs dropped once checked) and their failures.

    Timings are each operation's (or block's) best over the timed passes.
    Co-tenants on a shared host slow calls down for seconds at a time and
    never speed them up, so the fastest repetition of a fixed operation is
    the steadiest estimate of its cost.
    """

    passes: list[Pass] = field(default_factory=list)
    warmup_passes: int = 0
    fails: Failures = field(default_factory=Failures)
    peak_rss_mb: float = 0.0

    def op_best_ns(self) -> list[int]:
        return [min(col) for col in zip(*(p.latencies_ns for p in self.passes))]

    def pass_best_ns(self) -> int:
        """A pass's time with every block at its best."""
        return sum(min(col) for col in zip(*(p.blocks_ns for p in self.passes)))


def measure(work, seconds: float, after_pass=None) -> Measurement:
    """Warm-up passes, then whole passes until the timed ones add up to ``seconds``.

    Every pass is checked, the warm-up ones too; a pass's outputs are dropped
    once checked, so memory does not grow with the length of the run.
    ``after_pass()`` runs untimed after each timed pass.
    """
    out = Measurement(warmup_passes=work.warmup_passes)
    for _ in range(work.warmup_passes):
        work.check(work.run_pass(), out.fails)
    while sum(p.busy_ns for p in out.passes) < seconds * 1e9:
        done = work.run_pass()
        work.check(done, out.fails)
        done.outputs = []
        out.passes.append(done)
        if after_pass is not None:
            after_pass()
    out.peak_rss_mb = work.peak_rss_mb()
    return out


def _family(name: str, params: dict):
    if name == "mvn":
        return efmeasures.get_family("mvn", dim=len(params["mu"]))
    return efmeasures.get_family(name)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# closed-form-sweep
# --------------------------------------------------------------------------


class ClosedFormSweep:
    """All 11 measures at six alphas over a pass of 32 seeded pairs per family."""

    # The first pass warms up (lazy imports).
    warmup_passes = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        streams = [inputs.PairStream(seed, f, "sweep") for f in inputs.SWEEP_FAMILIES]
        rounds = 1 if tiny else SWEEP_PAIRS
        self.pairs = [(s.family, *s.next()[:2]) for _ in range(rounds) for s in streams]
        self.work_per_pass = len(self.pairs) * len(SWEEP_CELLS)
        self.refs = [reference.closed_form_reference(*pair) for pair in self.pairs]
        self.probe = inputs.PairStream(seed, "gaussian", "probe", gaussian_kinds=("far", "near"))
        self.probe_pairs = 2 if tiny else PROBE_GAUSSIAN_PAIRS

    def run_pass(self, tracer=None) -> Pass:
        out = Pass()
        lat = out.latencies_ns
        for i, (fam_name, p, q) in enumerate(self.pairs):
            if tracer is not None:
                tracer.op_id = i
            fam = _family(fam_name, p)
            values = []
            t0 = perf_counter_ns()
            theta, theta2 = fam.to_natural(p), fam.to_natural(q)
            for measure, alpha in SWEEP_CELLS:
                a = perf_counter_ns()
                try:
                    value = measures.evaluate_measure(
                        fam, measure, theta, theta2 if measure_needs_pair(measure) else None, alpha
                    ).value
                except Exception as exc:  # counted as a failure of this evaluation
                    value = exc
                lat.append(perf_counter_ns() - a)
                values.append(value)
            dt = perf_counter_ns() - t0
            out.blocks_ns.append(dt)
            out.busy_ns += dt
            out.outputs.append(values)
        return out

    replay = run_pass

    def check(self, done: Pass, fails: Failures) -> None:
        for (fam_name, _, _), refs, values in zip(self.pairs, self.refs, done.outputs):
            for problem in _sweep_problems(fam_name, refs, values):
                fails.fail(problem)
            fails.attempted += len(values)

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def trace_layers(self, traced: Pass) -> dict[str, tuple[float, int]]:
        """Share of evaluations on far-off-origin and near-identical Gaussian pairs off the reference."""
        fam = efmeasures.get_family("gaussian")
        misses = evals = 0
        for _ in range(self.probe_pairs):
            p, q, _ = self.probe.next()
            theta, theta2 = fam.to_natural(p), fam.to_natural(q)
            values = []
            for measure, alpha in SWEEP_CELLS:
                try:
                    values.append(measures.evaluate_measure(
                        fam, measure, theta, theta2 if measure_needs_pair(measure) else None, alpha
                    ).value)
                except Exception as exc:
                    values.append(exc)
            refs = reference.closed_form_reference("gaussian", p, q)
            misses += sum(1 for _ in _sweep_problems("gaussian", refs, values))
            evals += len(values)
        return {"measures.cancellation_miss_ratio": (misses / evals, evals)}


def _sweep_problems(fam_name: str, refs, values):
    """A description of each evaluation that raised, left its range or missed its mpmath reference."""
    for (measure, alpha), value in zip(SWEEP_CELLS, values):
        if isinstance(value, Exception):
            yield f"{fam_name} {measure} alpha={alpha}: {value!r}"
            continue
        ok = reference.in_range(measure, alpha, value)
        if ok and refs is not None and measure in refs:
            ok = reference.rel_close(value, refs[measure], reference.CLOSED_FORM_REL_TOL)
        if not ok:
            want = refs.get(measure) if refs else None
            yield f"{fam_name} {measure} alpha={alpha}: {value!r} (reference {want!r})"


# --------------------------------------------------------------------------
# verify-grid
# --------------------------------------------------------------------------


class VerifyGrid:
    """Closed form against ``oracle_measure`` on the `verify` cells of a pass of pairs."""

    # The first pass warms up (lazy imports, first quadrature and sampler calls).
    warmup_passes = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        self.cfg = oracle.OracleConfig(seed=seed, mc_samples=1000 if tiny else VERIFY_MC_SAMPLES)
        self.probe_cfg = oracle.OracleConfig(seed=seed, mc_samples=1000 if tiny else PROBE_MC_SAMPLES)
        scalar_pairs = 1 if tiny else VERIFY_SCALAR_PAIRS
        scalar = [
            inputs.PairStream(seed, f, "verify", poisson_log10=VERIFY_POISSON_LOG10,
                              poisson_strata=scalar_pairs)
            for f in inputs.VERIFY_SCALAR_FAMILIES
        ]
        mvn = inputs.PairStream(seed, "mvn", "verify", mvn_dims=(2,))
        # One mvn pair's cells spread evenly among the scalar pairs' cells.
        scalar_cells = [c for _ in range(scalar_pairs) for s in scalar for c in _pair_cells(s, VERIFY_CELLS)]
        mvn_cells = _pair_cells(mvn, VERIFY_MVN_CELLS)
        stride = len(scalar_cells) // len(mvn_cells)
        self.cells: list[tuple] = []  # (family, theta, theta2, measure, alpha)
        for k, cell in enumerate(mvn_cells):
            self.cells += scalar_cells[k * stride : (k + 1) * stride]
            self.cells.append(cell)
        self.cells += scalar_cells[len(mvn_cells) * stride :]
        self.work_per_pass = len(self.cells)
        # Probe set: Poisson pairs at rates 10^2 to 10^3, and an mvn pair's cells near alpha = 1.
        poisson = inputs.PairStream(seed, "poisson", "probe", poisson_log10=PROBE_POISSON_LOG10,
                                    poisson_strata=scalar_pairs)
        self.probe_cells = [c for _ in range(scalar_pairs) for c in _pair_cells(poisson, VERIFY_CELLS)]
        self.probe_cells += _pair_cells(mvn, PROBE_MVN_CELLS)

    @staticmethod
    def _cell(cell, cfg) -> tuple | Exception:
        fam, theta, theta2, measure, alpha = cell
        try:
            closed = measures.evaluate_measure(fam, measure, theta, theta2, alpha).value
            est = oracle.oracle_measure(fam, measure, theta, theta2, alpha, cfg)
            return closed, est.value, est.error_bound, est.method
        except Exception as exc:  # counted as a failure of this cell
            return exc

    def run_pass(self, tracer=None) -> Pass:
        out = Pass()
        lat = out.blocks_ns = out.latencies_ns
        for i, cell in enumerate(self.cells):
            if tracer is not None:
                tracer.op_id = i
            a = perf_counter_ns()
            result = self._cell(cell, self.cfg)
            dt = perf_counter_ns() - a
            lat.append(dt)
            out.busy_ns += dt
            out.outputs.append(result)
        return out

    replay = run_pass

    def check(self, done: Pass, fails: Failures) -> None:
        for (fam, _, _, measure, alpha), result in zip(self.cells, done.outputs):
            fails.attempted += 1
            if isinstance(result, Exception):
                fails.fail(f"{fam.name} {measure} alpha={alpha}: {result!r}")
                continue
            closed, value, bound, method = result
            if not abs(closed - value) <= reference.check_tolerance(closed, bound, method):
                fails.fail(f"{fam.name} {measure} alpha={alpha}: closed {closed!r} "
                           f"vs {method} {value!r} +- {bound!r}")

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def trace_layers(self, traced: Pass) -> dict[str, tuple[float, int]]:
        """Shares of the pass's cells that meet the `verify` rule and of the probe cells that miss it."""
        agreed = sum(map(_verify_agrees, traced.outputs))
        misses = sum(not _verify_agrees(self._cell(cell, self.probe_cfg)) for cell in self.probe_cells)
        return {
            "oracle.agree_ratio": (agreed / len(traced.outputs), len(traced.outputs)),
            "oracle.verify_miss_ratio": (misses / len(self.probe_cells), len(self.probe_cells)),
        }


def _verify_agrees(result) -> bool:
    """The unmodified `verify` rule; a cell that raised does not agree."""
    if isinstance(result, Exception):
        return False
    closed, value, bound, method = result
    return abs(closed - value) <= reference.verify_tolerance(closed, bound, method)


def _pair_cells(stream, cells) -> list[tuple]:
    p, q, _ = stream.next()
    fam = _family(stream.family, p)
    theta, theta2 = fam.to_natural(p), fam.to_natural(q)
    return [(fam, theta, theta2 if measure_needs_pair(m) else None, m, a) for m, a in cells]


# --------------------------------------------------------------------------
# estimate-ingest
# --------------------------------------------------------------------------


class EstimateIngest:
    """``efmeasures.cli.run(["estimate", ...])`` on generated CSV data sets.

    Each data set gives three invocations: exponential with ``--data2`` and
    ``--measure kl``, poisson with ``--measure shannon``, and mvn with
    ``--dim 2``. They run in this process, so an invocation costs CSV
    parsing, ``SampleSet`` validation, ``mle`` and the plug-in measures; the
    cold import of a fresh interpreter is in ``setup_s``.
    """

    # The first pass warms up (lazy imports, first parse of each file).
    warmup_passes = 1

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        rows = 200 if tiny else ESTIMATE_ROWS
        self.data: dict[str, tuple[str, object]] = {}
        # (family, argv after `estimate`, the data names it reads)
        self.invocations: list[tuple[str, list[str], tuple[str, ...]]] = []
        for k in range(1 if tiny else ESTIMATE_SETS):
            written = inputs.write_estimate_inputs(seed, workdir, rows, k)
            self.data.update({f"{name}-{k}": entry for name, entry in written.items()})
            path = {name: p for name, (p, _) in written.items()}
            self.invocations += [
                ("exponential", ["--family", "exponential", "--data", path["exponential"],
                                 "--data2", path["exponential2"], "--measure", "kl"],
                 (f"exponential-{k}", f"exponential2-{k}")),
                ("poisson", ["--family", "poisson", "--data", path["poisson"], "--measure", "shannon"],
                 (f"poisson-{k}",)),
                ("mvn", ["--family", "mvn", "--dim", "2", "--data", path["mvn"]], (f"mvn-{k}",)),
            ]
        self.work_per_pass = sum(len(self.data[name][1]) for _, _, names in self.invocations for name in names)
        self.refs = {
            name: reference.mle_reference(family, self.data[name][1])
            for family, _, names in self.invocations
            for name in names
        }

    def run_pass(self, tracer=None) -> Pass:
        out = Pass()
        lat = out.blocks_ns = out.latencies_ns
        for k, (_, argv, _) in enumerate(self.invocations):
            if tracer is not None:
                tracer.op_id = k
            buf = io.StringIO()
            a = perf_counter_ns()
            with redirect_stdout(buf):
                code = cli.run(["estimate", *argv])
            dt = perf_counter_ns() - a
            lat.append(dt)
            out.busy_ns += dt
            out.outputs.append((code, buf.getvalue()))
        return out

    replay = run_pass

    def check(self, done: Pass, fails: Failures) -> None:
        for (family, _, files), (code, text) in zip(self.invocations, done.outputs):
            fails.attempted += 1
            problem = None
            if code != 0:
                problem = f"exit code {code}"
            else:
                report = json.loads(text)
                for key, name in zip(("data", "data2"), files):
                    block = report["estimates"][key]
                    rows = len(self.data[name][1])
                    if block["n"] != rows:
                        problem = f"{key}: n={block['n']}, expected {rows}"
                    elif not reference.params_match(block["params"], self.refs[name], reference.MLE_REL_TOL):
                        problem = f"{key}: params {block['params']} vs reference {self.refs[name]}"
                for row in report["results"]:
                    if not math.isfinite(row["value"]):
                        problem = f"{row['measure']} = {row['value']}"
            if problem:
                fails.fail(f"estimate {family}: {problem}")

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def trace_layers(self, traced: Pass) -> dict[str, tuple[float, int]]:
        return {}
