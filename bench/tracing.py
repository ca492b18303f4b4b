"""Spans recorded from outside the package, by wrapping its public functions.

``Tracer.install`` replaces each traced function where callers look it up:
module attributes (``efmeasures.cli.evaluate_measure`` as well as
``efmeasures.measures.evaluate_measure``) and the methods of the concrete
family classes. Each call records a span: name, start, end, parent span and
the benchmark operation it belongs to, kept in flat arrays in memory. A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the time outside any span
add up to the traced wall time.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter_ns

import efmeasures
from efmeasures import cli, estimation, families, measures, oracle

_FAMILY_CLASSES = (
    families.ExponentialDistFamily,
    families.PoissonFamily,
    families.BernoulliFamily,
    families.GaussianFamily,
    families.MultivariateGaussianFamily,
    families.CenteredLaplacianFamily,
)

# Concrete family methods, each traced under its own layer name.
_FAMILY_METHODS = (
    "log_normalizer",
    "grad_log_normalizer",
    "to_natural",
    "sample",
    "log_density_batch",
    "sufficient_stat_batch",
)

FAMILY_NAMES = ("exponential", "poisson", "bernoulli", "gaussian", "mvn", "laplacian")

# Oracle method labels as the package reports them, and as metric names.
ORACLE_METHODS = {"quadrature": "quadrature", "discrete-sum": "discrete_sum", "monte-carlo": "monte_carlo"}


def _family_tag(args, result):
    return args[0].name


def _method_tag(args, result):
    return result.method


def _sample_size(args):
    return int(args[2])


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.name_of = array("i")
        self.tag_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.extra = array("q")
        self.op_id = 0
        self._open: list[list[int]] = []  # [span index, child ns] per open span
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def wrap(self, name: str, fn, tag=None, extra=None):
        name_id = len(self.names)
        self.names.append(name)
        tag_ids: dict[str, int] = {}
        open_spans = self._open
        tags = self.tags
        name_of, tag_of, start, end = self.name_of, self.tag_of, self.start, self.end
        self_ns, parent, op, extra_of = self.self_ns, self.parent, self.op, self.extra

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            tag_of.append(0)
            parent.append(open_spans[-1][0] if open_spans else -1)
            op.append(self.op_id)
            extra_of.append(extra(args) if extra else 0)
            end.append(0)
            self_ns.append(0)
            frame = [idx, 0]
            open_spans.append(frame)
            t0 = perf_counter_ns()
            start.append(t0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                open_spans.pop()
                dur = t1 - t0
                end[idx] = t1
                self_ns[idx] = dur - frame[1]
                if open_spans:
                    open_spans[-1][1] += dur
                if tag is not None and result is not None:
                    label = tag(args, result)
                    tid = tag_ids.get(label)
                    if tid is None:
                        tid = tag_ids[label] = len(tags)
                        tags.append(label)
                    tag_of[idx] = tid

        return traced

    def _patch(self, owner, attr: str, name: str, **kw) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self) -> None:
        for cls in _FAMILY_CLASSES:
            for method in _FAMILY_METHODS:
                extra = _sample_size if method == "sample" else None
                self._patch(cls, method, f"families.{method}", extra=extra)
        base = families.Family
        self._patch(base, "in_natural_domain", "families.in_natural_domain")
        # The carrier-moment series (nonzero only for poisson) behind both entry points.
        self._patch(base, "log_carrier_moment", "families.carrier_series")
        self._patch(base, "carrier_expectation", "families.carrier_series")
        for module in (measures, estimation, cli):
            self._patch(module, "evaluate_measure", "measures.evaluate_measure", tag=_family_tag)
        for module in (oracle, cli):
            self._patch(module, "oracle_measure", "oracle.oracle_measure", tag=_method_tag)
        self._patch(cli, "SampleSet", "estimation.sample_set")
        for module in (estimation, cli):
            self._patch(module, "mle", "estimation.mle")
        self._patch(cli, "plugin_measure", "estimation.plugin_measure")
        self._patch(cli, "run", "cli.run")
        # The package namespace re-exports two traced names.
        self._patch(efmeasures, "evaluate_measure", "measures.evaluate_measure", tag=_family_tag)
        self._patch(efmeasures, "oracle_measure", "oracle.oracle_measure", tag=_method_tag)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One CSV row per span: name, tag, start_ns, end_ns, parent, op."""
        with open(path, "w") as out:
            out.write("name,tag,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name_of[i]]},{self.tags[self.tag_of[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.parent[i]},{self.op[i]}\n"
                )

    def layer_metrics(self, wall_ns: int) -> dict[str, tuple[float, int]]:
        """Per-layer figures keyed by metric name, each with its sample count.

        A self time's samples are the layer's calls; a median's are its spans.
        """
        n = len(self.start)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        root_ns = 0
        eval_durations: dict[str, list[int]] = {f: [] for f in FAMILY_NAMES}
        cell_durations: dict[str, list[int]] = {m: [] for m in ORACLE_METHODS.values()}
        cell_self: dict[str, int] = dict.fromkeys(ORACLE_METHODS.values(), 0)
        # Oracle method of the cell each span runs under ("" outside cells);
        # parents are recorded before their children, so one pass suffices.
        cell_of = [""] * n
        samples = terms = sampler_calls = 0
        for i in range(n):
            name = self.names[self.name_of[i]]
            tag = self.tags[self.tag_of[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + self.self_ns[i] * 1e-9
            dur = self.end[i] - self.start[i]
            par = self.parent[i]
            if par < 0:
                root_ns += dur
            if name == "oracle.oracle_measure":
                method = ORACLE_METHODS.get(tag, "")
                cell_of[i] = method
                if method:
                    cell_durations[method].append(dur)
                    cell_self[method] += self.self_ns[i]
                continue
            cell = cell_of[par] if par >= 0 else ""
            cell_of[i] = cell
            if name == "measures.evaluate_measure" and tag in eval_durations:
                eval_durations[tag].append(dur)
            elif name == "families.sample" and cell == "monte_carlo":
                samples += self.extra[i]
                sampler_calls += 1
            elif name == "families.log_density_batch" and cell == "discrete_sum":
                terms += 1

        def count(name):
            return calls.get(name, 0)

        def layer(name):
            return self_s.get(name, 0.0), count(name)

        def p50(values, scale):
            return (statistics.median(values) * scale if values else 0.0), len(values)

        evals = count("measures.evaluate_measure")
        validations = count("families.in_natural_domain")
        out: dict[str, tuple[float, int]] = {
            "families.in_natural_domain.calls": (validations, validations),
            "families.in_natural_domain.per_eval": (validations / evals if evals else 0.0, evals),
            "families.in_natural_domain.self_s": layer("families.in_natural_domain"),
        }
        for name in ("log_normalizer", "grad_log_normalizer", "carrier_series"):
            out[f"families.{name}.calls"] = (count(f"families.{name}"), count(f"families.{name}"))
            out[f"families.{name}.self_s"] = layer(f"families.{name}")
        for name in ("to_natural", "sample", "log_density_batch", "sufficient_stat_batch"):
            out[f"families.{name}.self_s"] = layer(f"families.{name}")
        out["measures.evaluate_measure.calls"] = (evals, evals)
        out["measures.evaluate_measure.self_s"] = layer("measures.evaluate_measure")
        for fam in FAMILY_NAMES:
            out[f"measures.{fam}.p50_us"] = p50(eval_durations[fam], 1e-3)
        for method, durations in cell_durations.items():
            out[f"oracle.{method}.cells"] = (len(durations), len(durations))
            out[f"oracle.{method}.self_s"] = (cell_self[method] * 1e-9, len(durations))
            out[f"oracle.{method}.p50_ms"] = p50(durations, 1e-6)
        out["oracle.monte_carlo.samples"] = (samples, sampler_calls)
        out["oracle.discrete_sum.terms"] = (terms, terms)
        for name in ("sample_set", "mle", "plugin_measure"):
            out[f"estimation.{name}.self_s"] = layer(f"estimation.{name}")
        out["cli.run.self_s"] = layer("cli.run")
        out["trace.wall_s"] = (wall_ns * 1e-9, 1)
        out["trace.spans"] = (n, n)
        out["bench.self_s"] = ((wall_ns - root_ns) * 1e-9, 1)
        return out
