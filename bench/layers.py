"""Per-layer spans for one traced pass over citesim's CLI.

Each layer's public functions are wrapped at the module attribute its
caller looks them up through (``from .x import f`` binds ``f`` in the
caller's module, so that is where the wrapper goes). A span records
calls, inclusive time, and self time: inclusive minus the time of the
wrapped calls made inside it. Nothing in citesim is edited; the
wrappers are removed when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from citesim import cli, hindex, indicators, lognormal, montecarlo, report, stats

#: (module holding the lookup, attribute, span name). The span name is
#: the layer that owns the function.
WRAPPED = (
    # the row builders, as the CLI dispatcher calls them
    (cli, "table1_rows", "report.table1_rows"),
    (cli, "hcurve_rows", "report.hcurve_rows"),
    (cli, "scatter_rows", "report.scatter_rows"),
    (cli, "fit_rows", "report.fit_rows"),
    (cli, "simulate_rows", "report.simulate_rows"),
    (cli, "render_rows", "output.render_rows"),
    # everything the row builders call outside their own module
    (report, "h_curve", "hindex.h_curve"),
    (report, "metrics_analytic", "indicators.metrics_analytic"),
    (report, "metrics_simulated", "indicators.metrics_simulated"),
    (report, "scatter_dataset", "indicators.scatter_dataset"),
    (report, "default_study", "indicators.default_study"),
    (report, "indicator_value", "indicators.indicator_value"),
    (report, "study_specs", "indicators.study_specs"),
    (report, "run_replicates", "montecarlo.run_replicates"),
    (report, "derive_seed", "montecarlo.derive_seed"),
    (report, "fit_power_law", "stats.fit_power_law"),
    (report, "fit_linear", "stats.fit_linear"),
    (report, "format_number", "output.format_number"),
    (report, "format_probability", "output.format_probability"),
    # calls inside the layers
    (indicators, "run_replicates", "montecarlo.run_replicates"),
    (indicators, "solve_h", "hindex.solve_h"),
    (indicators, "survival_probability", "lognormal.survival_probability"),
    (indicators, "expected_exceeding", "lognormal.expected_exceeding"),
    (montecarlo, "derive_seed", "montecarlo.derive_seed"),
    (hindex, "solve_h", "hindex.solve_h"),
    (hindex, "brentq", "roots.brentq"),
    (hindex, "expected_exceeding", "lognormal.expected_exceeding"),
    (lognormal, "survival_probability", "lognormal.survival_probability"),
    (stats, "pearson", "stats.pearson"),
)


class Spans:
    """Calls, inclusive and self nanoseconds per span name, plus the work
    counts read from results: replicates, papers and solver evaluations."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.replicates = 0
        self.papers = 0
        self.solver_evaluations = 0
        self.top_level_ns = 0
        self._children_ns: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children_ns.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                children = self._children_ns.pop()
                if self._children_ns:
                    self._children_ns[-1] += elapsed
                else:
                    self.top_level_ns += elapsed
                self.calls[name] += 1
                self.inclusive_ns[name] += elapsed
                self.self_ns[name] += elapsed - children
            self._count(name, result)
            return result

        if name == "roots.brentq":
            # the gap function is a span of its own, so brentq's self time
            # excludes the evaluations
            @functools.wraps(fn)
            def brentq(f, *args, **kwargs):
                return traced(self.wrap("hindex.gap", f), *args, **kwargs)

            return brentq
        return traced

    def _count(self, name: str, result) -> None:
        if name == "montecarlo.run_replicates":
            self.replicates += result.replicates
            self.papers += result.replicates * result.spec.n_papers
        elif name == "hindex.solve_h":
            self.solver_evaluations += result.iterations

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for module, attr, name in WRAPPED:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self, pass_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one pass that took `pass_s` seconds,
        as (value, unit). cli.self_s is the pass time outside every span:
        argument parsing, dispatch and the harness's own capture."""
        s = 1e-9
        run_s = self.self_ns["montecarlo.run_replicates"] * s
        solves = self.calls["hindex.solve_h"]
        report_self = sum(v for k, v in self.self_ns.items() if k.startswith("report."))
        return {
            "montecarlo.run_replicates.s": (run_s, "s"),
            "montecarlo.ns_per_paper": (run_s / self.papers * 1e9 if self.papers else 0.0, "ns"),
            "montecarlo.us_per_replicate": (run_s / self.replicates * 1e6 if self.replicates else 0.0, "us"),
            "montecarlo.derive_seed.calls": (self.calls["montecarlo.derive_seed"], "count"),
            "montecarlo.derive_seed.s": (self.inclusive_ns["montecarlo.derive_seed"] * s, "s"),
            "montecarlo.replicates": (self.replicates, "count"),
            "montecarlo.papers": (self.papers, "count"),
            "hindex.solve_h.calls": (solves, "count"),
            "hindex.solve_h.us_per_call": (
                self.inclusive_ns["hindex.solve_h"] * 1e-3 / solves if solves else 0.0, "us"),
            "hindex.solve_h.evals_per_call": (self.solver_evaluations / solves if solves else 0.0, "evals"),
            "roots.brentq.s": (self.self_ns["roots.brentq"] * s, "s"),
            "lognormal.survival_probability.calls": (self.calls["lognormal.survival_probability"], "count"),
            "lognormal.survival_probability.s": (self.inclusive_ns["lognormal.survival_probability"] * s, "s"),
            "stats.fit_power_law.s": (self.inclusive_ns["stats.fit_power_law"] * s, "s"),
            "stats.fit_linear.s": (self.inclusive_ns["stats.fit_linear"] * s, "s"),
            "stats.pearson.s": (self.inclusive_ns["stats.pearson"] * s, "s"),
            "indicators.default_study.s": (self.inclusive_ns["indicators.default_study"] * s, "s"),
            "report.self_s": (report_self * s, "s"),
            "output.render_rows.s": (self.inclusive_ns["output.render_rows"] * s, "s"),
            "cli.self_s": (pass_s - self.top_level_ns * s, "s"),
        }

    def table(self) -> dict[str, dict[str, float]]:
        """Every span's calls, inclusive and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "inclusive_s": self.inclusive_ns[name] * 1e-9,
                "self_s": self.self_ns[name] * 1e-9,
            }
            for name in sorted(self.calls)
        }
