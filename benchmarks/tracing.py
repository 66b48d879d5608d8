"""Spans around lossmc's public functions, patched in from outside.

The traced run replaces each public function or method listed in
:func:`instrument` by a wrapper that records a span (name, start, end,
parent) and, for some layers, counts.  Each wrapper is installed where the
caller looks the name up: ``report`` imported ``simulate_compound_parallel``,
``rare_event`` imported ``simulate_compound``, ``distributions`` imported the
``norm_*`` helpers, and ``volterra`` imports them from ``lossmc.normal`` at
call time.  :class:`Patches` puts every original object back on exit.

A span's self time is its duration minus the part of it that its child
spans cover.  Layer metrics ending in ``_s`` are self times, except
``rare_event.selection_s`` and ``rare_event.mutation_s``, which are the
inclusive times of those two phases of a splitting run.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

import lossmc.compound
import lossmc.distributions as dist
import lossmc.normal
import lossmc.panjer
import lossmc.rare_event
import lossmc.report
import lossmc.rng
import lossmc.volterra


class Patches:
    """Set attributes on modules and classes; restore them all on exit.

    An attribute a class only inherited is deleted again rather than set
    back, so the class's own namespace ends as it began.
    """

    _MISSING = object()

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if orig is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Capture(Patches):
    """Keep the last result of a few report-level calls, with no timing.

    The timed runs read the tail answer's standard error from objects the
    report does not emit (the Monte Carlo batch, the particle measure, the
    recursion pmfs).  Each hook costs one extra Python call per operation.
    """

    def __init__(self):
        super().__init__()
        self.seen = {}
        self._hook("simulate_compound_parallel", "batch")
        self._hook("estimate_density_grid", "measure")
        self._hook("oracle_compound_pmf", "pmfs", many=True)

    def _hook(self, attr: str, key: str, many: bool = False) -> None:
        fn = getattr(lossmc.report, attr)
        seen = self.seen

        def capture(*args, **kwargs):
            out = fn(*args, **kwargs)
            if many:
                seen.setdefault(key, []).append(out)
            else:
                seen[key] = out
            return out

        self.set(lossmc.report, attr, capture)

    def take(self) -> dict:
        seen = dict(self.seen)
        self.seen.clear()
        return seen


class Tracer:
    """In-memory spans and counts of one traced operation."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, result)`` may count
        and may return a replacement result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                replaced = after(self, args, out)
                if replaced is not None:
                    out = replaced
            return out

        return traced


# ---------------------------------------------------------------------------
# What is wrapped, and what it counts
# ---------------------------------------------------------------------------

def _count_uniforms(tr, args, out):
    tr.counts["rng.uniforms"] += len(out)


def _count_uniform(tr, args, out):
    tr.counts["rng.uniforms"] += 1


def _count_losses(tr, args, out):
    tr.counts["compound.losses"] += out.count


def _mass_deficit(tr, args, out):
    tr.counts[f"panjer.mass_deficit.{args[0].frequency.kind}"] = float(1.0 - out.masses.sum())


def _count_lattice(tr, args, out):
    tr.counts["panjer.lattice_points"] += len(out.masses)


def _count_paths(tr, args, out):
    tr.counts["volterra.paths"] += len(args[1]) * int(args[2])


def _wrap_kernel(tr, args, out):
    return dataclasses.replace(out, g=tr.wrap("volterra.kernel", out.g),
                               k=tr.wrap("volterra.kernel", out.k))


def _count_moves(tr, args, out):
    tr.counts["volterra.moves"] += len(out)


def _count_smc(tr, args, out):
    n_particles, steps = int(args[3]), int(args[2])
    tr.counts["rare_event.level_passes"] += len(out.trace or ())
    for row in out.trace or ():
        if row["acceptance_rate"] is not None:
            tr.counts["rare_event.proposed"] += n_particles * steps
            tr.counts["rare_event.accepted"] += row["acceptance_rate"] * n_particles * steps


def instrument(tracer: Tracer) -> Patches:
    """Install the tracer's wrappers; use the result as a context manager."""
    report, panjer, volterra = lossmc.report, lossmc.panjer, lossmc.volterra
    table = [
        (lossmc.rng.PcgStream, "uniforms", "rng.uniforms", _count_uniforms),
        (lossmc.rng.PcgStream, "next_uniform", "rng.uniforms", _count_uniform),
        (dist.PoissonFrequency, "sample", "distributions.count_sample", None),
        (dist.FrequencyModel, "sample", "distributions.count_sample", None),
        (dist.LogNormalSeverity, "sample", "distributions.severity_sample", None),
        (dist.LogNormalSeverity, "pdf", "distributions.severity_pdf", None),
        (dist.LogNormalSeverity, "partial_expectation",
         "distributions.partial_expectation", None),
        (dist.SeverityModel, "interval_masses", "distributions.interval_masses", None),
        (dist.LogNormalSeverity, "interval_partial_expectation",
         "distributions.interval_partial_expectation", None),
        (lossmc.compound, "simulate_compound", "compound.simulate", _count_losses),
        (lossmc.rare_event, "simulate_compound", "compound.simulate", _count_losses),
        (report, "simulate_compound_parallel", "compound.simulate_parallel", None),
        (report, "empirical_quantile_ci", "compound.quantile_ci", None),
        (report, "oracle_compound_pmf", "panjer.oracle", _mass_deficit),
        (report, "oracle_tail_stats", "panjer.readout", None),
        (panjer, "discretize_severity", "panjer.discretize", None),
        (panjer, "panjer_discrete", "panjer.recursion", _count_lattice),
        (panjer, "gpd_panjer_discrete", "panjer.gpd_cluster", None),
        (report, "estimate_density_grid", "volterra.grid", _count_paths),
        (volterra, "build_volterra_kernel", "volterra.build_kernel", _wrap_kernel),
        (volterra.SizeBiasedProposal, "sample", "volterra.propose", _count_moves),
        (volterra.SizeBiasedProposal, "density", "volterra.kernel", None),
        (report, "quantile_from_measure", "volterra.readout", None),
        (report, "risk_measures_from_measure", "volterra.readout", None),
        (report, "sla_var_first_order", "asymptotics.sla", None),
        (report, "sla_var_second_order", "asymptotics.sla", None),
        (report, "replicate_smc", "rare_event.replicate", None),
        (lossmc.rare_event, "smc_rare_event", "rare_event.smc", _count_smc),
        (lossmc.rare_event, "selection_transition", "rare_event.selection", None),
        (report, "run_experiment", "report.run", None),
        (report, "emit_report", "report.emit", None),
    ]
    for module in (lossmc.normal, dist):
        table += [
            (module, "norm_quantile", "normal.quantile", None),
            (module, "norm_cdf", "normal.cdf", None),
            (module, "norm_sf", "normal.cdf", None),
            (module, "norm_pdf", "normal.pdf", None),
        ]
    patches = Patches()
    for owner, attr, name, after in table:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
    return patches


# ---------------------------------------------------------------------------
# Span arithmetic and the layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in kids):
            if e > reach:
                covered += e - max(s, reach)
                reach = e
        out.append((end - start) - covered)
    return out


# per-layer metric -> (unit, how it is read from one traced operation)
def _sum_self(*names):
    return lambda st, inc, calls, counts: sum(st[n] for n in names)


def _inclusive(name):
    return lambda st, inc, calls, counts: inc[name]


def _calls(name):
    return lambda st, inc, calls, counts: calls[name]


def _count(name):
    return lambda st, inc, calls, counts: counts[name]


def _ratio(num, den):
    return lambda st, inc, calls, counts: (num(st, inc, calls, counts) / d
                                           if (d := den(st, inc, calls, counts)) else 0.0)


LAYER_METRICS = {
    "rng.uniforms": ("count", _count("rng.uniforms")),
    "rng.uniforms_s": ("s", _sum_self("rng.uniforms")),
    "distributions.count_sample_s": ("s", _sum_self("distributions.count_sample")),
    "distributions.severity_sample_s": ("s", _sum_self("distributions.severity_sample")),
    "distributions.severity_pdf_s": ("s", _sum_self("distributions.severity_pdf")),
    "distributions.partial_expectation_s": ("s", _sum_self("distributions.partial_expectation")),
    "distributions.interval_masses_s": ("s", _sum_self("distributions.interval_masses")),
    "distributions.interval_partial_expectation_s":
        ("s", _sum_self("distributions.interval_partial_expectation")),
    "distributions.calls": ("count", lambda st, inc, calls, counts: sum(
        v for k, v in calls.items() if k.startswith("distributions."))),
    "compound.simulate_self_s": ("s", _sum_self("compound.simulate",
                                                "compound.simulate_parallel")),
    "compound.losses": ("count", _count("compound.losses")),
    "compound.simulate_calls": ("count", _calls("compound.simulate")),
    "compound.mean_batch": ("count", _ratio(_count("compound.losses"),
                                            _calls("compound.simulate"))),
    "compound.quantile_ci_s": ("s", _sum_self("compound.quantile_ci")),
    "compound.quantile_ci_calls": ("count", _calls("compound.quantile_ci")),
    "panjer.discretize_s": ("s", _sum_self("panjer.discretize")),
    "panjer.recursion_s": ("s", _sum_self("panjer.recursion")),
    "panjer.gpd_cluster_s": ("s", _sum_self("panjer.gpd_cluster")),
    "panjer.lattice_points": ("count", _count("panjer.lattice_points")),
    "panjer.mass_deficit.poisson": ("1", _count("panjer.mass_deficit.poisson")),
    "panjer.mass_deficit.negbinomial": ("1", _count("panjer.mass_deficit.negbinomial")),
    "panjer.mass_deficit.genpoisson": ("1", _count("panjer.mass_deficit.genpoisson")),
    "volterra.grid_self_s": ("s", _sum_self("volterra.grid")),
    "volterra.propose_s": ("s", _sum_self("volterra.propose")),
    "volterra.kernel_s": ("s", _sum_self("volterra.kernel")),
    "volterra.readout_s": ("s", _sum_self("volterra.readout")),
    "volterra.steps": ("count", _calls("volterra.propose")),
    "volterra.moves": ("count", _count("volterra.moves")),
    "volterra.mean_path_len": ("1", _ratio(_count("volterra.moves"),
                                           _count("volterra.paths"))),
    "normal.quantile_s": ("s", _sum_self("normal.quantile")),
    "normal.cdf_s": ("s", _sum_self("normal.cdf")),
    "normal.pdf_s": ("s", _sum_self("normal.pdf")),
    "asymptotics.sla_s": ("s", _sum_self("asymptotics.sla")),
    "rare_event.smc_runs": ("count", _calls("rare_event.smc")),
    "rare_event.level_passes": ("count", _count("rare_event.level_passes")),
    "rare_event.selection_s": ("s", _inclusive("rare_event.selection")),
    "rare_event.mutation_s": ("s", _inclusive("rare_event.mutation")),
    "rare_event.acceptance_rate": ("1", _ratio(_count("rare_event.accepted"),
                                               _count("rare_event.proposed"))),
    "report.run_s": ("s", _sum_self("report.run")),
    "report.emit_s": ("s", _sum_self("report.emit")),
}


def op_layers(tracer: Tracer) -> tuple[dict, float]:
    """Layer metrics of one traced operation, and the sum of all self times.

    Inside a splitting run the first ``compound.simulate`` child of each
    ``rare_event.smc`` span draws the initial population; the later ones
    are the mutation redraws, counted as ``rare_event.mutation``.
    """
    spans = tracer.spans
    st, inc, calls = Counter(), Counter(), Counter()
    selfs = self_times(spans)
    first_draw = set()
    for (name, start, end, parent), self_s in zip(spans, selfs):
        st[name] += self_s
        inc[name] += end - start
        calls[name] += 1
        if name == "compound.simulate" and parent >= 0 and spans[parent][0] == "rare_event.smc":
            if parent in first_draw:
                inc["rare_event.mutation"] += end - start
            first_draw.add(parent)
    values = {metric: float(read(st, inc, calls, tracer.counts))
              for metric, (unit, read) in LAYER_METRICS.items()}
    return values, sum(selfs)
