"""The traced benchmark patches lossmc names from outside the package.

``benchmarks/tracing.py`` looks up every function and method it wraps by
name, so renaming or deleting one of them breaks only a ``--trace 1``
benchmark run.  This guard enters and exits both patch sets and checks
that each patched name exists and is put back as it was.  The benchmark
also reads fields of what those names return, so a third guard runs one
tiny config per route it checks and reads them.  A second guard keeps the
package free of unread imports, bar those the tracer patches.
"""
import ast
import dataclasses
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402

import lossmc  # noqa: E402
import lossmc.compound  # noqa: E402
import lossmc.panjer  # noqa: E402


def _enter_and_exit(patches):
    """The (owner, attribute, original) triples a patch set installed."""
    with patches:
        saved = list(patches._saved)
    return saved


def test_traced_benchmark_hooks_exist_and_restore():
    # instrument() looks every name up when called, so a lost name raises here
    for saved in (_enter_and_exit(tracing.instrument(tracing.Tracer())),
                  _enter_and_exit(tracing.Capture())):
        for owner, attr, orig in saved:
            assert vars(owner).get(attr, tracing.Patches._MISSING) is orig
            assert callable(getattr(owner, attr))
    hooks = {(owner, attr) for owner, attr, _ in
             _enter_and_exit(tracing.instrument(tracing.Tracer()))}
    assert (lossmc.panjer, "panjer_discrete") in hooks
    assert (lossmc.panjer, "gpd_panjer_discrete") in hooks


def test_captured_objects_carry_what_the_benchmark_reads():
    """One tiny particle, mc and panjer run under ``Capture`` and the
    tracer: the captured measure, batch and pmf hold the fields that
    ``workloads.check_op`` and the tracer's counters read, and the tracer
    rebuilt the particle kernel around its ``g`` and ``k``."""
    from lossmc import ExperimentConfig, run_experiment

    model = {"frequency": {"kind": "poisson", "lambda": 2.0},
             "severity": {"kind": "lognormal", "mu": 2.0, "sigma": 1.0}}
    methods = [{"kind": "particle", "grid_width": 5.0, "x_max": 60.0, "n_per_point": 20},
               {"kind": "mc", "T": 2000},
               {"kind": "panjer", "step": 0.5, "x_max": 200.0}]
    tracer = tracing.Tracer()
    with tracing.Capture() as capture, tracing.instrument(tracer):
        for method in methods:
            run_experiment(ExperimentConfig(model=model, method=method, levels=[0.5], seed=3))
    seen = capture.take()
    measure, batch, [pmf] = seen["measure"], seen["batch"], seen["pmfs"]
    assert measure.locations.shape == measure.weights.shape == measure.stderr.shape == (12,)
    assert batch.count == batch.values.size == 2000
    assert pmf.step == 0.5 and pmf.masses.size > 1
    assert {"g", "k"} <= {f.name for f in dataclasses.fields(lossmc.volterra.VolterraKernel)}
    names = {span[0] for span in tracer.spans}
    assert {"volterra.kernel", "volterra.grid", "compound.simulate_parallel",
            "panjer.oracle"} <= names
    assert tracer.counts["volterra.paths"] == 12 * 20 and tracer.counts["volterra.moves"] > 0
    assert tracer.counts["compound.losses"] >= 2000


def _unread_imports(path: Path) -> set:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read_or_patched_by_the_tracer():
    """A src module reads each name it imports; the one exception is a
    name that ``tracing.instrument`` patches on that module, which the
    module keeps as the hook the tracer swaps."""
    patched = {(owner.__name__, attr) for owner, attr, _ in
               _enter_and_exit(tracing.instrument(tracing.Tracer()))
               if isinstance(owner, types.ModuleType)}
    unread = {(f"lossmc.{path.stem}", name)
              for path in sorted(Path(lossmc.__file__).parent.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unread_imports(path)}
    assert unread <= patched, sorted(unread - patched)
    # the two hooks kept for the tracer alone: the parse does see them
    assert {("lossmc.rare_event", "simulate_compound"),
            ("lossmc.distributions", "norm_quantile")} <= unread


def test_poisson_count_sample_is_one_span_and_namespaces_restore():
    """Poisson inherits ``FrequencyModel.sample``, which the tracer patches
    under both class names: one draw must still record exactly one span."""
    from lossmc import CompoundModel, LogNormalSeverity, PcgStream, PoissonFrequency
    from lossmc.distributions import FrequencyModel

    before = {cls: dict(vars(cls)) for cls in (PoissonFrequency, FrequencyModel)}
    model = CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, 0.5))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        lossmc.compound.simulate_compound(model, 100, PcgStream(5))
    names = [span[0] for span in tracer.spans]
    assert names.count("distributions.count_sample") == 1
    assert names.count("distributions.severity_sample") == 1
    assert "sample" not in vars(PoissonFrequency)
    for cls, namespace in before.items():
        assert dict(vars(cls)) == namespace
