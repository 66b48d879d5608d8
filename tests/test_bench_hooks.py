"""The traced benchmark patches lossmc names from outside the package.

``benchmarks/tracing.py`` looks up every function and method it wraps by
name, so renaming or deleting one of them breaks only a ``--trace 1``
benchmark run.  This guard enters and exits both patch sets and checks
that each patched name exists and is put back as it was.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402

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
