"""The benchmark's tracer wraps names in cloudvault by attribute; a rename of
any of them must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

from cloudvault import persistence

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_every_span_and_uninstall_restores_it():
    tracing = _load_tracing()
    targets = [(owner, attr) for owner, attr, _ in tracing.SPANS]
    targets.append((persistence.RecordLog, "records"))
    original = [owner.__dict__[attr] for owner, attr in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), raw in zip(targets, original):
            assert owner.__dict__[attr] is not raw, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), raw in zip(targets, original):
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr}"
