"""The benchmark's tracer (perfbench/tracing.py) looks up by name every
package function it wraps, so renaming or deleting one of them breaks the
benchmark; this checks the names here, with the rest of the suite."""

import importlib.util
import sys
from pathlib import Path

import opwords.certificate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_puts_every_original_back():
    tracing = _load_tracing()
    owners = [mod for name, mod in sys.modules.items()
              if name == "opwords" or name.startswith("opwords.")]
    owners.append(opwords.certificate.Certificate)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.pause()
    assert tracer._patched
    for owner, attr, _, _ in tracer._patched:
        assert vars(owner)[attr] is before[owner][attr]
