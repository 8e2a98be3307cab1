"""The benchmark's hooks into the program still resolve.

``perfbench/`` drives the program from outside: its workloads import
modules, classes and functions by name, and its tracer wraps every
method that ``perfbench/spans.py`` ``LAYER_TARGETS`` names.  A rename
or deletion in ``src/`` would otherwise surface only when the
benchmark itself runs.  These tests only read ``perfbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: perfbench's modules import one another by bare name.
BARE_MODULES = ("common", "spans", "batch_workloads", "live_workload")


def _load_spans():
    """``perfbench/spans.py`` under a private name (stdlib imports only)."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.fixture(scope="module")
def perfbench():
    """The workload modules, imported as ``perfbench/run.py`` imports
    them; ``sys.path`` and ``sys.modules`` are restored afterwards."""
    saved_path = list(sys.path)
    saved = {name: sys.modules.pop(name) for name in BARE_MODULES
             if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in BARE_MODULES}
    finally:
        sys.path[:] = saved_path
        for name in BARE_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_workload_modules_import(perfbench):
    assert perfbench["batch_workloads"].SETUPS
    assert perfbench["live_workload"].TimedStreamDecoder


def test_live_workload_builds_its_sessions(perfbench):
    """The stream decoder subclass and the mux, built as
    ``live_sessions`` builds them."""
    from repro.engine.executor import build_decoder
    from repro.engine.spec import ScenarioSpec

    live = perfbench["live_workload"]
    mux = live.SessionMux(queue_chunks=live.QUEUE_CHUNKS, watchdog_s=30.0,
                          isolate_errors=True)
    for decoder in ("adaptive", "two_phase"):
        stream = live.TimedStreamDecoder(
            2000.0, 0.5, n_data_symbols=4,
            decoder=build_decoder(ScenarioSpec(decoder=decoder)))
        mux.add_session(decoder, stream)
        stream.push([0.0] * live.CHUNK_SAMPLES)
        assert stream.push_samples == [live.CHUNK_SAMPLES]


@pytest.mark.parametrize(
    "target", SPANS.LAYER_TARGETS,
    ids=[".".join(p for p in t[:3] if p) for t in SPANS.LAYER_TARGETS])
def test_layer_target_resolves(target):
    module_name, class_name, attr, _ = target
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
        # The tracer wraps the attribute in the class's own namespace.
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_tracer_installs_and_restores_every_target():
    def current(target):
        module_name, class_name, attr, _ = target
        owner = importlib.import_module(module_name)
        if class_name is not None:
            return vars(getattr(owner, class_name))[attr]
        return getattr(owner, attr)

    originals = [current(t) for t in SPANS.LAYER_TARGETS]
    with SPANS.Tracer().installed():
        wrapped = [current(t) for t in SPANS.LAYER_TARGETS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [current(t) for t in SPANS.LAYER_TARGETS] == originals
