"""perfbench's tracer wraps dynbc functions by module attribute; deleting or
renaming one must fail the test suite, not only a traced benchmark run."""

import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ["generate", "graph", "apsp", "edge_update", "vertex_update",
           "oracle", "cli"]


def _load_tracing():
    # exec the source rather than import it, so no bytecode is written
    # next to the benchmark
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="ascii"), str(TRACING), "exec"),
         tracing.__dict__)
    return tracing


def test_every_traced_boundary_exists():
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"dynbc.{name}") for name in MODULES}
    # the tracer looks up every boundary it wraps; a lost one raises
    # AttributeError, an unlisted module KeyError
    tracing.Tracer(mods)
