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


def test_every_traced_boundary_is_called():
    # a boundary that is defined but no longer called (say, counting_dijkstra
    # stopped calling topo_order) reads 0 in a traced benchmark run; this
    # script reaches each one on small graphs
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"dynbc.{name}") for name in MODULES}
    generate, graph, apsp = mods["generate"], mods["graph"], mods["apsp"]
    edge_update, vertex_update = mods["edge_update"], mods["vertex_update"]
    tracer = tracing.Tracer(mods)
    with tracer.installed():
        # the events lower edges of weight 10, 26 and 32 to 1
        g = graph.parse_graph(generate.gen_graph("complete", 6, seed=3))
        events = mods["cli"].parse_update_stream("u e 0 1 1\nu v 2 2\ni 3 1\no 4 1\n")
        fast = apsp.static_bc(g)
        fast = edge_update.incremental_bc_edge(fast, events[0])
        full = apsp.brandes_bc(g, mode="full")
        full = edge_update.incremental_bc_edge(full, events[0])
        full = vertex_update.incremental_bc_vertex(full, events[1])
        compare = mods["oracle"].compare_states
        assert compare(full, apsp.brandes_bc(full.graph, mode="full"), tol=0.0).passed
        assert compare(fast, apsp.brandes_bc(fast.graph), tol=0.0).passed
    uncalled = [name for name, agg in tracer.totals().items() if agg["calls"] == 0]
    assert not uncalled
