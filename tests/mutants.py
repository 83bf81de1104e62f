"""Known mutants of ``src/dynbc``, each with the tests that must kill it.

Usage, from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies ``src/``, ``tests/`` and ``perfbench/``
to a temporary directory, replaces the mutant's old text in its file with
the new text, and runs the mutant's tests there with ``python -m pytest -x
-q``.  The mutant is killed when they fail and survives when they pass.
The runner prints one line per mutant and exits nonzero if any survive.
It uses the standard library and pytest only, and is not part of the test
suite: ``tests/test_mutants.py`` checks there that every old text occurs
exactly once in its file, so code that moves must take its mutants along.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/dynbc
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


REPAIR = "tests/test_dependency_repair.py"
GRAPH = "tests/test_graph.py"
VERTEX = "tests/test_vertex_update.py::"
PINNED = "tests/test_pinned_streams.py::test_stream_output_is_pinned"
APSP = "tests/test_apsp.py::"
NETWORKX = "tests/test_networkx.py::test_brandes_matches_networkx"

MUTANTS = [
    # the ancestor repair of a dependency row: each seed kind, the walk's
    # filter, the reset of the entries it reached, and the route choice
    Mutant("refold-no-old-predecessors", "edge_update.py",
           "old_in = old.graph.radj[b] if db < ob else ()", "old_in = ()",
           (REPAIR + "::test_old_predecessor_losing_its_only_successor",)),
    Mutant("refold-no-flagged-columns", "edge_update.py",
           "heads if flipped else fm.changed", "heads if flipped else {}",
           (REPAIR + "::test_updated_edges_tail",)),
    Mutant("refold-no-flipped-columns", "edge_update.py",
           "heads if flipped else fm.changed", "{} if flipped else fm.changed",
           (REPAIR + "::test_flipped_phase_columns",)),
    Mutant("refold-old-distance-filter", "edge_update.py",
           "((radj[b], drow, db), (old_in, odrow, ob))",
           "((radj[b], odrow, ob), (old_in, odrow, ob))",
           (REPAIR + "::test_updated_edges_tail",)),
    Mutant("refold-never-falls-back", "edge_update.py",
           "if reads >= len(dag):", "if False:",
           (REPAIR + "::test_complete_digraph_takes_the_full_pass",)),
    Mutant("refold-source-entry", "edge_update.py",
           "    seen.discard(s)\n", "",
           (REPAIR,)),
    Mutant("refold-keeps-reached-entries", "edge_update.py",
           "        new[x] = 0.0\n", "",
           (REPAIR,)),
    # the one dependency fold both update routes run
    Mutant("fold-ascending-heads", "apsp.py",
           "sorted(edges, reverse=True)", "sorted(edges)",
           (REPAIR,)),
    Mutant("fold-ignores-head-id", "apsp.py",
           "sorted(edges, reverse=True)", "sorted(edges, key=lambda e: e[0], reverse=True)",
           # the wmax=1 streams, whose heads tie on distance
           (PINNED + "[gnp14-ties-fast]", PINNED + "[gnp12-ties-full]")),
    # the pair scan's lists of flagged columns, and the DAG repairs that
    # read in-rows and out-rows
    Mutant("classify-lists-no-closer-columns", "edge_update.py",
           "                cl.append(t)\n", "",
           ("tests/test_edge_update.py",)),
    Mutant("dag-copy-keeps-closer-edges", "edge_update.py",
           "return dag - {(a, b) for b in closer for a, _ in rows[b]}",
           "return set(dag)",
           (REPAIR,)),
    # the full-mode step's reverse repair: the edges of the closer heads
    # leave (a head that only gained paths keeps them: the whole-unit
    # streams, whose detours tie), every head's R set joins and counts as
    # attempted
    Mutant("reverse-closer-includes-ties", "vertex_update.py",
           "fm.dist[b][t] < rdist[t][b]", "fm.dist[b][t] <= rdist[t][b]",
           (PINNED + "[gnp14-units-directed-full]", PINNED + "[gnp14-units-undirected-full]")),
    Mutant("reverse-repair-keeps-closer-edges", "vertex_update.py",
           "_survivors(rdags[t], closer, g.adj)", "set(rdags[t])",
           (PINNED + "[gnp14-directed-full]", PINNED + "[gnp14-undirected-full]")),
    Mutant("reverse-attempts-skip-r-sets", "vertex_update.py",
           "            attempts += len(r_sets[b])\n", "",
           (PINNED + "[gnp14-directed-full]", PINNED + "[gnp14-undirected-full]")),
    # the full-mode step's R-set tally and charge, taken without a row scan
    Mutant("r-total-from-old-rdag", "vertex_update.py",
           "report.r_total += len(new_rdags[v])", "report.r_total += len(rdags[v])",
           (VERTEX + "test_r_total_counts_every_vertex_r_set",)),
    Mutant("r-scan-charge-counts-unreached", "vertex_update.py",
           "if t != v and fm.dist[t][v] < INF)", "if t != v)",
           (VERTEX + "test_r_set_charge_skips_vertices_that_cannot_reach_v",)),
    # in-rows on Graph
    Mutant("with-updates-skips-in-rows", "graph.py",
           "            _splice(radj, v, u, w)\n", "",
           (GRAPH + "::test_in_rows_match_the_edges_after_construction_and_updates",)),
    Mutant("reverse-keeps-rows", "graph.py",
           "Graph._raw(self.n, self.radj, self.adj, self.m, self.undirected)",
           "Graph._raw(self.n, self.adj, self.radj, self.m, self.undirected)",
           (GRAPH + "::test_reverse_definition_and_involution",)),
    # the update's copy-on-write rows and its validation
    Mutant("splice-writes-shared-row", "graph.py",
           "new = row[:]", "new = row",
           (GRAPH + "::test_with_updates_copies_patched_rows_and_leaves_the_source_alone",)),
    Mutant("duplicate-scan-skips-two-entry-sides", "edge_update.py",
           "if len(side) > 1:", "if len(side) > 2:",
           (VERTEX + "test_update_with_two_faults_names_the_same_one",)),
    # the range check's boundary: v = n is out of range
    Mutant("updated-vertex-range-includes-n", "edge_update.py",
           "if not 0 <= v < g.n:", "if not 0 <= v <= g.n:",
           (VERTEX + "test_vertex_update_validation",)),
    # the one inexact rule and where it is read: a count of exactly 2**53
    # is still exact, the flag is sticky, an update reads its repaired rows
    Mutant("exceeds-at-limit", "apsp.py",
           "max(row) > SIGMA_EXACT_LIMIT", "max(row) >= SIGMA_EXACT_LIMIT",
           ("tests/test_apsp.py::test_inexact_flag_trips_beyond_exact_float_counts",)),
    Mutant("build-never-inexact", "apsp.py",
           "sum(map(len, rdags or ())), _exceeds(sigma))",
           "sum(map(len, rdags or ())), False)",
           ("tests/test_apsp.py::test_inexact_flag_trips_beyond_exact_float_counts",)),
    Mutant("finish-forgets-old-flag", "edge_update.py",
           "inexact = inexact or _exceeds(", "inexact = _exceeds(",
           (PINNED + "[layered-inexact-fast]",)),
    Mutant("finish-checks-no-rows", "edge_update.py",
           "_exceeds(compress(sigma, map(is_not, dags, old.dags)))", "_exceeds(())",
           (VERTEX + "test_update_turns_exact_state_inexact",)),
    Mutant("finish-checks-old-rows", "edge_update.py",
           "_exceeds(compress(sigma, map(is_not, dags, old.dags)))",
           "_exceeds(compress(old.sigma, map(is_not, dags, old.dags)))",
           (VERTEX + "test_update_turns_exact_state_inexact",)),
    # path counts are exact ints in the builders' one search and the
    # kernel: a double anywhere rounds a count above 2**53
    Mutant("brandes-float-counts", "apsp.py",
           "    sigma[s] = 1\n", "    sigma[s] = 1.0\n",
           ("tests/test_apsp.py::test_inexact_flag_reads_the_exact_final_counts",)),
    Mutant("dist-to-v-float-tally", "edge_update.py",
           "    sig_hat = 0\n    for", "    sig_hat = 0.0\n    for",
           (VERTEX + "test_updates_past_two_to_the_53_equal_a_fresh_build",)),
    # DAGs share their edge tuples: one per edge and orientation from a
    # build, one per updated edge per phase from an update
    Mutant("build-fresh-dag-tuples", "apsp.py",
           "dag = set(map(edge.setdefault, fresh, fresh))", "dag = set(fresh)",
           ("tests/test_apsp.py::test_builds_share_one_tuple_per_edge_and_orientation",)),
    Mutant("rdags-tuple-per-root", "apsp.py",
           "rdags[x].add(edge)", "rdags[x].add((v, u))",
           ("tests/test_apsp.py::test_builds_share_one_tuple_per_edge_and_orientation",)),
    Mutant("update-edge-tuple-per-source", "edge_update.py",
           "h.add(edge)", "h.add((u, v))",
           ("tests/test_edge_update.py::test_updates_keep_one_tuple_per_edge",)),
    # the record reader both parsers share, and its weight errors' lines
    Mutant("records-yield-comments", "graph.py",
           "if fields and fields[0][0] != \"c\":", "if fields:",
           (GRAPH + "::test_parse_comments_and_blank_lines",
            "tests/test_cli.py::test_update_stream_parser_edge_and_vertex_events")),
    Mutant("weight-error-without-line", "graph.py",
           "        return parse_weight(token)\n    except GraphFormatError as exc:\n"
           "        _fail(lineno, str(exc))\n",
           "        return parse_weight(token)\n    except GraphFormatError:\n        raise\n",
           (GRAPH + "::test_parse_errors", "tests/test_cli.py::test_update_stream_parser_errors")),
    # earlier mutants from the project's history
    Mutant("with-updates-uncounted-insert", "graph.py",
           "            m += not old\n", "",
           (GRAPH + "::test_with_updates_patches_rows_like_a_fresh_graph",)),
    Mutant("plain-isdigit", "graph.py",
           "return token.isascii() and token.isdigit()", "return token.isdigit()",
           (GRAPH + "::test_parse_errors",)),
    Mutant("classify-shares-old-rows", "edge_update.py",
           "ndrow = new_dist[s] = drow[:]", "ndrow = new_dist[s] = drow",
           ("tests/test_edge_update.py",)),
    # the counting search both builders run: a tie adds the tail's count
    # and joins the predecessors, a strict improvement replaces both.  The
    # builders share the fault, so the tests hold it against independent
    # references: path enumeration, the DAG read off the distances, networkx
    Mutant("dijkstra-drops-tie-count", "apsp.py",
           "                sigma[v] += su\n", "",
           (APSP + "test_brandes_matches_enumeration", NETWORKX)),
    Mutant("dijkstra-improvement-keeps-stale-preds", "apsp.py",
           "                sigma[v] = su\n                preds[v] = [u]\n",
           "                sigma[v] = su\n                preds[v] = [*preds[v], u]\n",
           (APSP + "test_dijkstra_invariants_random", NETWORKX)),
    Mutant("dijkstra-improvement-keeps-stale-count", "apsp.py",
           "                sigma[v] = su\n", "                sigma[v] += su\n",
           (APSP + "test_brandes_matches_enumeration", NETWORKX)),
    # the cuts only static_bc makes: held against brandes_bc's whole rows
    Mutant("static-cut-strict", "apsp.py",
           "if wt + drow[x] >= w]", "if wt + drow[x] > w]",
           ("tests/test_apsp.py::test_static_equals_brandes_bitwise",)),
    # one builder for the engine, one oracle for the verifier: both builds
    # end in the same rule for what a state holds, full mode included
    Mutant("static-full-drops-rdags", "apsp.py",
           "if wt + drow[x] >= w]\n    return _built(g, mode,",
           "if wt + drow[x] >= w]\n    return _built(g, \"edge-fast\",",
           ("tests/test_apsp.py::test_static_equals_brandes_bitwise",)),
    Mutant("build-counts-no-reverse-edges", "apsp.py",
           "sum(map(len, dags)), sum(map(len, rdags or ())),",
           "sum(map(len, dags)), 0,",
           ("tests/test_apsp.py::test_static_equals_brandes_bitwise",)),
    Mutant("stream-builds-with-oracle", "cli.py",
           "state = static_bc(g, mode=args.mode)", "state = brandes_bc(g, mode=args.mode)",
           ("tests/test_cli.py::test_stream_verify_is_independent_of_the_builder",)),
    Mutant("keep-row-despite-reorder", "edge_update.py",
           "return sorted(succ, key=old_w.__getitem__) != sorted(succ, key=new_w.__getitem__)",
           "return False",
           (VERTEX + "test_distance_only_change_keeps_the_row_unless_successors_reorder",)),
    Mutant("reorder-against-sibling-old-weights", "edge_update.py",
           "return sorted(succ, key=old_w.__getitem__) != sorted(succ, key=new_w.__getitem__)",
           "return any(sorted(succ, key={**old_w, b: new_w[b]}.__getitem__)\n"
           "               != sorted(succ, key=old_w.__getitem__) for b in succ)",
           (VERTEX + "test_distance_only_change_keeps_the_row_unless_successors_reorder",)),
    Mutant("identity-only-row-reuse", "edge_update.py",
           "if sigma[s] == old.sigma[s] and dag == old.dags[s] and not any(",
           "if False and any(",
           (VERTEX + "test_unchanged_rows_keep_their_dags_and_reverse_dags",
            VERTEX + "test_accum_sources_counts_the_sources_whose_rows_changed")),
    Mutant("untraced-transpose", "edge_update.py",
           "map(vertex_update.transpose, (dist, sigma))",
           "map(lambda mat: [list(row) for row in zip(*mat)], (dist, sigma))",
           (VERTEX + "test_updates_call_the_traced_layer_boundaries",)),
    # the reversed graph's matrices a full state carries, and their check
    Mutant("mirror-skips-rsigma", "vertex_update.py",
           "srow[b] = fm.sigma[b][t]", "srow[b] = srow[b]",
           (VERTEX + "test_full_states_carry_the_reversed_graphs_matrices",)),
    Mutant("mirror-skips-rdist", "vertex_update.py",
           "if closer:", "if False:",
           (VERTEX + "test_full_states_carry_the_reversed_graphs_matrices",)),
    Mutant("oracle-ignores-mirror", "oracle.py",
           "if x.rdist is not None:", "if False:",
           ("tests/test_oracle.py::test_compare_states_reflexive_and_sensitive",)),
]


def apply(tree: Path, m: Mutant) -> None:
    path = tree / "src" / "dynbc" / m.file
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise ValueError(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")


def passes(tests, m: Mutant | None = None, show: bool = False) -> bool:
    """Whether ``tests`` pass on a copy of the tree with ``m`` applied."""
    with tempfile.TemporaryDirectory(prefix="dynbc-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if m is not None:
            apply(tree, m)
        out = None if show else subprocess.DEVNULL
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=tree, stdout=out, stderr=out)
        return proc.returncode == 0


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    # the unmutated tree must pass every chosen test, or a missing test id
    # or a broken checkout would read as a kill
    if not passes(dict.fromkeys(t for m in chosen for t in m.tests), show=True):
        print("the unmutated tree fails the mutants' tests", file=sys.stderr)
        return 2
    survivors = []
    for m in chosen:
        start = time.perf_counter()
        killed = not passes(m.tests, m)
        print(f"{'killed ' if killed else 'SURVIVED'} {m.name} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
