"""``tests/paired.py`` on two copies of this tree: a few events of each
workload on a small graph, and a copy whose counters differ."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("edge-dense", "edge-sparse-insert", "vertex-mixed-full")


def _paired(parent, change):
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tests" / "paired.py"), "--parent", str(parent),
         "--change", str(change), "--workload", *WORKLOADS, "--seeds", "1",
         "--n", "16", "--events", "6"],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def _copy(tmp_path, name):
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_identical_trees_replay_to_equal_states(tmp_path):
    rc, lines, err = _paired(_copy(tmp_path, "a"), _copy(tmp_path, "b"))
    assert (rc, err) == (0, "")
    assert [line.split(" seed")[0] for line in lines] == list(WORKLOADS)
    for line in lines:
        assert line.startswith(tuple(f"{w} seed 1: 6 events; median change/parent "
                                     for w in WORKLOADS)), line
        assert line.endswith("; states equal, both equal a fresh build"), line


def test_a_change_in_the_counters_alone_fails(tmp_path):
    # dataclass equality fails across the two packages, so the states are
    # compared field by field; a counter that differs must still show
    change = _copy(tmp_path, "b")
    path = change / "src" / "dynbc" / "edge_update.py"
    text = path.read_text(encoding="utf-8")
    old = "counters.pairs_touched += g.n * g.n"
    assert text.count(old) == 1
    path.write_text(text.replace(old, "counters.pairs_touched += g.n"), encoding="utf-8")
    rc, lines, _ = _paired(_copy(tmp_path, "a"), change)
    assert rc == 1 and len(lines) == len(WORKLOADS)
    for line in lines:
        assert line.endswith("FAIL: states differ in ['counters', 'report'], "
                             "fresh build equal True (parent) True (change)"), line
