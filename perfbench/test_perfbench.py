"""Tests for the benchmark's own arithmetic and a smoke run of every workload.

    python3 -m pytest -q perfbench

Run from the repository root.  The smoke runs use tiny inputs (--smoke)
and one second of measurement each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stats import percentile, quartile_spread, summarize, tail_permille, valid_name
from tracing import Tracer, patch_everywhere, traced, traced_generator, unpatch

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_with_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer = tr.open("outer")
    clock.now = 1.0
    a = tr.open("child")
    clock.now = 3.0
    grand = tr.open("grandchild")
    clock.now = 3.5
    tr.close(grand)
    tr.close(a)
    clock.now = 4.0
    b = tr.open("child")
    clock.now = 6.0
    tr.close(b, keep=False)
    clock.now = 10.0
    tr.close(outer)
    # outer covers 1.0-3.5 and 4.0-6.0 with children: 10 - 4.5
    assert tr.totals["outer"] == [1, 10.0, 5.5]
    assert tr.totals["child"] == [2, 4.5, 4.0]
    assert tr.totals["grandchild"] == [1, 0.5, 0.5]
    kept = {s["name"]: s for s in tr.span_records()}
    assert len(tr.span_records()) == 3
    assert kept["grandchild"]["parent"] == kept["child"]["id"]
    assert kept["child"]["parent"] == kept["outer"]["id"]
    assert kept["outer"]["self_s"] == 5.5


def test_spans_must_close_in_order():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_wrappers_patch_every_lookup_and_time_each_next():
    import types
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def gen(n):
        for i in range(n):
            clock.now += 1.0
            yield i

    def consumer(n):
        clock.now += 0.5
        return sum(mod_b.gen(n))

    mod_a = types.ModuleType("a")
    mod_b = types.ModuleType("b")
    mod_a.gen = mod_b.gen = gen
    undo = patch_everywhere([mod_a, mod_b], gen,
                            traced_generator(tr, gen, "gen", hot=True,
                                             per_item=lambda _: tr.count("items")))
    wrapped = traced(tr, consumer, "consumer")
    assert wrapped(3) == 3
    assert tr.counts["items"] == 3
    assert tr.totals["gen"][0] == 4          # three items and the final next()
    assert tr.totals["gen"][1] == 3.0
    assert tr.totals["consumer"] == [1, 3.5, 0.5]
    assert [s["name"] for s in tr.span_records()] == ["consumer"]
    tr.enabled = False
    assert wrapped(2) == 1 and tr.totals["consumer"][0] == 1
    unpatch(undo)
    assert mod_a.gen is gen and mod_b.gen is gen


def test_seen_counts_reuse():
    tr = Tracer()
    for key in [(3, 7), (3, 7), (5, 7), (3, 7)]:
        tr.seen("sieve", key)
    assert tr.counts == {"sieve.uses": 4, "sieve.reuses": 2}


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 500), (39, 500), (40, 750), (100, 900),
    (199, 900), (200, 950), (1000, 990), (9999, 990), (10000, 999)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_permille(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = [v for v in values if v > percentile(values, expected)]
        assert len(beyond) >= 10


def test_summary_and_spread():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"value": 2.0, "n": 3, "median": 2.0, "raw": [3.0, 1.0, 2.0]}
    s = summarize(range(1, 21))
    assert s["p50"] == 10 and s["n"] == 20
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("ntcore.chi_values.s", True), ("1/s", False),
    ("a b", False), ("_lead", False), ("", False), ("x" * 64, True),
    ("x" * 65, False), ("é", False)])
def test_metric_names(name, ok):
    assert valid_name(name) is ok


def test_benchmark_json_names_are_valid_and_unique():
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]])
    assert all(valid_name(n) for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


def test_plain_min_w_matches_the_kernel():
    import charpos
    from workloads import plain_min_w
    for q in [11, 19, 43, 163] + [int(q) for q in charpos.primes_in_range(20000, 20100, residue=3, modulus=4)]:
        assert plain_min_w(q) == charpos.margin_profile(q).min_w


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, check=False)
    assert done.returncode != 0 and done.stdout == ""
