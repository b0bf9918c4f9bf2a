"""charpos benchmark: one command runs a workload, checks its outputs and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload scan|exact --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from the root of the repository: the program is imported from
src/ and the metric list comes from BENCHMARK.json.  Each run starts
fresh interpreters (perfbench/worker.py): one that sets up and then
measures, with SETUP_SAMPLES - 1 that only set up split before and after
it.  setup_s is the median, over all of them, of the time from starting
the interpreter to the first timed call.

A stage throughput is the work the stage completed over the whole run
divided by the seconds it took; the median, tail percentile and raw
values of the per-repetition rates are kept in the record.  On the
shared 2-core machine this was tuned on, other tenants make the same code
run up to 1.5x slower in stretches of 10-40 s, so the per-repetition
rates are bimodal and their median jumps between the two states from
run to run, while the run's total work over total time moves with the
share of slow time only.

With --trace 0 the last line of standard output carries the end-to-end
metrics, measured with tracing off.  With --trace 1 the worker measures
half the time untraced and half traced, and the last line carries the
per-layer metrics; tracing overhead is traced minus untraced repetition
time.  The full record, with machine facts and every repetition's raw
values, goes to perfbench/out/<workload>-seed<N>-trace<T>.json and the
spans of a traced run to perfbench/out/<workload>-seed<N>-spans.jsonl.
--smoke shrinks every input so that a run takes seconds; it is for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import summarize, valid_name

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170

def machine_facts(root: Path) -> dict:
    """nproc, CPU model and cache sizes, read-only from /proc and sysfs."""
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "machine": platform.machine(), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        facts["caches"][f"L{level}{'' if kind == 'Unified' else ' ' + kind}"] = size
    facts["git_commit"] = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            facts["git_commit"] = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def spawn(spec: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (start clock, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: worker did not finish in time")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {done.returncode}")
    return start, json.loads(done.stdout.strip().splitlines()[-1])


def stage_summary(reps: list[dict], stage: str) -> dict:
    """Per-repetition rates; "value" is the run's total work over its time."""
    work = sum(r[stage]["work"] for r in reps)
    seconds = sum(r[stage]["seconds"] for r in reps)
    return dict(summarize([r[stage]["work"] / r[stage]["seconds"] for r in reps]),
                value=work / seconds)


def end_to_end(setups: list[float], result: dict) -> dict:
    reps = result["untraced"]
    return {"setup_s": summarize(setups),
            "peak_rss_mb": summarize([result["peak_rss_mb"]]),
            "stage1_per_s": stage_summary(reps, "stage1"),
            "stage2_per_s": stage_summary(reps, "stage2")}


def per_layer(workload: str, result: dict) -> dict:
    traced, untraced = result["traced"], result["untraced"]
    out = {name: summarize([r["layers"][name] for r in traced])
           for name in traced[0]["layers"]}
    j1 = sum(r["stage1"]["seconds"] for r in untraced)
    j2 = sum(r["stage2"]["seconds"] for r in untraced)
    # Only scan runs one input at two job counts.
    out["verify.scan.j2_efficiency"] = summarize(
        [j1 / (2 * j2) if workload == "scan" else 0.0])
    plain = sum(r["wall_s"] for r in untraced) / len(untraced)
    extra = sum(r["wall_s"] for r in traced) / len(traced) - plain
    out["trace.overhead_s"] = summarize([extra])
    out["trace.overhead_share"] = summarize([extra / plain])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "charpos" / "__init__.py").is_file():
        print("perfbench: src/charpos not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S

    out_dir = root / "perfbench" / "out"
    tag = f"{args.workload}-seed{args.seed}"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spec = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "seconds": args.seconds, "trace": args.trace, "tmp": str(tmp),
            "spans_path": str(out_dir / f"{tag}-spans.jsonl"), "setup_only": True}
    extra = 1 if args.smoke else SETUP_SAMPLES - 1
    try:
        setups = []
        for i in range(extra):
            if i == extra // 2:
                start, result = spawn(dict(spec, setup_only=False), env, deadline)
                setups.append(result["ready"] - start)
            start, ready = spawn(spec, env, deadline)
            setups.append(ready["ready"] - start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    e2e = end_to_end(setups, result)
    layers = per_layer(args.workload, result) if args.trace else {}
    named = result["named"]
    checks = result["checks"]
    named["error_rate"] = {"value": checks["failed"] / checks["attempted"],
                           "unit": "ratio"}
    reported = layers if args.trace else e2e
    metrics = {}
    for m in listed:
        if not valid_name(m["name"]) or m["name"] not in reported:
            raise SystemExit(f"perfbench: metric {m['name']!r} was not measured")
        metrics[m["name"]] = {"value": reported[m["name"]]["value"], "unit": m["unit"]}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "machine": dict(machine_facts(root), **result["versions"]),
              "inputs": result["inputs"], "work_units": result["units"],
              "checks": checks, "named": named, "end_to_end": e2e,
              "per_layer": layers, "repetitions": {"untraced": result["untraced"],
                                                   "traced": result["traced"]}}
    path = out_dir / f"{tag}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={json.dumps(result['inputs'], sort_keys=True)}")
    print(f"  stage work units: {result['units'][0]}, {result['units'][1]}; "
          f"{len(result['untraced'])} untraced and {len(result['traced'])} "
          f"traced repetitions")
    for name, entry in named.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    for label in checks["failures"]:
        print(f"  FAILED CHECK: {label}")
    print(f"  record: {path.relative_to(root)}")
    print(json.dumps({"correct": checks["failed"] == 0,
                      "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
