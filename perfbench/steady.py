"""Check that the benchmark is steady: run one workload over several seeds.

    python3 perfbench/steady.py --workload scan --seeds 10 [--seconds S]
        [--save batch.json] [--against earlier.json]

Runs run.py once per seed (1..N) from the repository root, sequentially,
and prints for every end-to-end metric its values, median and quartile
spread, (Q3 - Q1) / median with quartiles from statistics.quantiles(n=4),
next to the metric's bound from BENCHMARK.json.  A spread above a third
of the bound is flagged.  With --against, each median is also compared
with the same metric's median in an earlier saved batch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    run_py = Path(__file__).resolve().parent / "run.py"
    values: dict[str, list[float]] = {}
    for seed in range(1, args.seeds + 1):
        done = subprocess.run(
            [sys.executable, str(run_py), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(f"seed {seed}: incorrect output ({last['failed']} failed)")
        for name, entry in last["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)

    earlier = {}
    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
        line = (f"{m['name']:16s} median {med:.5g} {m['unit']}  spread "
                f"{spread:.3f} (bound {m['bound']}){flag}")
        if m["name"] in earlier:
            old = statistics.median(earlier[m["name"]])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += f"  vs earlier: {worse:+.3f} worse"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
