"""Gate an A/B experiment on its recorded verdicts.

    python3 bench/ab_gate.py BENCH_<exp>.json PHASE=MIN [PHASE=MIN ...]

Each A/B experiment (attrab, telemab, scanview) writes one verdict per
phase into its artifact's "verdicts" key: the median over N pairs of
the per-pair on/off throughput ratio. Fails unless, for every PHASE
named, that median is at least MIN; prints every verdict either way.
"""
import json
import sys

path, bounds = sys.argv[1], sys.argv[2:]
with open(path) as fh:
    verdicts = {v["phase"]: v for v in json.load(fh).get("verdicts", [])}
failed = []
for arg in bounds:
    phase, bound = arg.split("=")
    v = verdicts.get(phase)
    if v is None:
        sys.exit(f"{path}: no verdict for phase {phase}")
    print(f"{phase} vs {v['off_phase']}: median on/off {v['median_ratio']:.3f} "
          f"(bound >= {bound}); on won {v['on_wins']}, off won {v['off_wins']} "
          f"of {v['pairs']} pairs")
    if v["median_ratio"] < float(bound):
        failed.append(phase)
if failed:
    sys.exit(f"{path}: below bound: {', '.join(failed)}")
