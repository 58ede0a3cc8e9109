"""Regenerate ``long_horizon_pool.json``: candidate long episodes sorted into length bands.

A governed episode under near-certain duplicate faults has a length set by
geometric waiting times, so two random picks can differ tenfold in cycles and
a hundredfold in cost. The ``long_horizon`` workload therefore draws one
episode per band from this pool, which keeps the length mix of every run the
same while the seed still changes which episodes run. Each band holds one
scenario, and the shortest and longest bands hold the same one, so
``cycle_cost_growth`` compares one scenario at two lengths. The bands are
narrow, within about 4% of their middle: an episode's cost grows faster than
its length, so in a wide band the seed's pick, not the program, would move
``long_horizon``'s figures. Lengths are a property
of the program's behaviour, which the suite digest pins; rerun this script
when that behaviour changes on purpose:

    python3 perfbench/make_pool.py
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cogloop.cognition import FaultConfig  # noqa: E402
from cogloop.loop import EpisodeStatus, run_episode  # noqa: E402
from cogloop.scenario import load_suite  # noqa: E402

# (band name, scenario, min cycles, max cycles); every band holds PER_BAND candidates.
BANDS = (
    ("short2", "trip36_gdansk", 100, 108),
    ("mid4", "trip19_darwin", 178, 192),
    ("upper4", "trip19_darwin", 298, 312),
    ("long2", "trip36_gdansk", 462, 478),
)
PER_BAND = 8
P_DUPLICATE = (0.99, 0.995)
MAX_TRIES = 6000


def main() -> int:
    scenarios = {s.name: s for s in load_suite(ROOT / "scenarios" / "suite50")}
    rng = random.Random("long_horizon_pool")
    bands = {name: [] for name, *_ in BANDS}
    seen = set()
    for _ in range(MAX_TRIES):
        open_bands = [b for b in BANDS if len(bands[b[0]]) < PER_BAND]
        if not open_bands:
            break
        scenario = scenarios[rng.choice(open_bands)[1]]
        seed = rng.choice(scenario.seeds)
        fault_seed = rng.randrange(10_000)
        p = rng.choice(P_DUPLICATE)
        if (scenario.name, seed, fault_seed, p) in seen:
            continue
        seen.add((scenario.name, seed, fault_seed, p))
        cap = max(b[3] for b in open_bands if b[1] == scenario.name)
        faults = FaultConfig(seed=fault_seed, p_duplicate=p)
        result = run_episode(scenario.episode_config(seed, faults=faults, max_cycles=cap))
        if result.status is not EpisodeStatus.COMPLETED:
            continue
        for name, band_scenario, low, high in open_bands:
            if band_scenario == scenario.name and low <= result.cycles_used <= high:
                bands[name].append([scenario.name, seed, fault_seed, p, result.cycles_used])
                print(name, bands[name][-1], flush=True)
    payload = {
        "bands": [
            {"name": name, "scenario": scenario, "min": low, "max": high,
             "candidates": bands[name]}
            for name, scenario, low, high in BANDS
        ]
    }
    short = [name for name, *_ in BANDS if len(bands[name]) < PER_BAND]
    if short:
        print(f"bands not filled after {MAX_TRIES} tries: {short}", file=sys.stderr)
        return 1
    (HERE / "long_horizon_pool.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
