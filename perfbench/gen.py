"""Seeded config generator for the benchmark workloads.

    python3 perfbench/gen.py --workload restart_cycle --seed 7 --out cfg.json

Parameters live in perfbench/workloads.json. The seed picks how a fixed
multiset of periods, durations and read sets is assigned to objects and
classes, plus the config's own `seed` (arrival streams and value walks).
It does not change how many objects, classes or updates a workload has, so
the cost of a workload stays close across seeds. Only `random.random()` is
drawn, so the output is the same on every Python 3 release.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _shuffle(rng: random.Random, items: list) -> list:
    """Fisher-Yates on rng.random() alone."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _spread(rng: random.Random, n: int, lo, hi, integer: bool = True) -> list:
    """n values evenly spaced over [lo, hi], in seeded order."""
    step = (hi - lo) / (n - 1) if n > 1 else 0
    values = [lo + i * step for i in range(n)]
    if integer:
        values = [int(round(v)) for v in values]
    else:
        values = [round(v, 3) for v in values]
    return _shuffle(rng, values)


def _config_seed(rng: random.Random) -> int:
    return int(rng.random() * (1 << 32))


def _restart_cycle(rng: random.Random, p: dict) -> dict:
    n = p["objects"]
    ids = [f"o{i:02d}" for i in range(n)]
    periods = _spread(rng, n, *p["period"])
    costs = _spread(rng, n, *p["cost"])
    order = _shuffle(rng, range(n))
    infeasible = [ids[i] for i in order[:p["infeasible_objects"]]]
    similarity = {ids[i] for i in order[len(infeasible):
                                        len(infeasible) + p["similarity_objects"]]}
    feasible = [oid for oid in ids if oid not in infeasible]
    objects = []
    for i, oid in enumerate(ids):
        vi = p["infeasible_vi"] if oid in infeasible else 2 * periods[i]
        if i % 2:
            process = {"kind": "randomwalk", "start": 0.0, "step_sigma": 0.5,
                       "seed": i}
        else:
            process = {"kind": "constant", "value": float(i)}
        policy = ({"kind": "similarity", "delta": p["similarity_delta"]}
                  if oid in similarity else {"kind": "periodic"})
        objects.append({"id": oid, "vi": vi, "period": periods[i],
                        "cost": costs[i], "process": process, "policy": policy})

    m = p["classes"]
    sizes = _spread(rng, m, *p["read_set"])
    slacks = _spread(rng, m, *p["deadline_slack"], integer=False)
    modes = _shuffle(rng, [p["retrieval_modes"][i % len(p["retrieval_modes"])]
                           for i in range(m)])
    # the first classes each read one infeasible object, the rest none
    cyclers = [oid for oid in infeasible
               for _ in range(p["readers_per_infeasible_object"])]
    retrievals = _spread(rng, m * p["read_set"][1], *p["retrieval"])
    analyses = _spread(rng, m * p["read_set"][1], *p["analysis"])
    txns = []
    for c in range(m):
        others = _shuffle(rng, feasible)
        read_set = others[:sizes[c]]
        if c < len(cyclers):
            read_set[int(rng.random() * len(read_set))] = cyclers[c]
        retrieval, analysis = {}, {}
        for oid in read_set:
            if oid in infeasible:
                retrieval[oid] = _spread(rng, 2, *p["infeasible_retrieval"])[0]
                analysis[oid] = _spread(rng, 2, *p["infeasible_analysis"])[0]
            else:
                retrieval[oid] = retrievals.pop()
                analysis[oid] = analyses.pop()
        work = sum(retrieval.values()) + sum(analysis.values())
        txns.append({
            "id": f"t{c:02d}", "read_set": read_set,
            "retrieval": retrieval, "analysis": analysis,
            "deadline": math.ceil(work * slacks[c]),
            "arrival": {"kind": "poisson",
                        "mean_gap": round(work * m / p["offered_load"])},
            "retrieval_mode": modes[c],
        })
    return {"objects": objects, "transactions": txns}


def _policy_fleet(rng: random.Random, p: dict) -> dict:
    n = p["objects"]
    ids = [f"o{i:03d}" for i in range(n)]
    periods = _spread(rng, n, *p["period"])
    sigmas = _spread(rng, n, *p["step_sigma"], integer=False)
    objects = [{"id": oid, "vi": 2 * periods[i], "period": periods[i],
                "cost": p["cost"],
                "process": {"kind": "randomwalk", "start": 0.0,
                            "step_sigma": sigmas[i], "seed": i},
                "policy": {"kind": "periodic"}}
               for i, oid in enumerate(ids)]
    m = p["classes"]
    sizes = _spread(rng, m, *p["read_set"])
    slacks = _spread(rng, m, *p["deadline_slack"], integer=False)
    gaps = _spread(rng, m, *p["mean_gap"])
    modes = [p["retrieval_modes"][c % len(p["retrieval_modes"])] for c in range(m)]
    txns = []
    for c in range(m):
        read_set = _shuffle(rng, ids)[:sizes[c]]
        analysis = dict(zip(read_set, _spread(rng, len(read_set), *p["analysis"])))
        work = sum(analysis.values())
        txns.append({
            "id": f"t{c}", "read_set": read_set,
            "retrieval": {oid: 0 for oid in read_set}, "analysis": analysis,
            "deadline": math.ceil(work * slacks[c]),
            "arrival": {"kind": "poisson", "mean_gap": gaps[c]},
            "retrieval_mode": modes[c],
        })
    return {"objects": objects, "transactions": txns}


_BUILDERS = {"restart_cycle": _restart_cycle, "policy_fleet": _policy_fleet}


def generate(workload: str, seed: int, spec: dict | None = None) -> dict:
    """The config document of `workload` for benchmark seed `seed`."""
    spec = spec or load_spec()
    params = spec["workloads"][workload]["params"]
    rng = random.Random(f"{workload}:{seed}")
    body = _BUILDERS[workload](rng, params)
    return {"name": workload, "horizon": params["horizon"],
            "mode": params["mode"], "enforce_admission": False,
            "seed": _config_seed(rng), **body}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="where to write the JSON config")
    args = parser.parse_args()
    doc = generate(args.workload, args.seed)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
