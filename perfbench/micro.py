"""Layer microbenchmarks, run in their own child during a traced run.

Microseconds per ``mul`` for each action kind and level, on pairs drawn
with the seed from enumerated groups, and closure elements per second for
the Sylow 2-subgroup S(1) (8192 central triples) from its generators.
Each figure is the median of several timed repetitions.
"""

from __future__ import annotations

import random
import statistics
import time

PAIRS = 20_000
REPEATS = 5
CLOSURE_REPEATS = 3


def _us_per_mul(group, rng: random.Random) -> float:
    elements = group.elements
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(PAIRS)]
    mul = group.action.mul
    clock = time.perf_counter
    times = []
    for _ in range(REPEATS):
        t0 = clock()
        for a, b in pairs:
            mul(a, b)
        times.append((clock() - t0) / PAIRS * 1e6)
    return statistics.median(times)


def run(seed: int) -> dict:
    from solweights import groups, solmodel, zoo

    rng = random.Random(seed)
    sources = {
        "perm": zoo.named_group("GL(4,2)"),
        "matrix_l0": zoo.sl2_group(0),
        "matrix_l1": zoo.sl2_group(1),
        "triple_l0": solmodel.build_sol_model(0).sylow,
        "triple_l1": solmodel.build_sol_model(1).sylow,
    }
    metrics = {f"groups.mul.us.{kind}": _us_per_mul(G, rng) for kind, G in sources.items()}

    S = sources["triple_l1"]
    rates = []
    for _ in range(CLOSURE_REPEATS):
        t0 = time.perf_counter()
        G = groups.FiniteGroup.generate(S.action, S.generators, cap=S.order + 1)
        rates.append(G.order / (time.perf_counter() - t0))
    metrics["groups.generate.elements_per_s"] = statistics.median(rates)
    return metrics
