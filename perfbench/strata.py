#!/usr/bin/env python3
"""Measure the soundness_eval generator's natural mix of cost strata.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/strata.py [SEEDS] [PER_SEED]

Draws PER_SEED (default 200) criterion-3 schema instances for each of the
seeds 0 .. SEEDS-1 (default 200) with the vendored generator, sorts them into
the strata SoundnessEval uses, and prints each stratum's count per 10000
instances below the 3^10 cut, with the share left out above it. These
counts are SoundnessEval.shares; re-measure them when the generator changes.
Takes about 10 s.
"""

from __future__ import annotations

import collections
import random
import sys

import gen
import workloads


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = int(argv[0]) if argv else 200
    per_seed = int(argv[1]) if len(argv) > 1 else 200
    counts = collections.Counter()
    for seed in range(seeds):
        rng = random.Random(seed)
        for _ in range(per_seed):
            _, (lhs, rhs) = gen.schema_instance(rng, gen.seeded_alphabet(rng))
            counts[workloads.SoundnessEval.stratum(lhs, rhs)] += 1
    total = seeds * per_seed
    above = counts.pop(None, 0)
    kept = total - above
    print(f"{total} instances, {above} ({above / total:.1%}) above 3^10 rows")
    for stratum in workloads.SoundnessEval.shares:
        if stratum in counts:
            print(f"{stratum:8s} {counts[stratum]:6d} "
                  f"{round(10000 * counts[stratum] / kept):6d} per 10000")
    return 0


if __name__ == "__main__":
    sys.exit(main())
