"""Write a random 32-point prod instance with 10-step entries.

    python tests/random_instance.py OUT.json [SEED]

Each entry above the diagonal has 10 steps, with jumps j/7 (j < 70) and
levels l/100 ending at 1; it is mirrored below the diagonal, and the
diagonal holds steps[(0,1)].  Most triangle checks fail, so
`ddquant validate --kind probmet OUT.json` writes a large report: about
6.9 MB at seed 1.
"""

import json
import random
import sys

POINTS = 32


def entry(rng: random.Random) -> str:
    jumps = sorted(rng.sample(range(70), 10))
    levels = sorted(rng.sample(range(1, 100), 9)) + [100]
    return "steps[" + ",".join(f"({j}/7,{v}/100)" for j, v in zip(jumps, levels)) + "]"


def instance(seed: int) -> dict:
    rng = random.Random(seed)
    dist = [["steps[(0,1)]"] * POINTS for _ in range(POINTS)]
    for i in range(POINTS):
        for j in range(i + 1, POINTS):
            dist[i][j] = dist[j][i] = entry(rng)
    return {"points": [f"p{i}" for i in range(POINTS)], "tnorm": "prod", "dist": dist}


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(instance(int(sys.argv[2]) if len(sys.argv) > 2 else 1), fh)
