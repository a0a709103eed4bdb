"""Fixed case lists of the four workloads, made from the benchmark seed.

A case is a JSON-ready dict. `--seed` selects one of POOL recorded input
sets (seed mod POOL), so every case that finished at the recording commit
has its output pinned in golden.json. Budgets are per case. The timed cases
all finish well inside their budget, so one that runs out is a failure.
The cliff cases (radius words from Mukai rank 8 up, bound-2 searches at
rho 8, 10, 12, 14 and 20) run only in the traced run, under CLIFF_BUDGET_S;
running out is what most of them do, and it is counted as over budget, never
dropped.
"""

from __future__ import annotations

import random

from gen import ns_gram, spherical_class, twist_word

POOL = 16
WORKLOADS = ("radius", "search", "sweep", "cli")

# Seconds per timed case: several times the slowest case of any input set.
BUDGET_S = {"radius": 3.0, "search": 5.0, "sweep": 10.0, "cli": 10.0}
# Seconds per cliff case; README.md has which ones run out at the seed.
CLIFF_BUDGET_S = 1.0
# Address-space cap per child process, in bytes.
MEMORY_CAP = 2 << 30

TOL = 1e-9
# (rho, twist counts, words per count) of the timed words. Word cost has a
# heavy tail that grows with rank: at rho = 4 and 3 twists the slowest of 24
# seeded words took 0.16 s, at rho = 6 already 1.1 s (and 3.2 s in one set).
RADIUS_WORDS = ((1, (3, 12, 30), 2), (2, (3, 12, 30), 2), (3, (3, 12), 3),
                (4, (3,), 4))
# (rho, twist counts) of the cliff words, one word each: from Mukai rank 8
# (rho = 6) up, some words take seconds; ranks 14 and 22 take far longer.
RADIUS_CLIFFS = ((6, (3, 12, 30)), (12, (3, 12, 30)), (20, (3, 12, 30)))
PHI_DS = (1, 5, 100)
# (rho, models per d): the rho = 6 phi_H block, of even cost, holds the
# median and the tail case.
PHI_MODELS = ((1, 1), (2, 1), (6, 14))
# A search builds and sorts the whole first shell of coefficient tuples,
# 3^(rho+1) - 1 of them, then scans it until a hit. Around O_X the hit comes
# early; around a seeded spherical class it may come late or never, and at
# rho = 8 that is 0.05 s against 3.5 s (full scan at bound 1) or more than
# 5 s (the second shell, at bound 2), decided by the class. So the timed
# searches at rho = 8 and 10 are around O_X only, at bound 1, and searches
# around spherical classes there are cliff cases.
# (rho, models, spherical classes per model) of the timed searches. The
# rho = 8 block holds the median and the tail case: at rho = 6 a search
# takes a few ms and its time is mostly noise.
SEARCH_MODELS = ((1, 1, 2), (2, 1, 2), (6, 1, 2), (8, 24, 0), (10, 2, 0))
SEARCH_BOUND = 1
# (rho, spherical classes) of the cliff models, one model each, searched at
# bound 2 around O_X and that many classes (6.9 s and 383 MB at rho = 12).
SEARCH_CLIFFS = ((8, 2), (10, 1), (12, 1), (14, 1), (20, 1))
CLIFF_SEARCH_BOUND = 2
GY_SPAN = 6_000
GY_BLOCKS = 30
EXT_TABLES = 8

# Found by scanning small models: every positive class in the bound-1 box
# has a square 2 v^2, so the answer comes from the N v + u perturbation.
FALLBACK_CASE = {"gram": [[2, 0, 0], [0, -4, 2], [0, 2, -2]],
                 "s": [-1, 0, 1, -1, 4], "bound": 1}
# The bound-3 box of this model holds no positive class at all: the search
# scans the full box and exits with SearchExhaustedError (CLI exit 4).
EXHAUSTED_CASE = {"gram": [[4, -6, -6], [-6, 4, 1], [-6, 1, -8]],
                  "s": [-2, 0, 5, -3, 0], "bound": 3}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}-{seed % POOL}")


def _gram(rho: int, d: int, rng) -> list[list[int]]:
    return [list(row) for row in ns_gram(rho, d, rng)]


def radius_cases(seed: int) -> list[dict]:
    rng = _rng("radius", seed)
    cases = []
    for rho, ks, words in RADIUS_WORDS:
        for k in ks:
            for w in range(words):
                cases.append(_word_case(rho, k, w, rng))
    for rho, copies in PHI_MODELS:
        for d in PHI_DS:
            for j in range(copies):
                cases.append({"id": f"phi-r{rho}-d{d}-{j}", "kind": "phi",
                              "gram": _gram(rho, d, rng), "d": d, "tol": TOL})
    return cases


def _word_case(rho, k, w, rng) -> dict:
    g = _gram(rho, rng.choice((1, 2, 3)), rng)
    return {"id": f"word-r{rho}-k{k}-{w}", "kind": "word", "gram": g,
            "word": twist_word(g, k, rng), "tol": TOL}


def radius_cliffs(seed: int) -> list[dict]:
    rng = _rng("radius-cliffs", seed)
    return [_word_case(rho, k, 0, rng) for rho, ks in RADIUS_CLIFFS for k in ks]


def _search_model(rho, i, classes, bound, rng) -> list[dict]:
    """Searches around O_X and `classes` seeded spherical classes of one model."""
    g = _gram(rho, rng.choice((1, 2, 3)), rng)
    ss = [(1,) + (0,) * rho + (1,)]
    ss += [spherical_class(g, rng) for _ in range(classes)]
    return [{"id": f"search-r{rho}-b{bound}-{i}-{j}", "kind": "search",
             "gram": g, "s": list(s), "bound": bound}
            for j, s in enumerate(ss)]


def search_cases(seed: int) -> list[dict]:
    rng = _rng("search", seed)
    cases = []
    for rho, models, classes in SEARCH_MODELS:
        for i in range(models):
            cases += _search_model(rho, i, classes, SEARCH_BOUND, rng)
    cases.append({"id": "search-fallback", "kind": "search", **FALLBACK_CASE})
    cases.append({"id": "search-exhausted", "kind": "search", **EXHAUSTED_CASE})
    return cases


def search_cliffs(seed: int) -> list[dict]:
    rng = _rng("search-cliffs", seed)
    return [c for rho, classes in SEARCH_CLIFFS
            for c in _search_model(rho, 0, classes, CLIFF_SEARCH_BOUND, rng)]


def _gy_cost(d: float) -> float:
    """Measured shape of gy_gap + radius_closed_form time per d, in us."""
    return 60 * d + 2.2 * d ** 1.5   # cumulative: integral of 60 + 3.3 sqrt(d)


def sweep_cases(seed: int) -> list[dict]:
    """gy_gap over d = d0 .. d0 + GY_SPAN - 1 in GY_BLOCKS blocks of equal
    cost, and EXT_TABLES Ext tables on a ladder of n_max.

    Equal-cost blocks make the lower part of the sorted case times one
    plateau, so the median and tail cases are blocks of like size whatever
    the seed; every Ext table costs more than a block.
    """
    rng = _rng("sweep", seed)
    d0 = 1 + rng.randrange(1000)
    lo, hi = _gy_cost(d0), _gy_cost(d0 + GY_SPAN)
    bounds = [d0]
    for b in range(1, GY_BLOCKS):
        target, a, z = lo + (hi - lo) * b / GY_BLOCKS, bounds[-1], d0 + GY_SPAN
        while z - a > 1:   # smallest d with cost(d) >= target
            mid = (a + z) // 2
            a, z = (mid, z) if _gy_cost(mid) < target else (a, mid)
        bounds.append(z)
    bounds.append(d0 + GY_SPAN)
    cases = [{"id": f"gy-{b}", "kind": "gy", "d_min": bounds[b],
              "d_max": bounds[b + 1] - 1} for b in range(GY_BLOCKS)]
    for b in range(EXT_TABLES):
        cases.append({"id": f"ext-{b}", "kind": "ext",
                      "d": rng.randint(1, 30), "i": rng.randint(1, 3),
                      "k": rng.randint(1, 3),
                      "n_max": 100 + 20 * b + rng.randrange(10)})
    return cases


def _vec_json(v) -> str:
    return '{"r":%d,"c":[%s],"m":%d}' % (v[0], ",".join(map(str, v[1:-1])), v[-1])


def _model_json(g) -> str:
    rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in g)
    return '{"picard_rank":%d,"ns_gram":[%s]}' % (len(g), rows)


def cli_cases(seed: int) -> list[dict]:
    """Three small calls of each subcommand on rank-1..3 inputs."""
    rng = _rng("cli", seed)
    cases = []
    for j in range(3):
        rho = j + 1
        d = rng.randint(1, 12)
        g = _gram(rho, d, rng)
        model = _model_json(g)
        s = spherical_class(g, rng)
        w = [rng.randint(-3, 3) for _ in range(rho + 2)]
        word = twist_word(g, 2, rng)
        phi = [[-d, 2 * d, -1], [-1, 1, 0], [-1, 0, 0]]
        a = rng.randint(1, 200)
        argvs = [
            ["lattice-check", model],
            ["pair", "--lattice", model, "--v", _vec_json(s), "--w", _vec_json(w)],
            ["twist", "--lattice", model, "--s", _vec_json(word[0])],
            ["phi-h", "--d", str(d)] + (["--full", "--lattice", model] if j else []),
            ["char-poly", "--matrix", str(phi)],
            ["spectral-radius", "--matrix", str(phi), "--tol", "1e-9"],
            ["gy-gap", "--d-min", str(a), "--d-max", str(a + 20)],
            ["entropy-curve", "--spherical-dim", str(rng.randint(1, 4)),
             "--complement", ("yes", "no", "unknown")[j],
             "--t-min=-1", "--t-max", "1", "--step", "1/4"],
            ["ext-recursion", "--d", str(d), "--i", str(rng.randint(1, 3)),
             "--k", str(rng.randint(1, 3)), "--n-max", str(rng.randint(5, 30))],
            ["complement-search", "--lattice", model, "--s", _vec_json(s),
             "--bound", "2"],
        ]
        for argv in argvs:
            cases.append({"id": f"cli-{argv[0]}-{j}", "kind": "cli",
                          "argv": argv})
    return cases


CASES = {"radius": radius_cases, "search": search_cases,
         "sweep": sweep_cases, "cli": cli_cases}
CLIFFS = {"radius": radius_cliffs, "search": search_cliffs}


def cliff_cases(workload: str, seed: int) -> list[dict]:
    """The workload's cliff cases; sweep and cli have none."""
    return CLIFFS[workload](seed) if workload in CLIFFS else []
