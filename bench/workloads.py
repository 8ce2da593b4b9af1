"""Seeded input generators and independent oracles for the three workloads.

Nothing here imports seqcm: inputs are built as exponent dicts, rendered to
the problem-file syntax, and every expected answer is derived from those
dicts with the benchmark's own arithmetic (exact Fraction rank, minimal
vertex covers).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "corpus"

WORKLOADS = ("hypersurface-pq", "monomial-mixed", "cli-verify")


# ---- exponent-dict polynomials -------------------------------------------------


def _monomials(nvars: int, degree: int) -> list:
    """Exponent tuples of one total degree in ``nvars`` variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _bi_monomials(m: int, n: int, a: int, b: int) -> list:
    return [
        alpha + beta for alpha in _monomials(m, a) for beta in _monomials(n, b)
    ]


def _coeff(rng) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _random_form(rng, monos, density: float) -> dict:
    terms = {e: _coeff(rng) for e in monos if rng.random() < density}
    if not terms:
        terms[rng.choice(monos)] = _coeff(rng)
    return terms


def _multiply(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def render(terms: dict, m: int) -> str:
    """Problem-file text of an exponent dict over x1..xm, y1..yn."""
    chunks = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e:
                name = f"x{i + 1}" if i < m else f"y{i - m + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(chunks)


# ---- oracles ---------------------------------------------------------------------


def coefficient_rank(terms: dict, m: int) -> int:
    """Rank of the (x monomial) x (y monomial) coefficient matrix over QQ."""
    rows = sorted({e[:m] for e in terms})
    cols = sorted({e[m:] for e in terms})
    matrix = [
        [Fraction(terms.get(r + c, 0)) for c in cols] for r in rows
    ]
    rank = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(rank, len(rows)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(rows)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / matrix[rank][col]
                matrix[r] = [u - factor * v for u, v in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def monomial_cd(gens: list, m: int, n: int, block: str) -> int:
    """cd(block, S/I) of a monomial ideal by a minimal vertex cover.

    cd(Q, S/I) = dim S/(I + P): the x variables are killed, so only the
    generators supported on y alone constrain the y variables, and the
    dimension is n minus the smallest set of y variables meeting each of
    their supports.  P is the mirror image.
    """
    own = range(m, m + n) if block == "Q" else range(m)
    other = set(range(m + n)) - set(own)
    edges = [
        {i for i, e in enumerate(g) if e}
        for g in gens
        if not any(g[i] for i in other)
    ]
    size = len(own)
    for k in range(size + 1):
        for cover in itertools.combinations(own, k):
            if all(edge & set(cover) for edge in edges):
                return size - k
    raise AssertionError("unreachable: the full block covers every edge")


def level_problems(levels: list) -> list:
    """Structural checks on [(cd, grade, relative_cm), ...] of one verdict."""
    problems = []
    cds = [cd for cd, _, _ in levels]
    if any(c2 <= c1 for c1, c2 in zip(cds, cds[1:])):
        problems.append(f"level cds {cds} not strictly increasing")
    for cd, grade, rel in levels:
        if grade > cd:
            problems.append(f"grade {grade} > cd {cd}")
        if rel != (grade == cd):
            problems.append(f"relative_cm {rel} but grade {grade}, cd {cd}")
    return problems


def verdict_problems(case: dict, decision: bool, levels: list) -> list:
    """Every oracle that applies to one seqcm decision on ``case``."""
    problems = level_problems(levels)
    if decision != all(rel for _, _, rel in levels):
        problems.append("decision differs from 'all levels relative CM'")
    if "rank" in case and decision != (case["rank"] <= 1):
        problems.append(f"decision {decision} but coefficient rank {case['rank']}")
    if "cd" in case and levels and levels[-1][0] != case["cd"]:
        problems.append(f"top cd {levels[-1][0]} but vertex-cover cd {case['cd']}")
    if case["n"] == 1 and case["block"] == "Q" and not decision:
        problems.append("n = 1 with block Q must be sequentially CM")
    return problems


# ---- workload generators -----------------------------------------------------------
#
# A workload is an endless stream of cycles.  The ideal classes of every cycle
# come from one fixed class stream per workload, and each cycle visits every
# stratum of the workload once (ring sizes, bidegrees or generator counts,
# blocks), so any prefix of the stream has the same mix of cheap and costly
# classes.  ``--seed`` then relabels each cycle, with a fresh relabelling for
# each timed pass: it permutes the variables inside each block and flips the
# sign of each variable.  Relabelled inputs
# are different polynomials (the engine memoizes on their exact terms) but
# isomorphic problems with the same answers, so runs on different seeds do
# comparable work.  Single decisions on monomial-mixed take from a few
# milliseconds to a few seconds, so if the seed drew the classes, a handful of
# draws would decide a whole run.


_HYPER_STRATA = [
    (m, n, a, b, kind)
    for m in (2, 3)
    for n in (2, 3)
    for a in range(3)
    for b in range(3)
    if (a, b) != (0, 0)
    for kind in ("split", "random")
]


def _hyper_poly(rng, m, n, a, b, kind) -> dict:
    if kind == "split":
        h1 = _random_form(rng, [e + (0,) * n for e in _monomials(m, a)], 0.7)
        h2 = _random_form(rng, [(0,) * m + e for e in _monomials(n, b)], 0.7)
        return _multiply(h1, h2)
    monos = _bi_monomials(m, n, a, b)
    if kind == "monomial":
        return {rng.choice(monos): _coeff(rng)}
    return _random_form(rng, monos, 0.8 if kind == "dense" else 0.35)


def hypersurface_cycle(rng) -> list:
    """Principal cases in 2+2 to 3+3 variables, bidegree up to (2, 2).

    Split products and random forms come in equal numbers; a random form is
    dense, sparse or a single monomial, and bidegrees with a = 0 or b = 0
    give the one-sided cases.  Each f is decided for P and then for Q.
    """
    strata = list(_HYPER_STRATA)
    rng.shuffle(strata)
    cases = []
    for m, n, a, b, kind in strata:
        if kind == "random":
            kind = rng.choice(("dense", "sparse", "monomial"))
        polys = [_hyper_poly(rng, m, n, a, b, kind)]
        for block in ("P", "Q"):
            cases.append({"m": m, "n": n, "polys": polys, "block": block})
    return cases


_MONO_STRATA = [(size, ngens) for size in (3, 4) for ngens in range(1, 6)]


def _random_monomial(rng, nvars: int) -> dict:
    exps = [0] * nvars
    for _ in range(rng.randint(1, 3)):
        exps[rng.randrange(nvars)] += 1
    return {tuple(exps): 1}


def monomial_cycle(rng) -> list:
    """Monomial ideals in 3+3 and 4+4 variables, 1 to 5 generators of degree <= 3.

    Each ideal is decided for P and then for Q.
    """
    strata = list(_MONO_STRATA)
    rng.shuffle(strata)
    cases = []
    for size, ngens in strata:
        polys = [_random_monomial(rng, 2 * size) for _ in range(ngens)]
        for block in ("P", "Q"):
            cases.append({"m": size, "n": size, "polys": polys, "block": block})
    return cases


def _cli_principal(rng, block: str) -> dict:
    m, n = rng.choice(((2, 2), (2, 3), (3, 2)))
    a, b = rng.choice(((1, 1), (1, 2), (2, 1), (0, 2), (2, 0), (1, 0)))
    kind = rng.choice(("split", "dense", "sparse", "monomial"))
    return {
        "m": m, "n": n, "polys": [_hyper_poly(rng, m, n, a, b, kind)],
        "block": block, "commands": ("seqcm", "hypersurface"),
    }


def _cli_monomial(rng, block: str) -> dict:
    polys = [_random_monomial(rng, 6) for _ in range(rng.randint(2, 4))]
    return {"m": 3, "n": 3, "polys": polys, "block": block, "commands": ("seqcm",)}


def _cli_torsion(rng) -> dict:
    """Two or three generators in K[x1..xm, y1]: cd(Q) <= 1, the saturation route."""
    m = rng.choice((2, 3))
    polys = [
        _random_form(rng, _bi_monomials(m, 1, rng.randint(1, 2), rng.randint(1, 2)), 0.4)
        for _ in range(rng.randint(2, 3))
    ]
    return {"m": m, "n": 1, "polys": polys, "block": "Q", "commands": ("seqcm",)}


def cli_cycle(rng) -> list:
    """Generated problem files: principal, monomial, and n = 1 ideals."""
    cases = [_cli_principal(rng, block) for block in ("P", "Q", "P", "Q")]
    cases += [_cli_monomial(rng, block) for block in ("P", "Q", "P", "Q")]
    cases += [_cli_torsion(rng) for _ in range(4)]
    rng.shuffle(cases)
    return cases


def _relabel(case: dict, rng, cache: dict) -> dict:
    """Block-preserving variable permutation and sign flips, then the oracles.

    Cases that share one polynomial list (P and Q of one f) share the
    relabelling, so they stay one parsed ideal.
    """
    key = id(case["polys"])
    if key not in cache:
        m, n = case["m"], case["n"]
        xs, ys = list(range(m)), list(range(m, m + n))
        rng.shuffle(xs)
        rng.shuffle(ys)
        perm = xs + ys
        signs = [rng.choice((-1, 1)) for _ in perm]
        polys = []
        for terms in case["polys"]:
            moved = {}
            for exps, c in terms.items():
                new = [0] * (m + n)
                for i, e in enumerate(exps):
                    new[perm[i]] = e
                    c *= signs[i] ** e
                moved[tuple(new)] = c
            polys.append(moved)
        cache[key] = polys
    polys = cache[key]
    out = dict(case, polys=polys, gens=[render(t, case["m"]) for t in polys])
    if len(polys) == 1:
        out["rank"] = coefficient_rank(polys[0], case["m"])
        (a, b), = {(sum(e[: case["m"]]), sum(e[case["m"]:])) for e in polys[0]}
        out["bidegree"] = (a, b)
    if all(len(t) == 1 for t in polys):
        out["cd"] = monomial_cd([e for t in polys for e in t], case["m"], case["n"], case["block"])
    return out


def problem_text(case: dict) -> str:
    return (
        f"ring m={case['m']} n={case['n']} field=QQ\n"
        f"ideal {', '.join(case['gens'])}\n"
        f"options block={case['block']}\n"
    )


def corpus_jobs() -> list:
    """(command, path, wrt, manifest entry) for each expectation of the corpus."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    return [
        (
            entry["command"],
            str((CORPUS / entry["file"]).relative_to(REPO)),
            entry.get("wrt"),
            entry,
        )
        for entry in manifest
    ]


CYCLES = {
    "hypersurface-pq": hypersurface_cycle,
    "monomial-mixed": monomial_cycle,
    "cli-verify": cli_cycle,
}


def cycles(workload: str, seed: int, relabelling: int = 0):
    """Endless stream of relabelled cycles for one workload and seed.

    The classes are the same for every seed; the seed and the relabelling
    number pick the variable permutations and sign flips.
    """
    classes = random.Random(f"{workload}:classes")
    labels = random.Random(f"{workload}:{seed}:{relabelling}")
    make = CYCLES[workload]
    while True:
        cache: dict = {}
        yield [_relabel(case, labels, cache) for case in make(classes)]
