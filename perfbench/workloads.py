"""The benchmark's workloads: the commands each one runs and the checks on their output.

The inputs are the paper's fixed instances, because the paper's facts are the
check. The seed only permutes the command order within `count` and `faces`.

A step is an argv list for `crosscut.cli.main`, except that a step starting
with "mobius" is a library call: mu(0^, 1^) of `FamilyLattice(kind, n)`, which
no CLI command computes.

Sizes are chosen so that one pass of each workload takes several seconds on a
2-core machine, which leaves room for several passes in one timed run:
- scan-h2 runs rows 1..90 (repeated complexes: 56 of the 90 are distinct)
  and the paper's row 143 on its own. Rows 91..142 are left out: on a 2-core
  2.1 GHz Xeon VM with Python 3.11 they took 64 s of the 70 s full sweep.
- count runs the alternating sums to n = 22 rather than the n = 24 guard.
- faces runs `maximal` at n = 19 and `homology` at n = 15.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

STATELESS = (
    "primitive",
    "coprime",
    "productfree",
    "coprimefree",
    "distinctpairproducts",
    "nodivisorofpairproduct",
    "divisibilitychain",
)
BFILES = {
    "primitive": "data/oeis/b051026.txt",
    "coprime": "data/oeis/b084422.txt",
    "productfree": "data/oeis/b326489.txt",
}
ALTSUM_N_TO = 22
MAXIMAL_N = 19
HOMOLOGY_N = 15
H2_FIRST = 143


def _altsum(family: list[str]) -> list[str]:
    return ["altsum", *family, "--n-from", "2", "--n-to", str(ALTSUM_N_TO)]


WORKLOADS: dict[str, list[list[str]]] = {
    "scan-h2": [
        ["scan-h2", "--n-from", "1", "--n-to", "90"],
        ["scan-h2", "--n-from", str(H2_FIRST), "--n-to", str(H2_FIRST)],
    ],
    "count": [_altsum(["--family", f]) for f in STATELESS]
    + [_altsum(["--family", "smultiple", "--s", s]) for s in ("2", "3")]
    + [["oeis-compare", "--family", f, "--bfile", path] for f, path in BFILES.items()]
    + [
        ["mobius", "--family", "primitive", "--n", "18"],
        ["mobius", "--family", "coprime", "--n", "22"],
    ],
    "faces": [
        ["maximal", "--family", "productfree", "--n", str(MAXIMAL_N)],
        ["maximal", "--family", "distinctpairproducts", "--n", str(MAXIMAL_N)],
        ["maximal", "--family", "smultiple", "--s", "3", "--n", str(MAXIMAL_N)],
    ]
    + [
        ["homology", "--family", "smultiple", "--s", s, "--n", str(HOMOLOGY_N), "--dmax", "3"]
        for s in ("2", "3")
    ],
}
SHUFFLED = frozenset(["count", "faces"])

# Spans the traced run must record at least once per pass, so that an import
# refactor cannot silently zero a layer metric.
EXPECTED_SPANS = {
    "scan-h2": (
        "cli.main",
        "complexes.coprime_free_collapsed",
        "cliques.maximal_cliques",
        "homology.reduced_homology",
        "complexes.faces_by_dimension",
    ),
    "count": (
        "cli.main",
        "families.count_triangle",
        "families.members",
        "lattice.FamilyLattice",
        "lattice.mobius",
    ),
    "faces": (
        "cli.main",
        "families.members",
        "families.maximal_members",
        "families.partition_components",
        "complexes.face_complex",
        "complexes.strong_collapse",
        "homology.reduced_homology",
        "complexes.faces_by_dimension",
    ),
}


def steps(workload: str, seed: int) -> list[list[str]]:
    """The workload's steps, in the order the seed gives."""
    out = [list(argv) for argv in WORKLOADS[workload]]
    if workload in SHUFFLED:
        random.Random(seed).shuffle(out)
    return out


def step_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text())


# --- paper facts, checked independently of the recorded digests -------------


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _table(out: str) -> tuple[list[list[str]], list[str]]:
    """CSV body rows (header dropped) and the '# ' comment lines."""
    lines = out.rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    comments = [line[2:] for line in lines if line.startswith("# ")]
    return rows, comments


def _check_scan(argv, out, _context) -> list[str]:
    lo, hi = int(_opt(argv, "--n-from")), int(_opt(argv, "--n-to"))
    rows, comments = _table(out)
    want = [[str(n), "1" if n == H2_FIRST else "0", "-"] for n in range(lo, hi + 1)]
    problems = [] if rows == want else [f"H~2 rows differ from 0,- below n={H2_FIRST} and 1,- at it"]
    if lo <= H2_FIRST <= hi:
        comment = f"first nontrivial H~2 at n={H2_FIRST}: rank 1, torsion -"
    else:
        comment = "no nontrivial H~2 in range"
    if comments != [comment]:
        problems.append(f"comment is {comments!r}, expected {comment!r}")
    return problems


def _stated_altsum(argv: list[str], n: int) -> int:
    """The paper's constant for the alternating sum at n >= 2."""
    family = _opt(argv, "--family")
    if family == "smultiple":
        s = int(_opt(argv, "--s"))
        return (-1) ** s * comb(n - 2, s - 1)
    return -1 if family == "primitive" else 0


def _check_altsum(argv, out, _context) -> list[str]:
    if _opt(argv, "--family") not in ("primitive", "coprime", "productfree", "smultiple"):
        return []  # no stated constant; the digest is the only check
    rows, comments = _table(out)
    bad = [r[0] for r in rows if int(r[1]) != _stated_altsum(argv, int(r[0])) or r[3] != "pass"]
    problems = [f"alternating sum off the stated constant at n={','.join(bad)}"] if bad else []
    if "verdict: pass" not in comments:
        problems.append("verdict is not pass")
    return problems


def _read_bfile(path: Path) -> dict[int, int]:
    entries = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            index, value = line.split()
            entries[int(index)] = int(value)
    return entries


def _check_oeis(argv, out, context) -> list[str]:
    filed = _read_bfile(context["root"] / _opt(argv, "--bfile"))
    rows, comments = _table(out)
    computed = {int(r[0]): int(r[1]) for r in rows}
    problems = [] if computed == filed else ["row sums differ from the b-file"]
    if "verdict: pass" not in comments:
        problems.append("verdict is not pass")
    return problems


def _check_mobius(argv, out, context) -> list[str]:
    """mu(0^, 1^) is the negated alternating sum of the same family at the same n."""
    family, n = _opt(argv, "--family"), int(_opt(argv, "--n"))
    mu = int(out.split()[0].removeprefix("mu="))
    for other, text in context["outputs"]:
        if other[0] == "altsum" and _opt(other, "--family") == family:
            sums = {int(r[0]): int(r[1]) for r in _table(text)[0]}
            if n in sums:
                return [] if mu == -sums[n] else [f"mu={mu}, but the alternating sum is {sums[n]}"]
    return [f"no altsum row for {family} at n={n} to compare with"]


def _check_maximal(argv, out, _context) -> list[str]:
    if _opt(argv, "--family") == "productfree" and "partition into m=1 classes" not in _table(out)[1]:
        return ["productfree maximal members do not partition into m=1 classes"]
    return []


def _check_homology(argv, out, _context) -> list[str]:
    """The s-multiple face complex has H~ = Z^C(n-2, s-1) in dimension s-1 only."""
    n, s, dmax = int(_opt(argv, "--n")), int(_opt(argv, "--s")), int(_opt(argv, "--dmax"))
    want = [[str(d), str(comb(n - 2, s - 1) if d == s - 1 else 0), "-"] for d in range(dmax + 1)]
    return [] if _table(out)[0] == want else [f"H~ differs from Z^C({n - 2},{s - 1}) in dimension {s - 1}"]


_FACTS = {
    "scan-h2": _check_scan,
    "altsum": _check_altsum,
    "oeis-compare": _check_oeis,
    "mobius": _check_mobius,
    "maximal": _check_maximal,
    "homology": _check_homology,
}


def check_pass(results: list[tuple[list[str], int, str]], digests: dict, root: Path) -> dict[str, list[str]]:
    """Problems per step key for one pass; a step passes when its list is empty.

    A step fails on a wrong exit code, on stdout that differs from the digest
    recorded at the seed commit, or on a wrong paper fact.
    """
    context = {"root": root, "outputs": [(argv, out) for argv, _code, out in results]}
    report = {}
    for argv, code, out in results:
        key = step_key(argv)
        want = digests.get(key)
        problems = []
        if want is None:
            problems.append("no recorded digest")
        else:
            if code != want["exit"]:
                problems.append(f"exit code {code}, expected {want['exit']}")
            if digest(out) != want["sha256"]:
                problems.append("stdout differs from the recorded digest")
        try:
            problems += _FACTS[argv[0]](argv, out, context)
        except (ValueError, IndexError) as exc:
            problems.append(f"unparseable output: {exc}")
        report[key] = problems
    return report
