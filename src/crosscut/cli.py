"""Command-line front end: count tables, alternating-sum checks, homology
reports, the collapsed-complex H~2 scan, maximal-set listings, and OEIS b-file
comparison.

Exit codes: 0 success, 1 a checked verdict failed, 2 usage, guard, or parse
error; a reader closing stdout early is not an error. Output is byte-identical
across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from math import comb
from pathlib import Path
from typing import NamedTuple

from . import families
from .cliques import bits
from .complexes import coprime_free_collapsed, face_complex, strong_collapse
from .families import (
    ENUMERATION_GUARD,
    FAMILY_NAMES,
    FamilyKind,
    Partition,
    kind_from_name,
)
from .homology import reduced_homology

FORMATS = ("csv", "json", "tsv")
SCAN_LIMIT = 200


class OutputRecord(NamedTuple):
    """One command's deterministic output: a table plus trailing comment lines."""

    command: str
    parameters: tuple[tuple[str, str], ...]
    header: tuple[str, ...]
    rows: list[tuple]
    comments: tuple[str, ...] | list[str] = ()
    verdict: str | None = None
    json_payload: dict | None = None

    def render(self, fmt: str) -> str:
        if fmt == "json":
            body: dict = {
                "command": self.command,
                "parameters": dict(self.parameters),
            }
            if self.json_payload is not None:
                body["payload"] = self.json_payload
            else:
                body["header"] = list(self.header)
                body["rows"] = [list(row) for row in self.rows]
            if self.comments:
                body["comments"] = self.comments
            if self.verdict is not None:
                body["verdict"] = self.verdict
            return json.dumps(body, indent=2)
        if fmt not in ("csv", "tsv"):
            raise ValueError(f"unknown format {fmt!r}")
        sep = "," if fmt == "csv" else "\t"
        lines = [sep.join(self.header)]
        lines.extend(sep.join(str(cell) for cell in row) for row in self.rows)
        lines.extend(f"# {comment}" for comment in self.comments)
        if self.verdict is not None:
            lines.append(f"# verdict: {self.verdict}")
        return "\n".join(lines)


class BFileParseError(ValueError):
    """Raised on a malformed OEIS b-file."""


class BFile(NamedTuple):
    """Parsed b-file: sequence id plus (index, value) pairs, indices increasing."""

    id: str
    entries: tuple[tuple[int, int], ...]


def parse_bfile(path) -> BFile:
    """Read 'index value' lines; '#' comments and blank lines are skipped."""
    p = Path(path)
    name_match = re.fullmatch(r"b(\d+)\.txt", p.name)
    seq_id = f"A{name_match.group(1)}" if name_match else p.stem
    entries: list[tuple[int, int]] = []
    last: int | None = None
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"{p.name}:{lineno}: expected 'index value', got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"{p.name}:{lineno}: non-integer token in {raw!r}") from None
        if last is not None and idx <= last:
            raise BFileParseError(f"{p.name}:{lineno}: indices must be strictly increasing")
        last = idx
        entries.append((idx, val))
    return BFile(seq_id, tuple(entries))


def _torsion_cell(torsion: tuple[int, ...]) -> str:
    return "x".join(str(t) for t in torsion) if torsion else "-"


def cmd_table(
    kind: FamilyKind, n_max: int, fmt: str = "csv", guard: int = ENUMERATION_GUARD
) -> tuple[int, str]:
    """Count triangle as rows (n, k, count), JSON payload keyed by n."""
    tri = families.count_triangle(kind, n_max, guard)
    rows = [(n, k, tri.count(n, k)) for n in range(1, n_max + 1) for k in range(n + 1)]
    payload = {str(n): [tri.count(n, k) for k in range(n + 1)] for n in range(1, n_max + 1)}
    record = OutputRecord(
        "table",
        (("family", kind.label()), ("n_max", str(n_max))),
        ("n", "k", "count"),
        rows,
        json_payload=payload,
    )
    return 0, record.render(fmt)


def _alt_expected(kind: FamilyKind, n: int) -> int | None:
    """Stated alternating-sum constant, or None when only empirical evidence exists."""
    if kind.name in ("primitive", "smultiple"):
        s = 1 if kind.name == "primitive" else kind.s
        return (-1) ** s * comb(n - 2, s - 1) if n - 2 >= s - 1 else 0
    if kind.name == "coprime":
        return 0
    if kind.name == "productfree":
        return 0 if n >= 2 else None
    return None


def cmd_altsum(
    kind: FamilyKind,
    n_from: int,
    n_to: int,
    fmt: str = "csv",
    guard: int = ENUMERATION_GUARD,
) -> tuple[int, str]:
    """Alternating sums over k=0..n for each n in the range, with verdicts where
    a constant is claimed and an empirical stabilization report otherwise."""
    if not 1 <= n_from <= n_to:
        raise ValueError("need 1 <= --n-from <= --n-to")
    tri = families.count_triangle(kind, n_to, guard)
    ns = list(range(n_from, n_to + 1))
    sums = [tri.alternating_sum(n) for n in ns]
    rows: list[tuple] = []
    comments: list[str] = []
    verdict: str | None = None
    code = 0
    if _alt_expected(kind, 2) is None:  # no stated constant: report stabilization
        tail_value = sums[-1]
        start = len(sums)
        while start > 0 and sums[start - 1] == tail_value:
            start -= 1
        if len(sums) - start >= 2:
            for i, n in enumerate(ns):
                rows.append((n, sums[i], "", "stable" if i >= start else "pre-threshold"))
            comments.append(f"empirical stabilization at n={ns[start]}: value {tail_value}")
        else:
            rows.extend((n, sums[i], "", "observed") for i, n in enumerate(ns))
            comments.append("no stable tail in range")
    else:
        failures = 0
        for i, n in enumerate(ns):
            expected = _alt_expected(kind, n)
            if expected is None:
                rows.append((n, sums[i], "", "n/a"))
            elif sums[i] == expected:
                rows.append((n, sums[i], expected, "pass"))
            else:
                rows.append((n, sums[i], expected, "fail"))
                failures += 1
        verdict = "fail" if failures else "pass"
        code = 1 if failures else 0
        if failures:
            comments.append(f"{failures} of {len(ns)} rows disagree with the stated constant")
    record = OutputRecord(
        "altsum",
        (("family", kind.label()), ("n_from", str(n_from)), ("n_to", str(n_to))),
        ("n", "alt_sum", "expected", "status"),
        rows,
        comments,
        verdict,
    )
    return code, record.render(fmt)


def cmd_homology(
    kind: FamilyKind,
    n: int,
    d_max: int = 2,
    collapse: bool = True,
    fmt: str = "csv",
    guard: int = ENUMERATION_GUARD,
) -> tuple[int, str]:
    """Reduced homology of the family's face complex, collapsed by default; the
    coprime-free family uses the direct reduced model, past the guard to SCAN_LIMIT."""
    if d_max < 0:
        raise ValueError("need --dmax >= 0")
    if d_max.bit_length() > guard:  # d_max + 1 > 2^guard rows, refused before any is built
        raise families.EnumerationGuardError(f"--dmax {d_max} asks for {d_max + 1} rows, over 2^{guard}")
    if kind == families.COPRIME_FREE and collapse:
        if n > SCAN_LIMIT:
            raise ValueError(f"coprime-free homology limited to n <= {SCAN_LIMIT}")
        c = coprime_free_collapsed(n)
    else:
        c = face_complex(kind, n, guard)
        if collapse:
            c = strong_collapse(c)
    rows = [
        (d, g.rank, _torsion_cell(g.torsion))
        for d, g in enumerate(reduced_homology(c, d_max))
    ]
    record = OutputRecord(
        "homology",
        (
            ("family", kind.label()),
            ("n", str(n)),
            ("d_max", str(d_max)),
            ("collapse", str(collapse).lower()),
        ),
        ("d", "rank", "torsion"),
        rows,
        [f"complex has {len(c.vertices)} vertices and {len(c.facets)} facets"],
    )
    return 0, record.render(fmt)


def cmd_scan_h2(n_from: int, n_to: int, fmt: str = "csv") -> tuple[int, str]:
    """H~2 of the reduced pairwise-non-coprime complex for each n in the range,
    flagging the first n where the group is nontrivial. Consecutive rows whose
    models differ only in isolated vertices share one elimination."""
    if not 1 <= n_from <= n_to:
        raise ValueError("need 1 <= --n-from <= --n-to")
    if n_to > SCAN_LIMIT:
        raise ValueError(f"scan limited to n <= {SCAN_LIMIT}")
    rows: list[tuple] = []
    first: tuple | None = None
    linked = None
    for n in range(n_from, n_to + 1):
        c = coprime_free_collapsed(n)
        # isolated vertices (1 and the primes in (n/2, n]) change only H~0, so a
        # row whose facets of two or more vertices match the previous row's
        # has the previous row's H~2
        if (row_linked := [f for f in c.facets if f & f - 1]) != linked:
            linked, group = row_linked, reduced_homology(c, 2)[2]
        cell = _torsion_cell(group.torsion)
        rows.append((n, group.rank, cell))
        if first is None and (group.rank or group.torsion):
            first = (n, group.rank, cell)
    if first is None:
        comments = ["no nontrivial H~2 in range"]
    else:
        comments = [f"first nontrivial H~2 at n={first[0]}: rank {first[1]}, torsion {first[2]}"]
    record = OutputRecord(
        "scan-h2",
        (("n_from", str(n_from)), ("n_to", str(n_to))),
        ("n", "rank", "torsion"),
        rows,
        comments,
    )
    return 0, record.render(fmt)


def _elements(mask: int) -> str:
    return " ".join(map(str, bits(mask)))


def cmd_maximal(
    kind: FamilyKind, n: int, fmt: str = "csv", guard: int = ENUMERATION_GUARD
) -> tuple[int, str]:
    """List the maximal members and report the intersection-component partition
    or its failure witness."""
    outcome = families.partition_components(kind, n, guard)
    rows = [(i, s.bit_count(), _elements(s)) for i, s in enumerate(outcome.maximal)]
    if isinstance(outcome, Partition):
        index = {s: i for i, s in enumerate(outcome.maximal)}
        comments = [f"partition into m={outcome.m} classes"]
        for i, cls in enumerate(outcome.classes):
            indices = " ".join(str(index[s]) for s in cls)
            comments.append(f"class {i}: coatoms {indices}")
    else:
        members = ", ".join("{" + _elements(s) + "}" for s in outcome.component)
        comments = [f"no partition: component [{members}] has empty total intersection"]
        if outcome.pair is not None:
            a, b = outcome.pair
            comments.append(f"disjoint witness pair: {{{_elements(a)}}} and {{{_elements(b)}}}")
    record = OutputRecord(
        "maximal",
        (("family", kind.label()), ("n", str(n))),
        ("index", "size", "elements"),
        rows,
        comments,
    )
    return 0, record.render(fmt)


def cmd_oeis_compare(
    kind: FamilyKind, bfile_path, fmt: str = "csv", guard: int = ENUMERATION_GUARD
) -> tuple[int, str]:
    """Compare family row sums against a local b-file over the overlapping range."""
    bfile = parse_bfile(bfile_path)
    overlap = [(i, v) for i, v in bfile.entries if 1 <= i <= guard]
    n_cap = overlap[-1][0] if overlap else 0
    rows: list[tuple] = []
    mismatches = 0
    if overlap:
        tri = families.count_triangle(kind, n_cap, guard)
        for i, filed in overlap:
            computed = tri.row_sum(i)
            status = "pass" if computed == filed else "fail"
            mismatches += status == "fail"
            rows.append((i, computed, filed, status))
        comments = [f"checked {len(overlap)} rows against {bfile.id}"]
    else:
        comments = [f"no overlapping indices with {bfile.id}"]
    record = OutputRecord(
        "oeis-compare",
        (("family", kind.label()), ("bfile", Path(bfile_path).name)),
        ("n", "computed", "filed", "status"),
        rows,
        comments,
        "fail" if mismatches else "pass",
    )
    return (1 if mismatches else 0), record.render(fmt)


@cache  # built on the first main call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="csv")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    common.add_argument(
        "--guard-override",
        type=int,
        default=None,
        metavar="N",
        help="raise the 2^n enumeration cap to 2^N (prints a warning)",
    )

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=FAMILY_NAMES, required=True)
    family.add_argument("--s", type=int, default=None, help="bound for the smultiple family")

    parser = argparse.ArgumentParser(prog="crosscut")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common, family])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=lambda a, kind, guard: cmd_table(kind, a.n, a.format, guard))

    p = sub.add_parser("altsum", parents=[common, family])
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.set_defaults(run=lambda a, kind, guard: cmd_altsum(kind, a.n_from, a.n_to, a.format, guard))

    p = sub.add_parser("homology", parents=[common, family])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmax", type=int, default=2)
    p.add_argument("--collapse", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(
        run=lambda a, kind, guard: cmd_homology(kind, a.n, a.dmax, a.collapse, a.format, guard)
    )

    p = sub.add_parser("scan-h2", parents=[common])
    p.add_argument("--n-from", type=int, default=1)
    p.add_argument("--n-to", type=int, required=True)
    p.set_defaults(run=lambda a, kind, guard: cmd_scan_h2(a.n_from, a.n_to, a.format))

    p = sub.add_parser("maximal", parents=[common, family])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=lambda a, kind, guard: cmd_maximal(kind, a.n, a.format, guard))

    p = sub.add_parser("oeis-compare", parents=[common, family])
    p.add_argument("--bfile", required=True)
    p.set_defaults(run=lambda a, kind, guard: cmd_oeis_compare(kind, a.bfile, a.format, guard))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.guard_override is not None and args.guard_override < 1:
            parser.error(f"--guard-override needs N >= 1, got {args.guard_override}")
    except SystemExit as exc:
        return int(exc.code or 0)
    guard = ENUMERATION_GUARD
    if args.guard_override is not None:
        guard = args.guard_override
        moved = "raised" if guard >= ENUMERATION_GUARD else "lowered"
        print(f"warning: enumeration guard {moved} to 2^{guard}", file=sys.stderr)
    try:
        kind = kind_from_name(args.family, args.s) if "family" in args else None
        code, text = args.run(args, kind, guard)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; send the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
