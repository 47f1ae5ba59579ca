"""Regenerate the survey outputs: count tables, alternating-sum reports, and
maximal-member/partition listings for every family, as byte-stable CSV files.
"""

import argparse
import sys
from pathlib import Path

from crosscut.cli import cmd_altsum, cmd_maximal, cmd_table
from crosscut.families import FAMILY_NAMES, kind_from_name

TABLE_CAPS = {"primitive": 17, "coprime": 17, "productfree": 12}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--n", type=int, default=14, help="table cap for the auxiliary families")
    parser.add_argument("--altsum-to", type=int, default=20)
    parser.add_argument("--s", type=int, nargs="*", default=[2, 3], help="smultiple bounds to survey")
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    kinds = [
        kind_from_name(name, s)
        for name in FAMILY_NAMES
        for s in ([None] if name != "smultiple" else args.s)
    ]
    for kind in kinds:
        stem = kind.label().replace("(s=", "_s").rstrip(")")
        n_max = TABLE_CAPS.get(kind.name, args.n)
        for command, result in (
            ("table", cmd_table(kind, n_max)),
            ("altsum", cmd_altsum(kind, 1, args.altsum_to)),
            ("maximal", cmd_maximal(kind, n_max)),
        ):
            code, text = result
            path = args.out_dir / f"{command}_{stem}.csv"
            path.write_text(text + "\n")
            status = "" if code == 0 else f"  (exit {code})"
            print(f"wrote {path}{status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
