"""Every `phmid certify` command of a fixed grid, in one process.

    python3 bench/certify_grid.py --out grid.txt [--src DIR]

The grid is 10 graphs x 13 step sizes from 1e-7 to 1e308 x 5 cost
families x {closed-form check, `--search`}: 1300 commands. The families
are the (mu, L) bound at mu = 0.5, 1 and 1e-30 and the quadratic costs
`quadratic:1:5` and `quadratic:3:42`. Each command runs through
`phmid.cli.main`; its line in `--out` is a JSON list of the argv, the
exit code, the printed text and the message of a one-line exit (empty
when there is none). The sha256 of the file is printed last, so two
trees print the same digest exactly when every command prints the same.

`--src` is the `src` folder whose `phmid` is imported (default: this
tree's), so the same script compares a parent checkout with a change.
BLAS runs on one thread unless `OPENBLAS_NUM_THREADS` says otherwise:
a threaded eigen-solve of the 480 x 480 quadratic matrices on
`cycle:80` can print other last digits. numpy, the standard library and
`phmid` only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GRAPHS = ("cycle:4", "cycle:10", "cycle:80", "complete:5", "complete:12",
          "star:6", "star:20", "er:10:0.4:42", "er:20:0.3:1", "er:40:0.2:1")
TAUS = ("1e-07", "0.001", "0.1", "1.0", "3.0", "10.0", "1000.0", "30000.0",
        "40000.0", "100000000.0", "1e+155", "1e+200", "1e+308")
FAMILIES = (
    ["--m", "3", "--mu", "0.5", "--lipschitz", "3.0"],
    ["--m", "3", "--mu", "1.0", "--lipschitz", "3.0"],
    ["--m", "3", "--mu", "1e-30", "--lipschitz", "3.0"],
    ["--quadratic", "--cost", "quadratic:1:5"],
    ["--quadratic", "--cost", "quadratic:3:42"],
)


def commands():
    for graph in GRAPHS:
        for tau in TAUS:
            for family in FAMILIES:
                for search in ([], ["--search"]):
                    yield (["certify", "--graph", graph, "--tau", tau]
                           + family + search)


def run(main, argv):
    """(exit code, printed text, one-line exit message) of one command."""
    out = io.StringIO()
    message = ""
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            message = "" if isinstance(exc.code, int) else str(exc.code)
    return code, out.getvalue(), message


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="file that receives one line per command")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="folder holding the phmid package to run")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(args.src.resolve()))
    from phmid.cli import main as certify

    lines = [json.dumps([cmd, *run(certify, cmd)]) + "\n"
             for cmd in commands()]
    text = "".join(lines)
    args.out.write_text(text)
    print(f"{len(lines)} commands, sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
