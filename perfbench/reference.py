"""A fixed, stdlib-only re-serializer that the benchmark times as its speed
reference.

    python3 perfbench/reference.py INPUT.csv OUTPUT.csv

It reads a CSV with the csv module, converts every field to an integer, a
float or a string the way a hand-rolled reader would, and writes it back.
It never imports rowstream, so its speed changes only with the machine's.
The timed run runs it once per round between rowstream's commands and
reports rowstream's speed relative to it, which cancels most of the swings
in speed of a shared machine.
"""

import csv
import sys


def convert(field: str) -> str:
    if field in ("", "NA"):
        return "NA"
    try:
        return "%d" % int(field)
    except ValueError:
        pass
    try:
        return repr(float(field))
    except ValueError:
        return field


def main(src: str, dst: str) -> None:
    with open(src, newline="") as inp, open(dst, "w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        for row in csv.reader(inp):
            writer.writerow([convert(field) for field in row])


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
