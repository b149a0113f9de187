"""Ishigami (a=7, b=0.1) as an external model speaking shapeff's line protocol.

Reads one line of three space-separated floats per request and answers one
float per line, flushing after each reply, until stdin closes.
"""

import math
import sys


def main() -> None:
    out = sys.stdout
    for line in sys.stdin:
        x1, x2, x3 = (float(v) for v in line.split())
        out.write(repr((1.0 + 0.1 * x3 ** 4) * math.sin(x1) + 7.0 * math.sin(x2) ** 2) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
