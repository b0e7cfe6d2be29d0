"""Speed probe: times a fixed chunk of interpreter work every 20 ms.

    python probe.py          # stop it by writing a line to its stdin

It shares a CPU with the benchmark's children, so each sample shows how
fast that CPU ran at that moment.  On exit it prints the samples as a JSON
list of [monotonic time, chunk seconds].
"""

import json
import select
import sys
import time


def chunk():
    d = {}
    for i in range(1500):
        k = (i % 97, i % 89, i % 7)
        d[k] = d.get(k, 0) + i
    return d


def main():
    samples = []
    while not select.select([sys.stdin], [], [], 0.02)[0]:
        t = time.monotonic()
        chunk()
        samples.append((t, time.monotonic() - t))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
