"""Reference job: a fixed, valkit-free child of the same kind as a `vk` child.

    python3 bench/reference.py

It starts an interpreter, imports from the standard library, hash-joins two
tables of tuples and sums exact fractions: the kinds of work a `vk analyze`
child does, on inputs that never change. bench/run.py runs it between the
timed children and scales the gated times by its median run, so that drift
in the host's speed cancels out and only valkit's own speed moves them.
"""

from fractions import Fraction
import json


def main() -> None:
    left = [(i % 331, i % 7, i) for i in range(30000)]
    right: dict[int, list[tuple[int, int]]] = {}
    for j in range(30000):
        right.setdefault(j % 331, []).append((j % 5, j))
    joined = [(a, b, c, d) for a, b, c in left for d, _ in right[a][:2]]
    total = sum(Fraction(a + 1, b + 2) for a, b, _, _ in joined[:3000])
    print(json.dumps([len(joined), str(total)]))


if __name__ == "__main__":
    main()
