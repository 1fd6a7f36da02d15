"""The census of small setups: every submonoid of the maps of a 3-point set,
each with every base family its maps keep, up to relabelling the points.

A monoid M of maps {0, 1, 2} -> {0, 1, 2} (each map an image tuple, so f[i]
is the image of point i) is kept once per class under relabelling, as the
least of its relabellings.  Its base families are the down-closed families
of point sets (bit masks, with the empty set) that every map of M sends
into themselves, kept once per class under the relabellings that fix M.
`perfbench/specgen.py`'s `spec_text(monoid, family)` writes each pair as a
spec: one object, the monoid's maps as its morphisms and their action on
the three points as its carriers.

Run as a script, it prints the counts: 699 submonoids, 160 up to
relabelling, 1,098 setups.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

SPECGEN = Path(__file__).resolve().parent.parent / "perfbench" / "specgen.py"


def load_specgen():
    """A fresh instance of `perfbench/specgen.py`, a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_specgen", SPECGEN)
    specgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specgen)
    return specgen


_SG = load_specgen()
N = len(_SG.POINTS)
IDENTITY = _SG.IDENTITY
MAPS = list(itertools.product(range(N), repeat=N))
PERMS = list(itertools.permutations(range(N)))
compose = _SG._compose  # g after f, as image tuples
image = _SG._image  # the image under f of a point set, as a bit mask


def closure(gens) -> frozenset:
    """The submonoid that the maps `gens` generate."""
    return frozenset(_SG._closure(gens))


def submonoids() -> set[frozenset]:
    """Every submonoid: {id}, then each one found with one more map added,
    generated from the generators that reached it and that map.  Maps are
    numbered as in MAPS and a submonoid is a bit mask of them while it is
    searched for."""
    mul = [[MAPS.index(compose(g, f)) for f in MAPS] for g in MAPS]

    def close(gens) -> int:
        ident = MAPS.index(IDENTITY)
        elems, frontier = 1 << ident, [ident]
        while frontier:
            f = frontier.pop()
            for g in gens:
                h = mul[g][f]
                if not elems >> h & 1:
                    elems |= 1 << h
                    frontier.append(h)
        return elems

    found = {close(()): ()}
    frontier = list(found)
    while frontier:
        m = frontier.pop()
        for f in range(len(MAPS)):
            if not m >> f & 1:
                gens = (*found[m], f)
                n = close(gens)
                if n not in found:
                    found[n] = gens
                    frontier.append(n)
    return {frozenset(f for i, f in enumerate(MAPS) if m >> i & 1) for m in found}


def relabel(maps, p) -> tuple:
    """The maps with point i renamed p[i], sorted."""
    back = [p.index(i) for i in range(N)]
    return tuple(sorted(tuple(p[f[back[i]]] for i in range(N)) for f in maps))


def monoid_classes(monoids) -> list[tuple]:
    """The least relabelling of each monoid, once per class, sorted."""
    return sorted({min(relabel(m, p) for p in PERMS) for m in monoids})


def base_families(monoid) -> list[list[int]]:
    """Every down-closed family of point sets that the maps of `monoid` send
    into itself, once per class under the relabellings that fix the monoid,
    in the order of its bits."""
    fixing = [p for p in PERMS if relabel(monoid, p) == monoid]
    seen = set()
    out = []
    for bits in range(1, 1 << (1 << N), 2):
        family = [s for s in range(1 << N) if bits >> s & 1]
        if any(t not in family for s in family for t in range(1 << N) if t & s == t):
            continue
        if any(image(f, s) not in family for f in monoid for s in family):
            continue
        canon = min(tuple(sorted(image(p, s) for s in family)) for p in fixing)
        if canon not in seen:
            seen.add(canon)
            out.append(family)
    return out


def census(monoids=None) -> list[tuple[tuple, list[int]]]:
    """(monoid, base family) for each class of `monoids` (default: every
    submonoid), in the order of the classes, then of the families."""
    classes = monoid_classes(submonoids() if monoids is None else monoids)
    return [(m, family) for m in classes for family in base_families(m)]


def census_slice() -> list[tuple[tuple, list[int]]]:
    """The one-generator part of the census: monoids generated by one map."""
    return census({closure([f]) for f in MAPS})


if __name__ == "__main__":
    monoids = submonoids()
    print(len(monoids), len(monoid_classes(monoids)), len(census(monoids)))
