"""Seeded spec files for the `lift` workload.

Each spec is a one-object category whose morphisms are a monoid of
transformations of a three-point carrier, closed under composition, so it
is associative by construction and the action itself gives the carrier
maps.  It is wired by identity (base = inter = main), like
`specs/idempotent.spec`.  The base family is the down-closure of the
image-closure of a random family, so assumption A2 holds.  Every
generated monoid has 7 elements: one invocation then costs about as much
as one on an `injections_card_*` model, and peaks below it in memory, so
the seed moves the `lift` figures little.
"""

from __future__ import annotations

import random

POINTS = ("u", "v", "w")
MONOID_SIZE = 7
IDENTITY = tuple(range(len(POINTS)))


def _compose(g, f):
    """g after f, as image tuples."""
    return tuple(g[i] for i in f)


def _closure(gens):
    elems = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = _compose(g, f)
            if h not in elems:
                elems.add(h)
                frontier.append(h)
    return elems


def random_monoid(rng: random.Random) -> list[tuple[int, ...]]:
    """A transformation monoid on three points with MONOID_SIZE elements."""
    n = len(POINTS)
    while True:
        gens = []
        elems = {IDENTITY}
        while len(elems) < MONOID_SIZE:
            gens.append(tuple(rng.randrange(n) for _ in range(n)))
            elems = _closure(gens)
        if len(elems) == MONOID_SIZE:
            return sorted(elems)


def _image(f, mask):
    out = 0
    for i in range(len(POINTS)):
        if mask >> i & 1:
            out |= 1 << f[i]
    return out


def base_family(rng: random.Random, monoid) -> list[int]:
    """Down-closure of the image-closure of a random family of point sets."""
    n = len(POINTS)
    seeds = {rng.randrange(1 << n) for _ in range(rng.randint(1, 3))}
    fam = {_image(f, m) for f in monoid for m in seeds}
    down = {s for s in range(1 << n) if any(s & m == s for m in fam)}
    return sorted(down)


def _name(f):
    return "id:P0" if f == IDENTITY else "m" + "".join(map(str, f))


def spec_text(monoid, family) -> str:
    lines = ["version: 1", "", "category P", "  object P0"]
    lines += [f"  morphism {_name(f)} P0 P0" for f in monoid]
    lines.append("  identity P0 id:P0")
    for g in monoid:
        for f in monoid:
            if IDENTITY not in (g, f):
                lines.append(f"  compose {_name(g)} {_name(f)} {_name(_compose(g, f))}")
    lines += ["end", "", "functor idP P P", "  obj P0 P0"]
    lines += [f"  mor {_name(f)} {_name(f)}" for f in monoid if f != IDENTITY]
    lines += ["end", "", "carriers gam P", "  carrier P0 " + " ".join(POINTS)]
    for f in monoid:
        if f != IDENTITY:
            pairs = " ".join(f"{POINTS[i]}>{POINTS[j]}" for i, j in enumerate(f))
            lines.append(f"  map {_name(f)} {pairs}")
    lines += ["end", "", "nullity n0", "  carrier " + " ".join(POINTS)]
    for mask in family:
        lines.append(("  null " + " ".join(p for i, p in enumerate(POINTS) if mask >> i & 1)).rstrip())
    lines += ["end", "", "setup", "  base P", "  inter P", "  main P"]
    lines += ["  j2 idP", "  j1 idP", "  pi idP", "  gamma gam", "  basenull P0 n0", "end"]
    return "\n".join(lines) + "\n"


def generate(seed: int, count: int) -> list[str]:
    """`count` spec texts, determined by `seed` alone."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        monoid = random_monoid(rng)
        out.append(spec_text(monoid, base_family(rng, monoid)))
    return out
