"""Finite carriers, set maps, and down-closed families of null subsets.

A subset of a carrier is a bitmask over the carrier's declared element
order.  Families of subsets are frozensets of masks, and the family-level
operations (preimage tests, unions, intersections, downward closure) are
integer arithmetic, which keeps the exhaustive searches cheap and makes
serialization order-stable.  The last section is the one place that
checks and enumerates assignments of null families to objects.
"""

from __future__ import annotations

import itertools

from .fincat import EngineError, _Backtrack, _Frozen, _Meter


class FiniteSet(_Frozen):
    """Ordered carrier of distinct element ids."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[str, ...]):
        super().__init__(elements)
        if len(set(elements)) != len(elements):
            raise EngineError(f"carrier has duplicate elements: {elements}")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def index(self, elem: str) -> int:
        try:
            return self.elements.index(elem)
        except ValueError:
            raise EngineError(f"{elem!r} is not in carrier {self.elements}") from None

    def mask_of(self, elems) -> int:
        m = 0
        for e in elems:
            m |= 1 << self.index(e)
        return m

    def elems_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def label(self, mask: int) -> str:
        return "{" + ",".join(self.elems_of(mask)) + "}"

    def all_masks(self) -> range:
        return range(1 << len(self.elements))


class SetMap(_Frozen):
    """Map between carriers, stored as a codomain index per domain element."""

    __slots__ = ("dom", "cod", "images")

    def __init__(self, dom: FiniteSet, cod: FiniteSet, images: tuple[int, ...]):
        super().__init__(dom, cod, images)
        if len(images) != dom.size:
            raise EngineError("set map images do not cover the domain")
        if any(i < 0 or i >= cod.size for i in images):
            raise EngineError("set map image index out of range")

    @staticmethod
    def from_dict(dom: FiniteSet, cod: FiniteSet, table: dict[str, str]) -> "SetMap":
        missing = [e for e in dom.elements if e not in table]
        if missing:
            raise EngineError(f"set map table missing images for {missing}")
        return SetMap(dom, cod, tuple(cod.index(table[e]) for e in dom.elements))

    @staticmethod
    def identity(s: FiniteSet) -> "SetMap":
        return SetMap(s, s, tuple(range(s.size)))

    def apply(self, elem: str) -> str:
        return self.cod.elements[self.images[self.dom.index(elem)]]

    def image_mask(self, mask: int) -> int:
        out = 0
        for i, j in enumerate(self.images):
            if mask >> i & 1:
                out |= 1 << j
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i, j in enumerate(self.images):
            if mask >> j & 1:
                out |= 1 << i
        return out

    def then(self, other: "SetMap") -> "SetMap":
        """other after self."""
        if self.cod != other.dom:
            raise EngineError("set maps not composable")
        return SetMap(self.dom, other.cod, tuple(other.images[j] for j in self.images))

    def is_identity(self) -> bool:
        return self.dom == self.cod and self.images == tuple(range(self.dom.size))

    def as_dict(self) -> dict[str, str]:
        return {e: self.cod.elements[self.images[i]] for i, e in enumerate(self.dom.elements)}


def is_down_closed(masks: frozenset[int], n_bits: int) -> bool:
    """Closed under removing one element at a time, hence under all subsets."""
    for m in masks:
        for i in range(n_bits):
            if m >> i & 1 and (m & ~(1 << i)) not in masks:
                return False
    return True


class NullityStructure(_Frozen):
    """A down-closed family of null subsets of a carrier, containing the empty set."""

    __slots__ = ("carrier", "masks")

    def __init__(self, carrier: FiniteSet, masks: frozenset[int]):
        super().__init__(carrier, masks)
        full = self.carrier.full_mask
        for m in self.masks:
            if m & ~full:
                raise EngineError("null mask outside carrier")
        if 0 not in self.masks:
            raise EngineError("nullity structure must contain the empty set")
        if not is_down_closed(self.masks, self.carrier.size):
            bad = min(m for m in self.masks if any(
                m >> i & 1 and (m & ~(1 << i)) not in self.masks
                for i in range(self.carrier.size)
            ))
            raise EngineError(
                f"nullity family not down-closed at {self.carrier.label(bad)}"
            )

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def is_full(self) -> bool:
        return len(self.masks) == 1 << self.carrier.size

    def is_trivial(self) -> bool:
        return self.masks == frozenset({0})

    def sorted_labels(self) -> list[str]:
        return [self.carrier.label(m) for m in sorted(self.masks)]


def trivial_nullity(carrier: FiniteSet) -> NullityStructure:
    return NullityStructure(carrier, frozenset({0}))


def full_nullity(carrier: FiniteSet) -> NullityStructure:
    return NullityStructure(carrier, frozenset(carrier.all_masks()))


def proper_nullity(carrier: FiniteSet) -> NullityStructure:
    """Every subset except the whole carrier; illegal on an empty carrier."""
    if carrier.size == 0:
        raise EngineError("proper nullity needs a nonempty carrier")
    return NullityStructure(
        carrier, frozenset(m for m in carrier.all_masks() if m != carrier.full_mask)
    )


def cardinality_nullity(carrier: FiniteSet, k: int) -> NullityStructure:
    """Subsets of size at most k."""
    return NullityStructure(
        carrier, frozenset(m for m in carrier.all_masks() if bin(m).count("1") <= k)
    )


def down_closure(carrier: FiniteSet, masks) -> NullityStructure:
    """Smallest legal structure containing the given masks."""
    seen = {0}
    stack = list(masks)
    for m in stack:
        if m & ~carrier.full_mask:
            raise EngineError("mask outside carrier in down_closure")
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        for i in range(carrier.size):
            if m >> i & 1:
                stack.append(m & ~(1 << i))
    return NullityStructure(carrier, frozenset(seen))


def union_all(carrier: FiniteSet, structures) -> NullityStructure:
    """Union of a family; the empty family gives the trivial structure."""
    out = frozenset({0})
    for s in structures:
        if s.carrier != carrier:
            raise EngineError("union_all carrier mismatch")
        out |= s.masks
    return NullityStructure(carrier, out)


def intersect_all(carrier: FiniteSet, structures) -> NullityStructure:
    """Intersection of a family; the empty family gives the full power set."""
    out = None
    for s in structures:
        if s.carrier != carrier:
            raise EngineError("intersect_all carrier mismatch")
        out = s.masks if out is None else out & s.masks
    if out is None:
        return full_nullity(carrier)
    return NullityStructure(carrier, out)


def preimage_nullity(f: SetMap, n: NullityStructure) -> NullityStructure:
    """Structure on cod(f) of subsets whose preimage is null in dom(f)."""
    if n.carrier != f.dom:
        raise EngineError("preimage_nullity: structure does not live on dom(f)")
    masks = frozenset(
        s for s in f.cod.all_masks() if f.preimage_mask(s) in n.masks
    )
    return NullityStructure(f.cod, masks)


def pushforward_closure(f: SetMap, n: NullityStructure) -> NullityStructure:
    """Downward closure on cod(f) of the images of the null sets of dom(f)."""
    if n.carrier != f.dom:
        raise EngineError("pushforward_closure: structure does not live on dom(f)")
    return down_closure(f.cod, (f.image_mask(m) for m in n.masks))


def all_down_sets(carrier: FiniteSet, bound: int = 4) -> list[frozenset[int]]:
    """Every legal null family on the carrier, in deterministic order.

    Exhaustive over the power set of the power set, so the carrier is
    capped (2^2^4 = 65536 candidates is still fine, 2^2^5 is not).
    """
    n = carrier.size
    if n > bound:
        raise EngineError(f"all_down_sets: carrier size {n} exceeds bound {bound}")
    nonempty = [m for m in carrier.all_masks() if m != 0]
    out = []
    for extra in itertools.chain.from_iterable(
        itertools.combinations(nonempty, r) for r in range(len(nonempty) + 1)
    ):
        masks = frozenset({0, *extra})
        if is_down_closed(masks, n):
            out.append(masks)
    return sorted(out, key=lambda ms: (len(ms), sorted(ms)))


# ---------------------------------------------------------------------------
# Assignments: null masks per object, checked along transports (name,
# SetMap, dom, cod); preserving them all makes an assignment a functor.


def masks_on(carriers: dict[str, FiniteSet], assignment) -> dict[str, frozenset[int]]:
    """The assignment's masks per object, each checked to be on its carrier."""
    for x, c in carriers.items():
        if assignment[x].carrier != c:
            raise EngineError(f"assignment at {x} does not live on carrier {c.elements}")
    return {x: assignment[x].masks for x in carriers}


def preservation_witness(f: SetMap, dom: frozenset[int], cod: frozenset[int]) -> int | None:
    """The least null mask of `dom` that f sends outside `cod`, or None."""
    for m in sorted(dom):
        if f.image_mask(m) not in cod:
            return m
    return None


def failed_transports(assignment: dict[str, frozenset[int]], transports):
    """(name, witness mask) of each transport the assignment breaks, in order."""
    for name, f, dom, cod in transports:
        bad = preservation_witness(f, assignment[dom], assignment[cod])
        if bad is not None:
            yield name, bad


def enumerate_assignments(carriers: dict[str, FiniteSet], transports, budget: int):
    """Each assignment of `all_down_sets` families to the objects of
    `carriers` that preserves every transport, in product order; each
    family tried is a step against `budget`."""
    per_obj = [all_down_sets(c) for c in carriers.values()]

    def preserved(assign, t):
        return preservation_witness(t[1], assign[t[2]], assign[t[3]]) is None

    search = _Backtrack(list(carriers), (((t[2], t[3]), t) for t in transports), preserved)
    for assign in search.run(per_obj.__getitem__, _Meter("enumerate_assignments", budget), {}):
        yield dict(assign)
