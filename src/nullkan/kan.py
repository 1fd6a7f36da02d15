"""Pointwise Kan extensions for nullity-valued diagrams.

Both extensions are computed per target object over the FIBER of that
object (the source objects that K sends onto it), as the join (left) or
meet (right) of the value families in the down-set lattice of the
object's carrier.  That is exactly the union / intersection optimization
the construction is built around.  With `cross_check=True` each join or
meet is replayed through the generic universal-cocone search of fincat
inside that lattice.  Empty fibers follow the lattice units: left
extensions give the trivial structure, right extensions the full power
set, on the target object's carrier.

The Kan-identity lemmas (restrict-source and after-composite, both
checked as the Kan square) build their textbook slices in `lemmas`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    DEFAULT_BUDGET,
    EngineError,
    FinCategory,
    FunctorData,
    ValidationReport,
    Violation,
    _Backtrack,
    _Meter,
    _violation,
    colimit,
    discrete_category,
    fibers,
    limit,
)
from .nullity import nullity_fiber_preorder
from .order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    all_down_sets,
    full_nullity,
    image_violation,
    intersect_all,
    trivial_nullity,
    union_all,
)


@dataclass
class NullityDiagram:
    """Per-object structures and per-morphism carrier transports."""

    source: FinCategory
    values: dict[str, NullityStructure]
    transport: dict[str, SetMap] | None = None

    def preservation_violations(self) -> list[Violation]:
        """Morphisms whose transport fails to send null sets to null sets."""
        if self.transport is None:
            return []
        out = []
        for m in self.source.morphisms:
            bad = image_violation(
                self.transport[m.name], self.values[m.dom], self.values[m.cod]
            )
            if bad is not None:
                out.append(
                    _violation(
                        "nullity-not-preserved",
                        morphism=m.name,
                        null_set=self.values[m.dom].carrier.label(bad),
                    )
                )
        return out


@dataclass
class KanResult:
    side: str
    extension: dict[str, NullityStructure]
    path: dict[str, str]
    slice_sizes: dict[str, int]
    comparison_ok: bool


# ---------------------------------------------------------------------------
# The fiber path.


def _lattice_check(
    carrier: FiniteSet,
    pieces: list[NullityStructure],
    expected: NullityStructure,
    side: str,
    budget: int,
) -> bool:
    """Replay the join/meet through the generic universal search."""
    lattice, fams = nullity_fiber_preorder(carrier)
    node_of = {masks: node for node, masks in fams.items()}
    idx = discrete_category(f"disc{len(pieces)}", [f"i{k}" for k in range(len(pieces))])
    diag = FunctorData(
        "fiber-values",
        idx,
        lattice,
        {f"i{k}": node_of[p.masks] for k, p in enumerate(pieces)},
        {idx.id_of(f"i{k}"): lattice.id_of(node_of[p.masks]) for k, p in enumerate(pieces)},
    )
    res = colimit(diag, budget) if side == "left" else limit(diag, budget)
    if res.cone is None:
        return False
    return fams[res.cone.tip] == expected.masks


def _kan_fiber(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    side: str,
    cross_check: bool,
    budget: int,
) -> KanResult:
    if not diag.source.same_table(K.source):
        raise EngineError("kan: diagram and K have different sources")
    extension: dict[str, NullityStructure] = {}
    path: dict[str, str] = {}
    sizes: dict[str, int] = {}
    comparison_ok = True

    for d, objs in fibers(K).items():
        carrier = target_carriers[d]
        pieces = []
        for x in objs:
            v = diag.values[x]
            if v.carrier != carrier:
                raise EngineError(
                    f"kan: value at {x} lives on {v.carrier.elements}, "
                    f"expected the carrier of {d}"
                )
            pieces.append(v)
        if side == "left":
            ext = union_all(carrier, pieces) if pieces else trivial_nullity(carrier)
        else:
            ext = intersect_all(carrier, pieces) if pieces else full_nullity(carrier)
        extension[d] = ext
        sizes[d] = len(pieces)
        path[d] = "fast"
        if cross_check:
            if not _lattice_check(carrier, pieces, ext, side, budget):
                comparison_ok = False
            path[d] = "fast+brute"
    return KanResult(side, extension, path, sizes, comparison_ok)


def left_kan(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    *,
    cross_check: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> KanResult:
    return _kan_fiber(K, diag, target_carriers, "left", cross_check, budget)


def right_kan(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    *,
    cross_check: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> KanResult:
    return _kan_fiber(K, diag, target_carriers, "right", cross_check, budget)


# ---------------------------------------------------------------------------
# Universality against competitors.


def enumerate_assignments(
    target: FinCategory,
    target_carriers: dict[str, FiniteSet],
    target_transports: dict[str, SetMap] | None,
    budget: int,
):
    """All per-object structures, filtered to functorial ones if transports
    are given; deterministic order.

    Depth-first over target objects; each structure tried is a step
    against `budget`, and each transport is checked once both its ends
    have a structure.
    """
    objs = target.objects
    per_obj = []
    for d in objs:
        c = target_carriers[d]
        per_obj.append([NullityStructure(c, masks) for masks in all_down_sets(c)])

    def preserved(cand, m):
        return image_violation(target_transports[m.name], cand[m.dom], cand[m.cod]) is None

    morphisms = [] if target_transports is None else target.morphisms
    search = _Backtrack(objs, (((m.dom, m.cod), m) for m in morphisms), preserved)
    for cand in search.run(per_obj.__getitem__, _Meter("enumerate_assignments", budget), {}):
        yield dict(cand)


def check_universal(
    K: FunctorData,
    diag: NullityDiagram,
    candidate: KanResult,
    *,
    target_carriers: dict[str, FiniteSet],
    target_transports: dict[str, SetMap] | None = None,
    budget: int = DEFAULT_BUDGET,
    max_violations: int = 20,
) -> ValidationReport:
    """Check the candidate extension against every competitor, that is,
    every assignment `enumerate_assignments` yields.

    Read with the order `below` (inclusion on the left side, reverse
    inclusion on the right): the unit F(x) below cand(Kx) must exist, and
    every competitor H admitting a comparison F(x) below H(Kx) must factor
    through the candidate (cand(d) below H(d) for all d).
    """
    side = candidate.side
    ext = candidate.extension

    def below(p: NullityStructure, q: NullityStructure) -> bool:
        return p.masks <= q.masks if side == "left" else q.masks <= p.masks

    violations: list[Violation] = []
    checked = {"unit_components": 0, "competitors": 0}

    for x in K.source.objects:
        checked["unit_components"] += 1
        if not below(diag.values[x], ext[K.on_obj(x)]):
            violations.append(
                _violation(
                    "kan-unit-missing" if side == "left" else "kan-counit-missing",
                    object=x,
                )
            )

    for H in enumerate_assignments(K.target, target_carriers, target_transports, budget):
        checked["competitors"] += 1
        admits = all(below(diag.values[x], H[K.on_obj(x)]) for x in K.source.objects)
        bad = next((d for d in K.target.objects if not below(ext[d], H[d])), None)
        if admits and bad is not None:
            violations.append(
                _violation(
                    "kan-not-universal",
                    object=bad,
                    competitor=H[bad].carrier.label(
                        min(H[bad].masks ^ ext[bad].masks, default=0)
                    ),
                )
            )
        if len(violations) >= max_violations:
            break
    return ValidationReport(not violations, checked, violations[:max_violations])
