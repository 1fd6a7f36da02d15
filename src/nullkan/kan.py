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

`slice_comma` builds the textbook comma-shaped slices; only the
Kan-identity lemma checks use them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .comma import CommaCategory, build_comma, const_functor, terminal_category
from .fincat import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EngineError,
    FinCategory,
    FunctorData,
    ValidationReport,
    Violation,
    _violation,
    colimit,
    discrete_category,
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
# Slices.


def slice_comma(K: FunctorData, d: str, side: str) -> CommaCategory:
    """Textbook slice as a comma category over the terminal cospan leg."""
    star = terminal_category()
    anchor = const_functor(star, K.target, d, name=f"at[{d}]")
    if side == "left":
        return build_comma(K, anchor, f"({K.name}/{d})")
    if side == "right":
        return build_comma(anchor, K, f"({d}/{K.name})")
    raise EngineError(f"slice_comma: unknown side {side!r}")


def fibers(K: FunctorData) -> dict[str, list[str]]:
    """For each target object d, the source objects over d, in the
    source's declared order."""
    out: dict[str, list[str]] = {d: [] for d in K.target.objects}
    for x in K.source.objects:
        out[K.on_obj(x)].append(x)
    return out


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
    are given; deterministic order."""
    per_obj = {d: all_down_sets(target_carriers[d]) for d in target.objects}
    total = 1
    for fams in per_obj.values():
        total *= len(fams)
        if total > budget:
            raise BudgetExceeded(f"enumerate_assignments ({total}+ candidates)", budget)
    objs = list(target.objects)
    for combo in itertools.product(*(per_obj[d] for d in objs)):
        cand = {
            d: NullityStructure(target_carriers[d], masks)
            for d, masks in zip(objs, combo)
        }
        if target_transports is not None:
            ok = all(
                image_violation(
                    target_transports[m.name], cand[m.dom], cand[m.cod]
                )
                is None
                for m in target.morphisms
            )
            if not ok:
                continue
        yield cand


def check_universal(
    K: FunctorData,
    diag: NullityDiagram,
    candidate: KanResult,
    *,
    target_carriers: dict[str, FiniteSet],
    target_transports: dict[str, SetMap] | None = None,
    competitors=None,
    budget: int = DEFAULT_BUDGET,
    max_violations: int = 20,
) -> ValidationReport:
    """Check the candidate extension against every competitor.

    Left side: the unit F(x) <= cand(Kx) must exist, and every competitor H
    admitting a comparison F(x) <= H(Kx) must factor through the candidate
    (cand(d) <= H(d) for all d).  Right side dual.
    """
    side = candidate.side
    violations: list[Violation] = []
    checked = {"unit_components": 0, "competitors": 0}

    for x in K.source.objects:
        checked["unit_components"] += 1
        v, e = diag.values[x], candidate.extension[K.on_obj(x)]
        ok = v.masks <= e.masks if side == "left" else e.masks <= v.masks
        if not ok:
            violations.append(
                _violation(
                    "kan-unit-missing" if side == "left" else "kan-counit-missing",
                    object=x,
                )
            )

    if competitors is None:
        competitors = enumerate_assignments(
            K.target, target_carriers, target_transports, budget
        )
    for H in competitors:
        checked["competitors"] += 1
        if side == "left":
            admits = all(
                diag.values[x].masks <= H[K.on_obj(x)].masks for x in K.source.objects
            )
            factors = all(
                candidate.extension[d].masks <= H[d].masks for d in K.target.objects
            )
        else:
            admits = all(
                H[K.on_obj(x)].masks <= diag.values[x].masks for x in K.source.objects
            )
            factors = all(
                H[d].masks <= candidate.extension[d].masks for d in K.target.objects
            )
        if admits and not factors:
            bad = next(
                d
                for d in K.target.objects
                if not (
                    candidate.extension[d].masks <= H[d].masks
                    if side == "left"
                    else H[d].masks <= candidate.extension[d].masks
                )
            )
            violations.append(
                _violation(
                    "kan-not-universal",
                    object=bad,
                    competitor=H[bad].carrier.label(
                        min(
                            (H[bad].masks ^ candidate.extension[bad].masks),
                            default=0,
                        )
                    ),
                )
            )
        if len(violations) >= max_violations:
            break
    return ValidationReport(not violations, checked, violations[:max_violations])
