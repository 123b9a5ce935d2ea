"""Valuation charts attached to primitive solutions.

For a primitive solution (a,b) of F(x,y) = h with p | h, let alpha_i be
a root maximizing t = v(a - alpha_i b) and gamma_j = alpha_j - alpha_i
the differences to the other roots.  The chart ledger records the
increasing depth sequence s_0 = 0 < s_1 < ... < s_m = t picking out the
distinct values of v(gamma_j) up to t, the sets of roots S_k at each
depth (the chosen root itself, gamma = 0, sits at the deepest level with
its own multiplicity), and the running totals

    u_k = sum_{j<=k} |S_j| s_j + sum_{j>k} |S_j| s_k

(weighted by multiplicities), which measure the power of the uniformizer
factored out of the form after rescaling the coordinate by p^{s_k}.  For
a genuine primitive solution the deepest total u_m equals w = v(h).

Valuations with a common denominator e (ramified splitting data) are
rescaled by e so that every chart entry is an integer, matching the
normalization in which the uniformizer of the splitting field has
valuation 1; w rescales to e*v_p(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from thuecc.padic import INF, SolutionValuationProfile, TrackedRoots, Val

SELF = -1  # member reference for the chosen root's own factor (gamma = 0)


class ChartError(ValueError):
    pass


class AmbiguousArgmax(ChartError):
    """Profile mode cannot identify the deepest root when the maximum
    valuation is attained more than once; use tracked mode."""


@dataclass(frozen=True)
class ChartMember:
    ref: int  # root index, or SELF for the chosen root
    value: int | float  # rescaled integer valuation of gamma; INF for SELF
    multiplicity: int


@dataclass(frozen=True)
class ChartData:
    root_index: int | None
    t: int
    s_seq: tuple[int, ...]
    levels: tuple[tuple[ChartMember, ...], ...]
    u_seq: tuple[int, ...]
    w: int
    rescale: int = 1

    def to_dict(self) -> dict:
        return {
            "root_index": self.root_index,
            "t": self.t,
            "s_seq": list(self.s_seq),
            "u_seq": list(self.u_seq),
            "w": self.w,
            "rescale": self.rescale,
            "levels": [
                [[m.ref, ("inf" if m.value == INF else m.value), m.multiplicity] for m in lv]
                for lv in self.levels
            ],
        }


def build_chart(
    t: int,
    gammas: list[tuple[int | float, int, int]],
    self_multiplicity: int,
    w: int,
    root_index: int | None = None,
    rescale: int = 1,
) -> ChartData:
    """Run the depth recursion on rescaled integer valuations.

    gammas lists (value, multiplicity, root_ref) for every root other
    than the chosen one; value is the integer valuation of the root
    difference (INF never occurs for distinct roots).  The chosen root
    contributes a member with gamma = 0 at the deepest level with
    multiplicity self_multiplicity.
    """
    if t < 0 or any(v != INF and v < 0 for v, _, _ in gammas):
        raise ChartError("valuations must be nonnegative after rescaling")
    if any(v != INF and v != int(v) for v, _, _ in gammas):
        raise ChartError("chart valuations must be integers; rescale first")
    s_seq = [0] + sorted({int(v) for v, _, _ in gammas if v != INF and 0 < v <= t})
    if s_seq[-1] != t:
        s_seq.append(t)
    m = len(s_seq) - 1
    levels: list[list[ChartMember]] = [[] for _ in s_seq]
    for v, mult, ref in gammas:
        if v >= s_seq[m]:
            levels[m].append(ChartMember(ref, v, mult))
        else:
            k = s_seq.index(int(v)) if v in s_seq else None
            if k is None or k == m:
                raise ChartError(f"gamma valuation {v} missed the depth sequence")
            levels[k].append(ChartMember(ref, v, mult))
    levels[m].append(ChartMember(SELF, INF, self_multiplicity))
    weights = [sum(mb.multiplicity for mb in lv) for lv in levels]
    u_seq = []
    for k in range(m + 1):
        u = sum(weights[j] * s_seq[j] for j in range(k + 1))
        u += sum(weights[j] for j in range(k + 1, m + 1)) * s_seq[k]
        u_seq.append(u)
    return ChartData(
        root_index=root_index,
        t=t,
        s_seq=tuple(s_seq),
        levels=tuple(tuple(lv) for lv in levels),
        u_seq=tuple(u_seq),
        w=w,
        rescale=rescale,
    )


def _common_rescale(values) -> int:
    den = 1
    for v in values:
        if v != INF:
            den = lcm(den, Fraction(v).denominator)
    return den


def chart_from_profile(profile: SolutionValuationProfile, w: Val) -> ChartData:
    """Chart of a solution from its valuation multiset alone.

    Requires the maximum t to be attained by exactly one entry: then
    every other root has v(a - alpha_j b) < t, which forces
    v(gamma_j) = v(a - alpha_j b), so the ledger is determined without
    root identities.  Fractional valuations are cleared by the common
    denominator.
    """
    if profile.t == INF:
        raise ChartError("profile has an exact rational root hit; not a solution")
    entries = list(profile.per_root)
    hits = [i for i, e in enumerate(entries) if e.value == profile.t]
    if len(hits) != 1:
        raise AmbiguousArgmax(
            f"maximum valuation attained {len(hits)} times; tracked mode required"
        )
    i0 = hits[0]
    raw = [e.value for e in entries] + [profile.t, w]
    e = _common_rescale(raw)
    gammas = [
        (int(ent.value * e), ent.multiplicity, ent.root_index if ent.root_index is not None else j)
        for j, ent in enumerate(entries)
        if j != i0
    ]
    return build_chart(
        t=int(profile.t * e),
        gammas=gammas,
        self_multiplicity=entries[i0].multiplicity,
        w=int(Fraction(w) * e),
        root_index=entries[i0].root_index,
        rescale=e,
    )


def chart_from_tracked(
    profile: SolutionValuationProfile, tracked: TrackedRoots, w: Val
) -> ChartData:
    """Chart of a solution with tracked root identities.

    Ties at the maximum are broken toward the smallest root index (the
    conjugate charts are isomorphic).  The chosen root must be a Z_p
    root (rational or lifted), which is automatic for a primitive
    solution when p | h.
    """
    if not profile.tracked or profile.argmax_index is None:
        raise ChartError("tracked profile required")
    if profile.t == INF:
        raise ChartError("profile has an exact root hit; not a solution")
    by_index = {r.index: r for r in tracked.roots}
    chosen = by_index[profile.argmax_index]
    if chosen.kind == "inert":
        raise ChartError("deepest root generates a residue extension; no chart")
    raw_gammas = []
    for r in tracked.roots:
        if r.index == chosen.index:
            continue
        raw_gammas.append((tracked.root_difference(r, chosen), r.multiplicity, r.index))
    e = _common_rescale([v for v, _, _ in raw_gammas] + [profile.t, w])
    gammas = [(int(v * e), mult, ref) for v, mult, ref in raw_gammas]
    return build_chart(
        t=int(profile.t * e),
        gammas=gammas,
        self_multiplicity=chosen.multiplicity,
        w=int(Fraction(w) * e),
        root_index=chosen.index,
        rescale=e,
    )


def verify_w_equals_um(chart: ChartData) -> bool:
    """Whether the deepest running total matches w = v(h); always true
    for charts built from genuine primitive solutions with p | h."""
    return chart.w == chart.u_seq[-1]


@dataclass(frozen=True)
class DepthReport:
    t_values: tuple[int, ...]
    passed: bool


def check_common_root_depth(profiles: list[SolutionValuationProfile]) -> DepthReport:
    """Solutions sharing the same deepest root must share the same depth.

    All profiles must be tracked, built from primitive solutions of one
    instance with p | h, and agree on the argmax root index.
    """
    if not profiles:
        raise ChartError("no profiles to compare")
    if any(not pr.tracked or pr.argmax_index is None for pr in profiles):
        raise ChartError("tracked profiles required")
    indices = {pr.argmax_index for pr in profiles}
    if len(indices) != 1:
        raise ChartError(f"profiles mix argmax roots {sorted(indices)}")
    ts = tuple(pr.t for pr in profiles)
    return DepthReport(t_values=ts, passed=len(set(ts)) == 1)
