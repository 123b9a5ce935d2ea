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

Charts are built from Hensel-tracked roots, whose valuations are
integers: each root lies in an unramified extension of Q_p.  An inert
member stands for all the conjugate roots of its factor, so it weighs
its multiplicity times the factor's degree, and the weights of the
levels sum to the number of finite roots counted with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from thuecc.padic import INF, SolutionValuationProfile, TrackedRoots, Val

SELF = -1  # member reference for the chosen root's own factor (gamma = 0)


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class ChartMember:
    ref: int  # root index, or SELF for the chosen root
    value: int | float  # integer valuation of gamma; INF for SELF
    multiplicity: int


@dataclass(frozen=True)
class ChartData:
    root_index: int
    t: int
    s_seq: tuple[int, ...]
    levels: tuple[tuple[ChartMember, ...], ...]
    u_seq: tuple[int, ...]
    w: int

    def to_dict(self) -> dict:
        return {
            "root_index": self.root_index,
            "t": self.t,
            "s_seq": list(self.s_seq),
            "u_seq": list(self.u_seq),
            "w": self.w,
            # tracked valuations are integers, so the ledger format's
            # scale factor for ramified valuations is always 1
            "rescale": 1,
            "levels": [
                [[m.ref, ("inf" if m.value == INF else m.value), m.multiplicity] for m in lv]
                for lv in self.levels
            ],
        }


def _integral(v: Val) -> int:
    if v == INF or Fraction(v).denominator != 1:
        raise ChartError(f"valuation {v} is not an integer")
    return int(v)


def build_chart(
    t: Val,
    gammas: list[tuple[Val, int, int]],
    self_multiplicity: int,
    w: Val,
    root_index: int,
) -> ChartData:
    """Run the depth recursion on integer valuations.

    gammas lists (value, multiplicity, root_ref) for every root other
    than the chosen one; value is the valuation of the root difference
    (INF never occurs for distinct roots).  t, w and the gammas must be
    integers; any other value raises ChartError.  The chosen root
    contributes a member with gamma = 0 at the deepest level with
    multiplicity self_multiplicity.
    """
    t = _integral(t)
    gammas = [(_integral(v), mult, ref) for v, mult, ref in gammas]
    if t < 0 or any(v < 0 for v, _, _ in gammas):
        raise ChartError("valuations must be nonnegative")
    s_seq = sorted({0, t} | {v for v, _, _ in gammas if v < t})
    m = len(s_seq) - 1
    levels: list[list[ChartMember]] = [[] for _ in s_seq]
    for v, mult, ref in gammas:
        levels[s_seq.index(min(v, t))].append(ChartMember(ref, v, mult))
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
        w=_integral(w),
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
    if profile.argmax_index is None:
        raise ChartError("tracked profile required")
    if profile.t == INF:
        raise ChartError("profile has an exact root hit; not a solution")
    i0 = profile.argmax_index
    chosen = tracked.roots[i0]
    if chosen.kind == "inert":
        raise ChartError("deepest root generates a residue extension; no chart")
    gammas = [
        (tracked.root_difference(r, chosen),
         r.multiplicity * (len(r.factor) - 1 if r.kind == "inert" else 1), j)
        for j, r in enumerate(tracked.roots)
        if j != i0
    ]
    return build_chart(profile.t, gammas, chosen.multiplicity, w, i0)


def verify_w_equals_um(chart: ChartData) -> bool:
    """Whether the deepest running total matches w = v(h); always true
    for charts built from genuine primitive solutions with p | h."""
    return chart.w == chart.u_seq[-1]


def check_common_root_depth(profiles: list[SolutionValuationProfile]) -> bool:
    """Whether solutions sharing the same deepest root share the same
    depth t, as they must.

    All profiles must be tracked, built from primitive solutions of one
    instance with p | h, and agree on the argmax root index.
    """
    if not profiles:
        raise ChartError("no profiles to compare")
    if any(pr.argmax_index is None for pr in profiles):
        raise ChartError("tracked profiles required")
    indices = {pr.argmax_index for pr in profiles}
    if len(indices) != 1:
        raise ChartError(f"profiles mix argmax roots {sorted(indices)}")
    return len({pr.t for pr in profiles}) == 1
