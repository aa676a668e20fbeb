"""Net collections, transvection ideals, canonical sublattices, and the
closed objects of the lattice/subgroup correspondence.

The central objects: for a subgroup F containing the frame stabiliser, the
transvection ideals sigma_ij(F) join every x realised by a transvection of F
moving atom i into atom j; the canonical sublattice K(F) is generated by
bottom and the row joins of sigma.  Net collections axiomatise exactly the
sigma matrices that arise this way, and their fixers/fixed sublattices
exhaust the closed objects on both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .groups import (
    Subgroup,
    conjugation_closure_check,
    coset_closure,
    coset_fix_mask,
    coset_image,
    coset_labels,
    fixer,
    galois_psi,
    generating_subset,
    instance_cache,
    is_normal_in,
    normalizes,
    right_cosets,
    same_transvections,
    transvection_table,
)
from .lattice import SublatticeHandle
from .rings import distinct

class NetCollection:
    """Square array of lattice elements tau[i][j] <= e_j with full diagonal,
    entries from the stabiliser-fixed sublattice."""

    def __init__(self, instance, tau, check=True):
        self.instance = instance
        self.tau = np.asarray(tau, dtype=np.int64)
        n = instance.n
        if self.tau.shape != (n, n):
            raise InputError(f"net collection must be {n}x{n}")
        if check:
            bad = self.clause_violation()
            if bad is not None:
                raise InputError(f"net collection violates clause {bad[0]} at {bad[1]}")

    def clause_violation(self):
        """First failing structural clause as (clause_number, (i, j)), else None."""
        inst = self.instance
        lat = inst.lattice
        l0p = set(inst.l0_prime().members)
        for i in range(inst.n):
            if int(self.tau[i, i]) != inst.atoms[i]:
                return (2, (i, i))
            for j in range(inst.n):
                if not lat.leq(int(self.tau[i, j]), inst.atoms[j]):
                    return (1, (i, j))
                if int(self.tau[i, j]) not in l0p:
                    return (3, (i, j))
        return None

    def __eq__(self, other):
        return isinstance(other, NetCollection) and np.array_equal(self.tau, other.tau)

    def __hash__(self):
        return hash(self.tau.tobytes())

    def __repr__(self):
        labs = [[self.instance.lattice.labels[x] for x in row] for row in self.tau.tolist()]
        return f"NetCollection({labs})"

    def to_json(self) -> dict:
        labels = self.instance.lattice.labels
        return {
            "schema_version": 1,
            "tau": [[labels[x] for x in row] for row in self.tau.tolist()],
        }


@dataclass
class EquivClass:
    """Sublattices sharing one fixer; the maximal member is the closed one."""

    representatives: list
    common_fixer: Subgroup


# -- transvection ideals and the canonical sublattice -------------------------


def transvection_ideals(instance, subgroup: Subgroup) -> NetCollection:
    """sigma(F): entry (i, j) joins every x whose transvection set meets F,
    read per right coset of D off F's coset mask (F must contain D)."""
    cosets, tau = subgroup.coset_mask(), np.diag(np.array(instance.atoms, dtype=np.int64))
    for i, j in itertools.permutations(range(instance.n), 2):
        met = transvection_table(instance, i, j)[cosets]
        tau[i, j] = instance.lattice.join_many(distinct(met[met >= 0]).tolist())
    return NetCollection(instance, tau)


def canonical_sublattice(instance, net: NetCollection) -> SublatticeHandle:
    """Sublattice generated by bottom and the row joins of the collection."""
    lat = instance.lattice
    seeds = {lat.bottom}
    for i in range(instance.n):
        seeds.add(lat.join_many(int(x) for x in net.tau[i]))
    return lat.sublattice_generated(seeds)


def intersect_nets(nets: list[NetCollection]) -> NetCollection:
    if not nets:
        raise InputError("need at least one net collection to intersect")
    inst = nets[0].instance
    tau = nets[0].tau.copy()
    for other in nets[1:]:
        if other.instance is not inst:
            raise InputError("net collections live on different instances")
        tau = inst.lattice.meet_table[tau, other.tau]
    return NetCollection(inst, tau)


def _leq_mask(instance, elements: np.ndarray, bound: int) -> np.ndarray:
    return instance.lattice.meet_table[elements, int(bound)] == elements


def is_net_collection(instance, net: NetCollection, mode: str = "aggregate"):
    """Check the membership clause of the net-collection definition.

    aggregate: for every group element, bounded supports of all atom images
    is equivalent to fixing the canonical sublattice.  per_triple: for every
    pairwise-distinct (i, j, k), a bounded (i, j) support forces the bounded
    image of tau[k][i] at j (vacuous when n < 3).  Returns (holds, witness).

    Every element read (atoms, entries of tau, members of the canonical
    sublattice) lies in L0', so both readings are decided once per right
    coset of D on its `coset_image` columns; a failure names the smallest
    code of the first failing coset, the first failing element (the cosets
    are numbered in code order).
    """
    bad = net.clause_violation()
    if bad is not None:
        return False, {"kind": "clause", "clause": bad[0], "slot": list(bad[1])}
    n, support = instance.n, instance.support_table
    reps = right_cosets(instance)[1]
    if mode == "aggregate":
        bounded = np.ones(len(reps), dtype=bool)
        for i in range(n):
            # whether each lattice element y has [y]_j <= tau[i][j] for all j
            table = np.all(instance.lattice.meet_table[support, net.tau[i]] == support, axis=1)
            bounded &= table[coset_image(instance, instance.atoms[i])]
        fixes = coset_fix_mask(instance, canonical_sublattice(instance, net).members)
        diff = bounded != fixes
        if bool(np.any(diff)):
            c = int(np.argmax(diff))
            return False, {
                "kind": "aggregate",
                "g": int(reps[c]),
                "bounded": bool(bounded[c]),
                "fixes_canonical": bool(fixes[c]),
            }
        return True, None
    if mode == "per_triple":

        def bounded(x, j, bound):
            """Whether [g(x)]_j <= bound, per right coset gD."""
            return _leq_mask(instance, support[:, j], int(bound))[coset_image(instance, int(x))]

        for i, j, k in itertools.permutations(range(n), 3):
            viol = bounded(instance.atoms[i], j, net.tau[i, j]) & ~bounded(
                net.tau[k, i], j, net.tau[k, j]
            )
            if bool(np.any(viol)):
                g = int(reps[np.argmax(viol)])
                return False, {"kind": "per_triple", "g": g, "triple": [i, j, k]}
        return True, None
    raise InputError(f"unknown net-collection mode {mode!r}")


@instance_cache
def enumerate_net_collections(instance) -> list[NetCollection]:
    """All valid net collections; entries range over stabiliser-fixed
    elements below each atom, filtered by the aggregate membership clause."""
    lat = instance.lattice
    l0p = instance.l0_prime().members
    n = instance.n
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    choices = []
    for _, j in slots:
        choices.append([x for x in l0p if lat.leq(x, instance.atoms[j])])
    out = []
    for combo in itertools.product(*choices):
        tau = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            tau[i, i] = instance.atoms[i]
        for (i, j), x in zip(slots, combo):
            tau[i, j] = x
        net = NetCollection(instance, tau, check=False)
        if net.clause_violation() is not None:
            continue
        ok, _ = is_net_collection(instance, net, mode="aggregate")
        if ok:
            out.append(net)
    return out


@instance_cache
def net_fixer(instance, net: NetCollection) -> Subgroup:
    """The fixer of the canonical sublattice of the collection.

    Always re-derived a second way before being cached: the coset closure of
    the frame stabiliser together with one representative per realised
    transvection value below tau, the smallest code of its first coset, must
    reproduce the fixer exactly, and every such transvection coset must
    already lie in it.
    """
    lat = instance.lattice
    k_handle = canonical_sublattice(instance, net)
    fx = fixer(instance, k_handle.members)
    cosets, coset_reps, reps = fx.coset_mask(), right_cosets(instance)[1], []
    for i, j in itertools.permutations(range(instance.n), 2):
        table = transvection_table(instance, i, j)
        for x in distinct(table[table >= 0]).tolist():
            if not lat.leq(int(x), int(net.tau[i, j])):
                continue
            if bool(np.any((table == x) & ~cosets)):
                raise RuntimeError("a transvection below the collection escapes the canonical fixer")
            reps.append(int(coset_reps[np.argmax(table == x)]))
    closure = coset_closure(instance, instance.diagonal(), reps)
    if closure != fx:
        raise RuntimeError("stabiliser-plus-transvection closure misses the canonical fixer")
    gens = instance.diagonal_generator_codes() + sorted(set(reps))
    return Subgroup(instance, cosets, gens)


def stable_lbar0(instance, subgroup: Subgroup) -> SublatticeHandle:
    """Members of the componentwise span kept inside it by the whole subgroup:
    the fixpoint of keep &= all(keep[g l]) over its generators g, read off
    the `coset_image` columns at the generators' cosets (the span lies in
    L0').  M = {l : F l inside the span} lies in the span and each g maps
    it into itself, so no step drops it; a set each g maps into itself is
    F-stable, so the fixpoint lies in M."""
    lbar0 = np.array(instance.frame.lbar0)
    gens = coset_labels(instance, generating_subset(subgroup))
    images = np.stack([coset_image(instance, l)[gens] for l in lbar0])  # [l, k]: g_k(l)
    keep = np.zeros(len(instance.lattice), dtype=bool)
    keep[lbar0] = True
    while True:
        kept = keep[lbar0] & np.all(keep[images], axis=1)
        if np.array_equal(kept, keep[lbar0]):
            return SublatticeHandle(instance.lattice, lbar0[kept].tolist())
        keep[lbar0] = kept


# -- the appendix construction: maximal compatible entries --------------------


def triangle_entry(instance, x: int, i: int, j: int) -> int:
    """Largest u below atom j such that every group element whose (i, j)
    support stays under u also keeps the image of x's i-part under x's j-part.

    Both images read are of L0' elements (atom i and x's i-part), so every
    group element is quantified over exactly, once per right coset of D on
    its `coset_image` columns.  Entries below atom j form a chain here, so
    the maximal passing candidate is the join of all passing ones.
    """
    lat = instance.lattice
    frame = instance.frame
    if x not in frame._lbar0_set or x not in instance.l0_prime():
        raise InputError("triangle entries need x in both the componentwise span and the fixed sublattice")
    support = instance.support_table
    lhs_val = support[coset_image(instance, instance.atoms[i]), j]
    # whether each coset keeps x's i-part under x's j-part
    x_j_bounded = _leq_mask(instance, support[:, j], int(support[x, j]))
    rhs = x_j_bounded[coset_image(instance, int(support[x, i]))]
    passing = []
    for u in frame.atom_downsets[j]:
        applicable = _leq_mask(instance, lhs_val, u)
        if not bool(np.any(applicable & ~rhs)):
            passing.append(u)
    if not passing:
        # even the zero entry fails only when the support-monotonicity
        # hypothesis breaks down on the instance; refuse rather than guess
        raise InputError(
            f"no entry below atom {j} satisfies the transfer condition for "
            f"element {lat.labels[x]!r}"
        )
    return lat.join_many(passing)


def element_net(instance, x: int) -> NetCollection:
    """The net collection of maximal compatible entries for one element."""
    n = instance.n
    tau = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        tau[i, i] = instance.atoms[i]
        for j in range(n):
            if i != j:
                tau[i, j] = triangle_entry(instance, x, i, j)
    return NetCollection(instance, tau)


# -- equivalence classes and closed objects -----------------------------------


@instance_cache
def _fixer_classes(instance) -> tuple[list, dict]:
    """(classes, by_members): the sublattices of the base sublattice grouped
    by their fixer, classes and representatives in enumeration order, and
    each sublattice's member tuple -> its class.  A base sublattice past
    `enumerate_sublattices`' bound is `CapExceeded`.

    A class whose fixer is a net fixer holds that object, so its
    closure-verified generating set keeps later normality tests on generator
    level.  Fixers of sublattices of L0' are unions of right cosets of D, so
    the sublattices are grouped by their `coset_fix_mask`, and a fixer is
    built only for a class no net fixer names.
    """
    named = {}
    for net in enumerate_net_collections(instance):
        key = coset_fix_mask(instance, canonical_sublattice(instance, net).members).tobytes()
        named.setdefault(key, net_fixer(instance, net))
    classes, by_members = {}, {}
    l0p = instance.l0_prime()
    for h in instance.lattice.enumerate_sublattices(universe=l0p.members):
        key = coset_fix_mask(instance, h.members).tobytes()
        if key not in classes:
            fx = named[key] if key in named else fixer(instance, h.members)
            classes[key] = EquivClass([], fx)
        classes[key].representatives.append(h)
        by_members[h.members] = classes[key]
    return list(classes.values()), by_members


def fixer_class(instance, members) -> EquivClass:
    """All sublattices of the stabiliser-fixed sublattice sharing M's fixer."""
    members = set(int(x) for x in members)
    if not members <= set(instance.l0_prime().members):
        raise InputError("equivalence classes live inside the base sublattice")
    _, by_members = _fixer_classes(instance)
    # fixing M is fixing the sublattice M generates, an enumerated one ({bottom} if M is empty)
    lat = instance.lattice
    return by_members[lat.sublattice_generated(members or {lat.bottom}).members]


def all_fixer_classes(instance) -> list[EquivClass]:
    """The sublattices of the base sublattice, grouped by their fixer."""
    return list(_fixer_classes(instance)[0])


def closed_sublattice(instance, net: NetCollection) -> SublatticeHandle:
    """Fixed part of the base sublattice under the net's fixer: the closed
    object on the lattice side, maximal in its equivalence class."""
    return galois_psi(instance, net_fixer(instance, net))


# -- the per-subgroup verification bundle -------------------------------------


def record(checks: list, check_id: str, holds, witness=None, **details) -> None:
    """Append one check record: {"id", "holds", "witness", "details"}."""
    checks.append({"id": check_id, "holds": bool(holds), "witness": witness, "details": details})


def sandwich(instance, lower: Subgroup, subgroup: Subgroup, gens_f):
    """(inside, outside) for lower <= F <= N(lower), F the subgroup with
    generators `gens_f`.

    `inside`: whether lower lies in F, by their coset masks.  `outside`: an
    iterator over the gens_f outside N(lower), in order; each is the first
    failing f of one broadcast `normalizes` over the generators after the
    previous one, so whether there is any takes one call.
    """
    inside = lower.is_subset_of(subgroup)

    def outside(rest):
        while rest:
            holds, witness = normalizes(instance, rest, lower, lower.generator_codes)
            if holds:
                return
            yield witness[0]
            rest = rest[rest.index(witness[0]) + 1 :]

    return inside, outside(list(gens_f))


def verify_intermediate_subgroup(
    instance,
    subgroup: Subgroup,
    *,
    seed: int = 0,
    conjugation_samples: int | None = None,
) -> list[dict]:
    """Run every per-subgroup theorem check; returns one record per check.

    Each record: {"id", "holds", "witness", "details"}.  Conjugation checks
    run exhaustively unless a sample count is given (recorded in details).
    """
    lat = instance.lattice
    checks: list[dict] = []
    sigma = transvection_ideals(instance, subgroup)
    k_handle = canonical_sublattice(instance, sigma)
    gk = net_fixer(instance, sigma)
    labels = lat.labels

    # sigma is a valid net collection, both quantifier readings reported; the
    # enumeration kept its nets by the aggregate check, so membership in it
    # stands for that reading
    if any(sigma == net for net in enumerate_net_collections(instance)):
        ok_agg, wit = True, None
    else:
        ok_agg, wit = is_net_collection(instance, sigma, mode="aggregate")
    ok_triple, wit_triple = is_net_collection(instance, sigma, mode="per_triple")
    record(
        checks,
        "transvection_ideals_form_net",
        ok_agg,
        wit,
        per_triple_holds=bool(ok_triple),
        per_triple_witness=wit_triple,
        sigma=[[labels[x] for x in row] for row in sigma.tau.tolist()],
    )

    # the canonical fixer is a normal subgroup of F
    rng = None if conjugation_samples is None else np.random.default_rng(seed)
    holds, wit = conjugation_closure_check(instance, gk, subgroup, rng, conjugation_samples)
    record(
        checks,
        "canonical_fixer_normal",
        holds,
        None if holds else {"f": wit[0], "s": wit[1]},
        samples="exhaustive" if conjugation_samples is None else conjugation_samples,
    )

    gens_f = generating_subset(subgroup)
    inside, outside = sandwich(instance, gk, subgroup, gens_f)
    record(checks, "canonical_fixer_inside", inside)
    outside = list(outside)
    record(checks, "inside_normalizer", not outside, outside or None)

    index_ok = len(subgroup) % len(gk) == 0
    record(
        checks,
        "finite_index",
        index_ok,
        None,
        order=len(subgroup),
        fixer_order=len(gk),
        index=len(subgroup) // len(gk) if index_ok else None,
    )

    # K(F) sits inside the stable part of the componentwise span
    stable = stable_lbar0(instance, subgroup)
    missing = [x for x in k_handle.members if x not in stable]
    record(
        checks,
        "canonical_inside_stable_span",
        not missing,
        [labels[x] for x in missing] or None,
        canonical=[labels[x] for x in k_handle.members],
        stable=[labels[x] for x in stable.members],
    )

    # the stable span's fixer is conjugation-stable under F and meets every
    # transvection set exactly as F does
    stable_fixer = fixer_class(instance, stable.members).common_fixer
    normal, wit = is_normal_in(instance, stable_fixer, subgroup)
    record(
        checks,
        "stable_span_fixer_normal",
        normal,
        None if normal else {"f": wit[0], "s": wit[1]},
        fixer_order=len(stable_fixer),
    )
    record(
        checks,
        "stable_span_fixer_same_transvections",
        same_transvections(instance, stable_fixer, subgroup),
    )

    record(checks, "same_transvections", same_transvections(instance, gk, subgroup))

    # uniqueness of the sandwiched net among all valid collections
    passing = []
    for net in enumerate_net_collections(instance):
        inside, outside = sandwich(instance, net_fixer(instance, net), subgroup, gens_f)
        if inside and next(outside, None) is None:
            passing.append(net)
    unique_ok = len(passing) == 1 and passing[0] == sigma
    record(
        checks,
        "net_uniqueness",
        unique_ok,
        None
        if unique_ok
        else [[[labels[x] for x in row] for row in net.tau.tolist()] for net in passing],
        candidates=len(enumerate_net_collections(instance)),
    )

    # the classes whose common fixer is normal in F, each tested once
    classes = all_fixer_classes(instance)
    normal = [cls for cls in classes if is_normal_in(instance, cls.common_fixer, subgroup)[0]]
    k_in_hit = any(h.members == k_handle.members for cls in normal for h in cls.representatives)
    record(
        checks,
        "unique_fixer_class",
        len(normal) == 1 and k_in_hit,
        None if len(normal) == 1 else [len(c.representatives) for c in normal],
        classes=len(classes),
    )

    # closed sublattice is the maximal member of the canonical class
    closed = closed_sublattice(instance, sigma)
    cls = fixer_class(instance, k_handle.members)
    maximal = max(cls.representatives, key=lambda h: len(h.members))
    record(
        checks,
        "closed_sublattice_maximal_in_class",
        closed.members == maximal.members and set(k_handle.members) <= set(closed.members),
        None,
        closed=[labels[x] for x in closed.members],
    )

    if instance.frame.m == 1 and instance.frame.l0.members == instance.l0_prime().members:
        l0 = set(instance.frame.l0.members)
        hits = [
            h
            for cls in normal
            for h in cls.representatives
            if {lat.bottom, lat.top} <= set(h.members) <= l0
        ]
        hits.sort(key=lambda h: (len(h.members), h.members))  # enumeration order
        record(
            checks,
            "rank_one_unique_sublattice",
            len(hits) == 1 and hits[0].members == k_handle.members,
            [list(h.members) for h in hits] if len(hits) != 1 else None,
        )

    return checks
