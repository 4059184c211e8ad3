import importlib
import itertools
import random

import numpy as np
import pytest

from coxnorm import galois, linalg, verify
from coxnorm.involutions import involution_class_representatives
from coxnorm.galois import (orthogonal_closure, orthogonal_complement, parabolic_concepts,
                            perp_map, perp_masks, pq_closures, pq_map, shape_closure_graph)
from coxnorm.oracle import commutation_table
from coxnorm.parabolic import (ReflectionSubgroup, fixed_space, parabolic_closure,
                               shape_catalog, standard_conjugate, standard_parabolic)
from coxnorm.rootsys import build_root_system
from coxnorm.verify import verify_galois, verify_oracle

from fixture_groups import FIXTURE_GROUPS, I2_FIXTURE_GROUPS, ORACLE_GROUPS
from oracles import (brute_orthogonal_complement, close_roots, generated_by, neg,
                     orthogonal_join)


normalizer = importlib.import_module("coxnorm.normalizer")

parabolic = importlib.import_module("coxnorm.parabolic")


def concept_labels(name):
    rs = build_root_system(name)
    cat = shape_catalog(rs)
    return {(cat[i].label, cat[j].label) for i, j in parabolic_concepts(rs)}


def test_perp_of_trivial_is_w():
    rs = build_root_system("B3")
    U = ReflectionSubgroup(rs, frozenset())
    assert len(orthogonal_complement(U).roots) == rs.nroots


def test_a7_perp_of_a1a1_is_a3():
    rs = build_root_system("A7")
    cat = shape_catalog(rs)
    shape = cat.by_selector("[221111]")
    assert perp_map(cat).index[shape.index] == 7
    assert cat[7].type_label == "A3"


def test_e6_a5_a1_concept():
    rs = build_root_system("E6")
    cat = shape_catalog(rs)
    a5 = next(s for s in cat if s.label == "A5")
    a1 = next(s for s in cat if s.label == "A1")
    assert perp_map(cat).index[a5.index] == a1.index
    assert perp_map(cat).index[a1.index] == a5.index


def test_closure_of_a1cubed_in_a7_is_a5():
    rs = build_root_system("A7")
    cat = shape_catalog(rs)
    shape = cat.by_selector("[22211]")
    perp = perp_map(cat).index
    assert perp[perp[shape.index]] == 17
    assert cat[17].type_label == "A5"


def test_triple_perp_law():
    rs = build_root_system("B3")
    for mask in range(1 << rs.n):
        subset = tuple(i for i in range(rs.n) if mask >> i & 1)
        U = standard_parabolic(rs, subset)
        p1 = orthogonal_complement(U)
        p3 = orthogonal_complement(orthogonal_closure(U))
        assert p1.roots == p3.roots


def test_e6_concepts():
    assert concept_labels("E6") == {("∅", "E6"), ("A1", "A5"),
                                    ("A1^2", "A3"), ("A2", "A2^2")}


def test_h4_concepts():
    assert concept_labels("H4") == {("∅", "H4"), ("A1", "H3"),
                                    ("A1^2", "A1^2"), ("A2", "A2"),
                                    ("H2", "H2")}


def test_b5_concepts_family_rule():
    rs = build_root_system("B5")
    cat = shape_catalog(rs)
    got = {frozenset((i, j)) for i, j in parabolic_concepts(rs)}
    expected = set()
    by_key = {(s.block, s.partition): s.index for s in cat}
    for k in range(0, 3):
        for m in range(0, 6 - 2 * k):
            l = 5 - m - 2 * k
            if l < 0:
                continue
            left = by_key[(("B", m), (2,) * k + (1,) * l)]
            right = by_key[(("B", l), (2,) * k + (1,) * m)]
            expected.add(frozenset((left, right)))
    assert got == expected


def test_i2_concept_parities():
    # odd m: only the top pair; m = 0 mod 4: two self-paired A1 classes;
    # m = 2 mod 4: the two A1 classes are each other's complements
    assert len(parabolic_concepts(build_root_system("I2(7)"))) == 1
    c8 = parabolic_concepts(build_root_system("I2(8)"))
    assert (2, 2) in c8 and (3, 3) in c8 and len(c8) == 3
    c10 = parabolic_concepts(build_root_system("I2(10)"))
    assert (2, 3) in c10 and len(c10) == 2


def test_e6_closure_graph_matches_published_diagram():
    rs = build_root_system("E6")
    graph = shape_closure_graph(rs)
    assert len(graph["nodes"]) == 17
    boxed = {n["index"] for n in graph["nodes"] if n["closed"]}
    labels = {n["index"]: n["label"] for n in graph["nodes"]}
    assert {labels[i] for i in boxed} == {"∅", "A1", "A1^2", "A2", "A3",
                                          "A2^2", "A5", "E6"}
    hasse = set(map(tuple, graph["hasse"]))
    expected_hasse = {(2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (6, 4), (7, 3),
                      (7, 4), (8, 5), (8, 6), (9, 6), (10, 5), (10, 6),
                      (10, 7), (11, 6), (11, 7), (12, 5), (12, 7), (13, 8),
                      (13, 9), (14, 8), (14, 10), (14, 11), (15, 9), (15, 10),
                      (15, 11), (16, 8), (16, 10), (16, 11), (16, 12),
                      (17, 13), (17, 14), (17, 15), (17, 16)}
    assert hasse == expected_hasse
    closure = dict(map(tuple, graph["closure"]))
    assert closure == {5: 15, 6: 9, 8: 17, 10: 15, 11: 15, 12: 17, 13: 17,
                       14: 17, 16: 17}
    # closure edges point upward in the poset
    reach = {i: {i} for i in labels}
    changed = True
    while changed:
        changed = False
        for a, b in expected_hasse:
            if not reach[b] <= reach[a]:
                reach[a] |= reach[b]
                changed = True
    for src, dst in closure.items():
        assert src in reach[dst]


def test_rank_one_graph():
    graph = shape_closure_graph(build_root_system("A1"))
    assert len(graph["nodes"]) == 2
    assert graph["hasse"] == [(2, 1)]
    assert all(n["closed"] for n in graph["nodes"])
    assert graph["closure"] == []


def test_concept_meet_is_concept():
    # the componentwise meet (P1 n P2, closure of <Q1 u Q2>) is again a concept
    for name in ["A3", "B3", "B4", "D4", "H3", "F4"]:
        rs = build_root_system(name)
        cat = shape_catalog(rs)
        concepts = parabolic_concepts(rs)
        reps = {i: standard_parabolic(rs, cat[i].rep_subset) for i in
                {k for pair in concepts for k in pair}}
        for (i1, j1), (i2, j2) in itertools.combinations(concepts, 2):
            left = ReflectionSubgroup(rs, reps[i1].roots & reps[i2].roots)
            assert orthogonal_closure(left).roots == left.roots


def test_orthogonal_complement_computes_no_fixed_space(monkeypatch):
    # the witness of a parabolic is derived on first use, so the complements
    # of all 128 standard parabolics of E7 need no exact linear algebra
    rs = build_root_system("E7")
    calls = []
    original = parabolic.fixed_space
    monkeypatch.setattr(parabolic, "fixed_space",
                        lambda U: calls.append(U) or original(U))
    for mask in range(1 << rs.n):
        subset = tuple(i for i in range(rs.n) if mask >> i & 1)
        Q = orthogonal_complement(standard_parabolic(rs, subset))
    assert calls == []
    assert Q.witness is Q.witness and len(calls) == 1


def test_commutation_oracle_covers_i2():
    for m in range(5, 13):
        rs = build_root_system(f"I2({m})")
        assert verify_galois(rs)["checks"]["commutation_route_agrees"]["ok"]
        assert verify_oracle(rs)["checks"]["orthogonal_complement"]["ok"]


def _perp_by_reflections(U):
    """Reference complement: the roots fixed by every reflection of U, one
    reflection permutation at a time."""
    rs = U.rs
    every = np.arange(rs.nroots)
    fixed = np.ones(rs.nroots, dtype=bool)
    for j in U.pos:
        fixed &= rs.reflection_perm(j) == every
    return frozenset(np.flatnonzero(fixed).tolist())


@pytest.mark.parametrize("name", ["H3", "F4", "B5", "D5", "E6", "E7"] + I2_FIXTURE_GROUPS)
def test_complement_from_the_table_matches_the_reflection_loop(name):
    rs = build_root_system(name)
    rng = random.Random(name)
    subgroups = [standard_parabolic(rs, tuple(i for i in range(rs.n) if mask >> i & 1))
                 for mask in range(1 << rs.n)]
    subgroups += [generated_by(rs, rng.sample(range(rs.nroots), rng.randint(1, rs.n)))
                  for _ in range(200)]
    for U in subgroups:
        assert orthogonal_complement(U).roots == _perp_by_reflections(U), U


def _galois_reports_by_loops(rs):
    """Reference: the Galois checks as separate loops, each recomputing its
    complements through galois.orthogonal_closure; (ok, witness) per check."""
    checks = {}
    subs = {s: standard_parabolic(rs, s) for s in verify._standard_subsets(rs)}
    perp = {s: galois.orthogonal_complement(u) for s, u in subs.items()}
    checks["extensive"] = next(
        (s for s, u in subs.items() if not u.roots <= galois.orthogonal_closure(u).roots), None)
    checks["antitone"] = None
    for s1, s2 in itertools.combinations(subs, 2):
        small, big = (s1, s2) if set(s1) <= set(s2) else (s2, s1)
        if set(small) <= set(big) and not perp[big].roots <= perp[small].roots:
            checks["antitone"] = (small, big)
            break
    checks["triple_perp"] = next(
        (s for s, u in subs.items()
         if galois.orthogonal_complement(galois.orthogonal_closure(u)).roots != perp[s].roots),
        None)
    checks["closure_idempotent"] = next(
        (s for s, u in subs.items()
         if galois.orthogonal_closure(u).roots
         != galois.orthogonal_closure(galois.orthogonal_closure(u)).roots), None)
    checks["commutation_route_agrees"] = next(
        (s for s, u in subs.items() if brute_orthogonal_complement(u).roots != perp[s].roots),
        None)
    return {name: (bad is None, bad) for name, bad in checks.items()}


# (group, chosen subset, level): the faulty complement fires on the root set
# of the chosen standard subgroup (level 0) or of its complement (level 1)
FAULTS = [("B4", (3,), 1), ("B4", (1, 2), 0), ("B4", (0, 1, 3), 1), ("F4", (0, 2), 1),
          ("F4", (0, 2, 3), 1), ("F4", (1, 3), 0), ("H3", (1, 2), 1), ("H3", (2,), 0)]


def _root_mask(rs, roots):
    mask = np.zeros(rs.nroots, dtype=bool)
    mask[list(roots)] = True
    return mask


def _faulty_perp_masks(monkeypatch, rs, target, change):
    """Patch the batched complement: ``change`` edits the complement mask of
    every row equal to the target root set.  ``orthogonal_complement`` is its
    one-row case, so the separate loops see the same fault."""
    original = galois.perp_masks

    def faulty(rs, masks):
        out = original(rs, masks)
        for row in np.flatnonzero((masks == target).all(axis=1)):
            change(out[row])
        return out

    monkeypatch.setattr(galois, "perp_masks", faulty)
    monkeypatch.setattr(verify, "perp_masks", faulty)


@pytest.mark.parametrize("name, chosen, level", FAULTS)
def test_galois_witnesses_survive_the_closure_chain(monkeypatch, name, chosen, level):
    # a complement that drops its least root on one argument: each law must
    # report the same first failing subset as the separate loops do
    rs = build_root_system(name)
    target = standard_parabolic(rs, chosen)
    target = target.roots if level == 0 else orthogonal_complement(target).roots

    def drop_least(row):
        row[np.flatnonzero(row)[0]] = False

    _faulty_perp_masks(monkeypatch, rs, _root_mask(rs, target), drop_least)
    report = verify_galois(rs)
    want = _galois_reports_by_loops(rs)
    assert list(report["checks"]) == list(want)
    assert {k: (c["ok"], c["witness"]) for k, c in report["checks"].items()} == want
    assert not report["ok"]


# (group, chosen 3-element subset): the faulty complement of the chosen
# standard subgroup gains its least missing positive root
ADDED_ROOT_FAULTS = [("B4", (0, 1, 2)), ("F4", (0, 1, 2)), ("H4", (1, 2, 3)), ("D5", (0, 2, 3))]


@pytest.mark.parametrize("name, chosen", ADDED_ROOT_FAULTS)
def test_antitone_witness_is_the_first_failing_pair_not_a_covering_one(monkeypatch, name,
                                                                        chosen):
    # verify_galois tests antitony on covering pairs only; when one fails it
    # must still report the first failing pair of the full walk, which here
    # skips a level
    rs = build_root_system(name)
    target = _root_mask(rs, standard_parabolic(rs, chosen).roots)

    def add_least_missing(row):
        extra = np.flatnonzero(~row[: rs.npos])[0]
        row[[extra, neg(rs, extra)]] = True

    _faulty_perp_masks(monkeypatch, rs, target, add_least_missing)
    want = _galois_reports_by_loops(rs)
    ok, (small, big) = want["antitone"]
    assert not ok and big == chosen and len(big) - len(small) > 1
    report = verify_galois(rs)
    assert {k: (c["ok"], c["witness"]) for k, c in report["checks"].items()} == want


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_shape_maps_agree_with_root_level_recomputation(name):
    # the catalog's maps on shape indices against complements, closures and
    # representatives rebuilt from root sets
    rs = build_root_system(name)
    cat = shape_catalog(rs)
    shape_perp = perp_map(cat)
    for shape in cat:
        i = shape.index
        rep = ReflectionSubgroup(rs, shape.roots)
        perp = orthogonal_complement(rep)
        assert shape_perp.index[i] == cat.class_of_roots(perp.roots), shape.label
        assert (shape_perp.index[shape_perp.index[i]]
                == cat.class_of_roots(orthogonal_closure(rep).roots)), shape.label
        pq = parabolic_closure(ReflectionSubgroup(rs, rep.roots | perp.roots))
        *_, (closure,) = pq_closures(cat, [shape.parabolic], [shape_perp.complement[i]])
        assert closure == cat.class_of_roots(pq.roots), shape.label
        assert closure == normalizer.decompose(rs, shape).pq_closure_index
        standard = standard_parabolic(rs, shape.rep_subset)
        assert shape.parabolic.roots == standard.roots, shape.label
        assert shape.parabolic.simples == standard.simples == rep.simples, shape.label


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_batched_complement_matches_one_subgroup_at_a_time(name):
    # every standard subset at once, against the one-row case, the reflection
    # loop and the commutation route (a commutation table with no order guard)
    rs = build_root_system(name)
    subgroups = [standard_parabolic(rs, s) for s in verify._standard_subsets(rs)]
    batched = perp_masks(rs, np.array([_root_mask(rs, U.roots) for U in subgroups]))
    commute = commutation_table(rs)
    for U, row in zip(subgroups, batched):
        got = frozenset(np.flatnonzero(row).tolist())
        assert got == orthogonal_complement(U).roots == _perp_by_reflections(U), U
        assert got == close_roots(rs, np.flatnonzero(commute[list(U.pos)].all(axis=0)).tolist())


@pytest.mark.parametrize("name", ["E7", "H4"])
def test_concepts_and_galois_suite_eliminate_nothing(monkeypatch, name):
    # on a fresh catalog every complement's class is looked up anew, at a
    # generic point of the span of the shape's simple roots, and every
    # closure's at the projections onto Fix(P perp(P)); concepts fill the map
    # perp on shapes, once, and the section-8 suite the map of the closures
    # of P perp(P), once; the centralizer orders and every decomposition read
    # the same maps, and a full row's closure is its one-row stack
    monkeypatch.setattr(parabolic, "_catalogs", {})
    rs = build_root_system(name)
    calls, fills, closures = [], [], []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(rows) or original(rows))
    complements = galois.complements
    monkeypatch.setattr(galois, "complements",
                        lambda catalog, ps: fills.append(len(ps)) or complements(catalog, ps))
    pq_stack = galois.pq_closures
    monkeypatch.setattr(galois, "pq_closures", lambda catalog, ps, qs: (
        closures.append(len(ps)) or pq_stack(catalog, ps, qs)))
    catalog = shape_catalog(rs)
    assert catalog.perp is None and catalog.pq is None
    parabolic_concepts(rs)
    assert fills == [len(catalog)]   # every shape's complement, as one stack
    assert sorted(catalog.perp.index) == sorted(catalog.perp.complement) == [s.index for s in catalog]
    assert verify_galois(rs)["ok"] and closures == []
    assert len(catalog._class_cache) > len(catalog)   # some complements were not standard
    assert verify.verify_section8(rs)["ok"]
    assert closures == [len(catalog)]   # every shape's closure, as one stack
    assert all(sorted(rows) == [s.index for s in catalog] for rows in vars(catalog.pq).values())
    assert all(rec.centralizer_order > 0 for rec in involution_class_representatives(rs))
    for shape in catalog:
        normalizer.decompose(rs, shape)
    assert fills == [len(catalog)] and calls == []
    assert closures[0] == len(catalog) and set(closures[1:]) <= {1}


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_class_signs_read_on_the_span_agree_with_the_fixed_space(name):
    # perp(W_J) vanishes exactly on the span of J's simple roots; the walk
    # from its signs there and the walk from its fixed space name one class,
    # and so do the walks from Fix(P perp(P)) and from the closure's roots;
    # the roots of P perp(P), when they are not its closure's, are refused
    rs = build_root_system(name)
    cat = shape_catalog(rs)
    for shape in cat:
        P = shape.parabolic
        Q = orthogonal_complement(P)
        signs = rs.stacked_span_signs([P.simples])[0]
        assert frozenset(np.flatnonzero(signs == 0).tolist()) == Q.roots, shape.label
        by_span, w = _conjugate_at(rs, signs)
        by_fix, _ = standard_conjugate(rs, Q.roots)
        assert (cat.class_of_subset(by_span) == cat.class_of_subset(by_fix)
                == perp_map(cat).index[shape.index]), shape.label
        assert {int(w[r]) for r in standard_parabolic(rs, by_span).roots} == Q.roots
        PQ = orthogonal_join(P, Q)
        pq = parabolic_closure(PQ)
        if pq.roots != PQ.roots:
            with pytest.raises(ValueError):
                standard_conjugate(rs, PQ.roots)
        pq_signs = rs.signs_at(fixed_space(PQ))
        assert (cat.class_of_subset(_conjugate_at(rs, pq_signs)[0])
                == cat.class_of_subset(standard_conjugate(rs, pq.roots)[0])
                == pq_closures(cat, [P], [Q])[3][0]), shape.label


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_closure_graph_reads_the_subclasses_of_every_subset(name):
    # reference: the class of every subset of each representative's J
    rs = build_root_system(name)
    cat = shape_catalog(rs)
    below = {s.index: {cat.class_of_subset(sub) for k in range(s.rank + 1)
                       for sub in itertools.combinations(s.rep_subset, k)} - {s.index}
             for s in cat}
    hasse = sorted((i, j) for i in below for j in below[i]
                   if not any(j in below[k] for k in below[i]))
    assert shape_closure_graph(rs)["hasse"] == hasse


def _descend_one_row(rs, signs):
    """Reference: (J, w) for one sign row, stepping by the reflection in the
    first negative simple root until none is negative, from the point or its
    negative, whichever has fewer negative positive roots."""
    if signs[: rs.npos].sum() < 0:
        signs = -signs
    simple = list(rs.simple_roots)
    img = np.arange(rs.nroots, dtype=np.int16)
    while True:
        down = [r for r in simple if signs[r] < 0]
        if not down:
            return tuple(i for i, r in enumerate(simple) if signs[r] == 0), img
        s = rs.reflection_perm(down[0])
        signs, img = signs[s], img[s]


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_stacked_descent_matches_one_row_at_a_time(name):
    # the complement signs and the closure signs of every shape, descended as
    # one stack, against each row descended alone and the loop
    rs = build_root_system(name)
    cat = shape_catalog(rs)
    sets = [s.parabolic.simples + orthogonal_complement(s.parabolic).simples for s in cat]
    signs = np.vstack([[rs.stacked_span_signs([s.parabolic.simples])[0] for s in cat],
                       rs.fixed_projections(sets)[2]])
    J, word = parabolic.dominant_descent(rs, signs)
    assert J.shape == (len(signs), rs.n) and word.shape[1] == len(signs)
    for row, mask, steps in zip(signs, J, word.T):
        subset, w = _conjugate_at(rs, row)
        assert tuple(np.flatnonzero(mask).tolist()) == subset
        want_subset, want_img = _descend_one_row(rs, row)
        assert subset == want_subset and (w == want_img).all()
        assert (_replay(rs, steps) == w).all()


def _replay(rs, steps):
    """The image of the product of the simple reflections of a word, in
    order; a finished row steps by the identity, n."""
    img = np.arange(rs.nroots, dtype=np.int16)
    for s in steps[steps < rs.n].tolist():
        img = img[rs.reflection_perm(rs.simple_roots[s])]
    return img


def _conjugate_at(rs, signs):
    """(J, w's image) for one sign row: its one-row ``dominant_descent``,
    the word replayed."""
    J, word = parabolic.dominant_descent(rs, signs[None])
    return tuple(np.flatnonzero(J[0]).tolist()), _replay(rs, word[:, 0])


def _same_projections(rs, a, b):
    if rs.is_vector:
        return all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))
    return a == b


def _same_forms(a, b):
    """The root forms on the projections: equal int64 arrays, or None twice (type I2)."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b) and a.dtype == b.dtype == np.int64


@pytest.mark.parametrize("name", FIXTURE_GROUPS + ["A9", "B8", "D9"])
def test_whole_catalog_table_matches_shape_by_shape(monkeypatch, name):
    # oracle for the map perp on shapes, filled as one stack on a fresh
    # catalog: each shape's class is that of its representative's complement
    # looked up alone on another fresh catalog (at its fixed space, not at a
    # span), and Q's simple system and type are that complement's own
    rs = build_root_system(name)
    monkeypatch.setattr(parabolic, "_catalogs", {})
    whole = shape_catalog(rs)
    perp = perp_map(whole)
    monkeypatch.setattr(parabolic, "_catalogs", {})
    cat = shape_catalog(rs)
    assert cat is not whole and cat.perp is None
    for shape in cat:
        Q = orthogonal_complement(shape.parabolic)
        got = perp.complement[shape.index]
        assert perp.index[shape.index] == cat.class_of_roots(Q.roots), shape.label
        assert (got.roots, got.simples, got.components) == (Q.roots, Q.simples, Q.components)
    assert cat.perp is None   # the rows one at a time never filled the map


@pytest.mark.parametrize("name", FIXTURE_GROUPS + ["A9", "B8", "D9"])
def test_closure_map_matches_the_one_row_closures(monkeypatch, name):
    # the map of the closures of P perp(P), filled as one stack on a fresh
    # catalog, row by row against the one-row stack of each representative
    # on another fresh catalog, full rows included; every decomposition's
    # closure columns, which read the map off the full rows, against that
    # one-row reading.  The trivial shape's PQ is W, so its closure is PQ
    rs = build_root_system(name)
    monkeypatch.setattr(parabolic, "_catalogs", {})
    whole = shape_catalog(rs)
    pq, perp = pq_map(whole), perp_map(whole)
    monkeypatch.setattr(parabolic, "_catalogs", {})
    cat = shape_catalog(rs)
    one_row = {}
    for shape in cat:
        P, Q = shape.parabolic, perp.complement[shape.index]
        (one,), (forms,), (roots,), (index,) = pq_closures(cat, [P], [Q])
        assert index == pq.index[shape.index], shape.label
        assert np.array_equal(roots, pq.roots[shape.index]), shape.label
        assert _same_projections(rs, one, pq.projections[shape.index]), shape.label
        assert _same_forms(forms, pq.forms[shape.index]), shape.label
        one_row[shape.index] = (index, roots.sum() == len(P.roots) + len(Q.roots), roots.all())
    assert cat.pq is None   # the rows one at a time never filled the map
    for shape in cat:
        try:
            dec = normalizer.decompose(rs, shape)
        except RuntimeError as exc:   # D_n past D8 names some A, B or C by no rule yet
            assert name == "D9" and str(exc).startswith("no abstract type rule"), shape.label
            continue
        got = (dec.pq_closure_index, dec.pq_closure_is_pq, dec.pq_closure_is_w)
        assert got == one_row[shape.index], shape.label
    assert not cat[1].roots and one_row[1] == (len(cat), True, True)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_full_sets_match_the_fixed_projections(name):
    # pq_closures sends a set Delta_P u Delta_perp(P) of n roots to no orbit
    # sum: every row must be the one fixed_projections gives for the set
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    perp = perp_map(catalog)
    shapes = list(catalog)
    Qs = [perp.complement[s.index] for s in shapes]
    full = 0
    rows = zip(*pq_closures(catalog, [s.parabolic for s in shapes], Qs))
    for shape, Q, (got, got_forms, roots, index) in zip(shapes, Qs, rows):
        (projections,), (forms,), signs = rs.fixed_projections(
            [shape.parabolic.simples + Q.simples])
        assert _same_projections(rs, got, projections), shape.label
        assert _same_forms(got_forms, forms), shape.label
        full += rs.is_vector and len(projections[0]) == 0
        assert np.array_equal(roots, signs[0] == 0), shape.label
        assert index == catalog.classes_of(signs == 0, signs)[0], shape.label
    assert not rs.is_vector or full


def test_decomposing_every_shape_of_e7_looks_the_complements_up_once(monkeypatch):
    # on a fresh catalog the perp classes of all 32 shapes are one
    # classes_of pass, with one span-sign gather and one descent for the
    # complements the class cache misses; the classes of the closures of
    # P perp(P) are a second pass, one fixed_projections stack of every shape
    # whose Delta_P u Delta_perp(P) holds fewer than n roots, made by the
    # first such row (row 7); a full row looks no class up, and no row looks
    # one up alone
    monkeypatch.setattr(parabolic, "_catalogs", {})
    rs = build_root_system("E7")
    catalog = shape_catalog(rs)
    lookups, gathers, descents, fixed = [], [], [], []
    row = [None]
    classes_of = parabolic.ShapeCatalog.classes_of
    monkeypatch.setattr(parabolic.ShapeCatalog, "classes_of", lambda self, masks, signs: (
        lookups.append((row[0], len(masks), callable(signs))) or classes_of(self, masks, signs)))
    span_signs = rs.stacked_span_signs
    monkeypatch.setattr(rs, "stacked_span_signs",
                        lambda sets: gathers.append(len(sets)) or span_signs(sets))
    projections = rs.fixed_projections
    monkeypatch.setattr(rs, "fixed_projections",
                        lambda sets: fixed.append(len(sets)) or projections(sets))
    descend = parabolic.dominant_descent
    monkeypatch.setattr(parabolic, "dominant_descent",
                        lambda rs, signs: descents.append(len(signs)) or descend(rs, signs))
    for shape in catalog:
        row[0] = shape.index
        normalizer.decompose(rs, shape)
    perp = perp_map(catalog).complement
    partial = [s.index for s in catalog
               if len(s.parabolic.simples) + len(perp[s.index].simples) < rs.n]
    assert partial[0] == 7 and 1 < len(partial) < len(catalog)
    assert lookups == [(1, len(catalog), True), (7, len(partial), False)]
    assert len(gathers) == 1 and 0 < gathers[0] < len(catalog) and fixed == [len(partial)]
    assert len(descents) == 2 and descents[0] == gathers[0] and 0 < descents[1] <= len(partial)
