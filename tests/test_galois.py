import importlib
import itertools
import random

import numpy as np
import pytest

from coxnorm import galois, verify
from coxnorm.galois import (closure_index, orthogonal_closure,
                            orthogonal_complement, parabolic_concepts,
                            perp_index, shape_closure_graph)
from coxnorm.oracle import brute_orthogonal_complement
from coxnorm.parabolic import ReflectionSubgroup, shape_catalog, standard_parabolic
from coxnorm.rootsys import build_root_system
from coxnorm.verify import verify_galois, verify_oracle

from fixture_groups import I2_FIXTURE_GROUPS

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
    assert perp_index(cat, shape) == 7
    assert cat[7].type_label == "A3"


def test_e6_a5_a1_concept():
    rs = build_root_system("E6")
    cat = shape_catalog(rs)
    a5 = next(s for s in cat if s.label == "A5")
    a1 = next(s for s in cat if s.label == "A1")
    assert perp_index(cat, a5) == a1.index
    assert perp_index(cat, a1) == a5.index


def test_closure_of_a1cubed_in_a7_is_a5():
    rs = build_root_system("A7")
    cat = shape_catalog(rs)
    shape = cat.by_selector("[22211]")
    assert closure_index(cat, shape) == 17
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
    subgroups += [ReflectionSubgroup.generated_by(
        rs, rng.sample(range(rs.nroots), rng.randint(1, rs.n))) for _ in range(200)]
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


@pytest.mark.parametrize("name, chosen, level", FAULTS)
def test_galois_witnesses_survive_the_closure_chain(monkeypatch, name, chosen, level):
    # a complement that drops its least root on one argument: each law must
    # report the same first failing subset as the separate loops do
    rs = build_root_system(name)
    original = galois.orthogonal_complement
    target = standard_parabolic(rs, chosen)
    target = target.roots if level == 0 else original(target).roots

    def faulty(U):
        Q = original(U)
        if U.roots == target:
            return ReflectionSubgroup(rs, Q.roots - {min(Q.roots)})
        return Q

    monkeypatch.setattr(galois, "orthogonal_complement", faulty)
    monkeypatch.setattr(verify, "orthogonal_complement", faulty)
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
    original = galois.orthogonal_complement
    target = standard_parabolic(rs, chosen).roots

    def faulty(U):
        Q = original(U)
        if U.roots == target:
            extra = min(set(range(rs.npos)) - Q.roots)
            return ReflectionSubgroup(rs, Q.roots | {extra, rs.neg(extra)})
        return Q

    monkeypatch.setattr(galois, "orthogonal_complement", faulty)
    monkeypatch.setattr(verify, "orthogonal_complement", faulty)
    want = _galois_reports_by_loops(rs)
    ok, (small, big) = want["antitone"]
    assert not ok and big == chosen and len(big) - len(small) > 1
    report = verify_galois(rs)
    assert {k: (c["ok"], c["witness"]) for k, c in report["checks"].items()} == want
