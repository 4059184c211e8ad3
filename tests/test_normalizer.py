import importlib

import numpy as np
import pytest

from coxnorm.actions import LineTable, SpaceRestriction, canonical_lines
from coxnorm.galois import orthogonal_complement, perp_map
from coxnorm.groups import generate, identity, relative_length
from coxnorm.linalg import pair_matmul
from coxnorm.normalizer import (_complement_D, _Restricted, decompose, descend_to_complement,
                                goursat_sections, howlett_complement, normalizer,
                                normalizer_order, verify_theorem13)
from coxnorm.parabolic import (ReflectionSubgroup, shape_catalog, standard_parabolic,
                               subset_groupoid)
from coxnorm.rootsys import build_root_system

from fixture_groups import FIXTURE_GROUPS, ORACLE_GROUPS
from oracles import generated_by


normalizer_module = importlib.import_module("coxnorm.normalizer")


def test_normalizer_extremes():
    rs = build_root_system("B2")
    whole = ReflectionSubgroup(rs, frozenset(range(rs.nroots)))
    trivial = ReflectionSubgroup(rs, frozenset())
    assert normalizer_order(whole) == rs.group_order
    assert normalizer_order(trivial) == rs.group_order
    assert len(normalizer(whole)) == rs.group_order


def test_worked_example_a9():
    # W = A9 realization, P = <s5, s7, s9>: N = (P x Q) : D with
    # |N| = 1152, Q of order 24, D = <t1, t2> of order 6
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    dec = decompose(rs, P)
    assert dec.n_order == 1152
    assert dec.p_order == 8 and dec.q_order == 24 and dec.d_order == 6
    s = {i: rs.reflection(i - 1) for i in range(1, 10)}
    t1 = ((s[6] * s[5]) * s[7]) * s[6]
    t2 = ((s[8] * s[7]) * s[9]) * s[8]
    d_keys = {d.key for d in dec.D}
    assert t1.key in d_keys and t2.key in d_keys
    assert {w.key for w in generate([t1, t2])} == d_keys
    # Q is the standard A3 on the first three nodes
    assert dec.Q.roots == standard_parabolic(rs, (0, 1, 2)).roots
    # Goursat kernels along (X_perp, X) have orders 8 and 24
    N = normalizer(P)
    xperp, mid, yperp = dec.spaces
    sec = goursat_sections(N, xperp, P.witness, complement=dec.D)
    assert len(sec.kernels[0]) == 8 and len(sec.kernels[1]) == 24


def test_howlett_complement_basic():
    rs = build_root_system("A2")
    W = generate(rs.simple_reflections())
    whole = ReflectionSubgroup(rs, frozenset(range(rs.nroots)))
    assert len(howlett_complement(whole, W)) == 1
    trivial = ReflectionSubgroup(rs, frozenset())
    assert len(howlett_complement(trivial, W)) == len(W)


def test_howlett_complement_rejects_non_normal():
    rs = build_root_system("A2")
    W = generate(rs.simple_reflections())
    sub = generated_by(rs, [0])
    with pytest.raises(ValueError, match="not normal"):
        howlett_complement(sub, W)


def test_howlett_complement_of_pq_in_n():
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    dec = decompose(rs, P)
    N = normalizer(P)
    pq = ReflectionSubgroup(rs, P.roots | dec.Q.roots)
    H = howlett_complement(pq, N)
    assert {w.key for w in H} == {d.key for d in dec.D}


def test_descend_projection_is_complement_representative():
    rs = build_root_system("B3")
    P = standard_parabolic(rs, (0, 2))
    dec = decompose(rs, P)
    pq = ReflectionSubgroup(rs, P.roots | dec.Q.roots)
    for w in normalizer(P):
        d = descend_to_complement(w, pq)
        assert relative_length(d, pq.pos) == 0
        assert d.key in {x.key for x in dec.D}


def test_goursat_trivial_cases():
    # direct product: L = P x Q along (X_perp, X)
    rs = build_root_system("B2")
    P = standard_parabolic(rs, (0,))
    Q = orthogonal_complement(P)
    p = rs.reflection(P.pos[0])
    q = rs.reflection(Q.pos[0])
    L = [identity(rs), p, q, p * q]
    xperp = rs.span(P.pos)
    sec = goursat_sections(L, xperp, P.witness)
    assert {w.key for w in sec.kernels[0]} == {identity(rs).key, p.key}
    assert {w.key for w in sec.kernels[1]} == {identity(rs).key, q.key}
    # diagonal: L = <w0> = <-1> acts isomorphically on both summands
    w0 = p * q  # -1 in B2? no: use the actual longest element
    w0 = subset_groupoid(rs).longest_element(range(rs.n))
    sec = goursat_sections([identity(rs), w0], rs.span([0]),
                           rs.span([0]).perp(rs.form))
    assert len(sec.kernels[0]) == 1 and len(sec.kernels[1]) == 1
    assert len({p1 for p1, p2 in sec.matched_pairs}) == 2


def test_goursat_rejects_non_invariant_split():
    rs = build_root_system("A2")
    W = list(generate(rs.simple_reflections()))
    line = rs.span([0])
    with pytest.raises(ValueError, match="not invariant"):
        goursat_sections(W, line, line.perp(rs.form))


def test_goursat_rejects_non_complementary_spaces():
    rs = build_root_system("B2")
    W = list(generate(rs.simple_reflections()))
    with pytest.raises(ValueError, match="orthogonal complement"):
        goursat_sections(W, rs.span([0]), rs.span([1]))


def test_decompose_pins_a7():
    rs = build_root_system("A7")
    cat = shape_catalog(rs)
    dec = decompose(rs, cat.by_selector("[2222]"))
    assert dec.q_index == 1 and dec.d_order == 24
    assert dec.a_name == "A3" and dec.b_name == "" and len(dec.C) == 1


def test_decompose_pins_e7_a2a1():
    rs = build_root_system("E7")
    cat = shape_catalog(rs)
    dec = decompose(rs, cat.by_selector("A2A1"))
    assert cat[dec.q_index].type_label == "A3"
    assert dec.d_order == 2
    assert len(dec.A) == 1 and len(dec.B) == 1 and len(dec.C) == 2


def test_decompose_pins_e6_a5():
    rs = build_root_system("E6")
    cat = shape_catalog(rs)
    dec = decompose(rs, cat.by_selector("A5"))
    assert cat[dec.q_index].type_label == "A1"
    assert dec.d_order == 1


def test_d_equals_p0_cap_q0():
    # D is the intersection of the two one-sided Howlett complements in N
    for name in ["A3", "B3", "B4", "D4"]:
        rs = build_root_system(name)
        cat = shape_catalog(rs)
        for shape in cat:
            P = standard_parabolic(rs, shape.rep_subset)
            dec = decompose(rs, shape)
            N = normalizer(P)
            p0 = {w.key for w in N if relative_length(w, dec.Q.pos) == 0}
            q0 = {w.key for w in N if relative_length(w, P.pos) == 0}
            assert p0 & q0 == {d.key for d in dec.D}


def test_theorem13_reports():
    rs = build_root_system("D6")
    cat = shape_catalog(rs)
    dec = decompose(rs, cat.by_selector("[3111]"))
    rep = verify_theorem13(dec)
    assert rep["ok"] and rep["index"] == 2
    dec2 = decompose(rs, cat.by_selector("[33]"))
    rep2 = verify_theorem13(dec2)
    assert rep2["ok"] and rep2["index"] == 1


def test_c_trivial_for_types_a_and_b():
    for name in ["A4", "A5", "B4", "B5"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            assert len(decompose(rs, shape).C) == 1


def test_validation_invariants_hold():
    for name in ["F4", "H3", "D4"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            dec = decompose(rs, shape)
            assert dec.n_order == dec.p_order * dec.q_order * dec.d_order
            assert dec.d_order == len(dec.A) * len(dec.B) * len(dec.C)
            # P and Q commute elementwise (generator level)
            for i in dec.P.simples:
                for j in dec.Q.simples:
                    a, b = rs.reflection(i), rs.reflection(j)
                    assert (a * b) == (b * a)


def _reflecting_line(w, basis):
    """The line w reflects on the span of the basis rows, or None, from the
    images of the rows under w alone: w is a reflection there iff the nonzero
    rows 2b - w(b) all lie on one line.  Row b maps to the sum of b_i w(a_i),
    and the root table holds halves, so the images are doubled."""
    n = basis[0].shape[1]
    images = pair_matmul(basis, w.rs.rows(w.img[:n]))
    moved = 2 * np.hstack(basis) - np.hstack(images)
    moved = moved[moved.any(axis=1)]
    lines = set(canonical_lines((moved[:, :n], moved[:, n:]))) if len(moved) else set()
    return lines.pop() if len(lines) == 1 else None


@pytest.mark.parametrize("name", ["B5", "D6", "F4", "H4", "E6", "A6"])
def test_reflection_lines_match_a_scan_of_every_coset(name):
    # oracle: enumerate the base and collect the reflection line of p * d for
    # every p in it and every d in D, the scan the action cells avoid; the
    # complete line set names the reflection part each cell names from the
    # base's simple root lines and D's own lines
    rs = build_root_system(name)
    for shape in shape_catalog(rs):
        dec = decompose(rs, shape)
        if len(dec.D) == 1:
            continue
        for role, base in (("x_perp", dec.P), ("y_perp", dec.Q)):
            if not base.simples:
                continue
            basis = rs.span(base.simples).pairs
            elements = generate(base.simple_reflections(), rs=rs)
            scanned = {_reflecting_line(p * d, basis)
                       for p in elements for d in dec.D} - {None}
            assert LineTable(rs.form).diagram(scanned) == dec.actions[role].diagram, (
                name, shape.label, role)


def _table(restricted, role):
    """{d.key: (key of d's restriction, reflecting line or None)} for D, read
    off a ``_Restricted``, with the line of every reflecting key read."""
    keys = restricted.keys[role]
    restricted._lines(role, set(keys) & restricted.reflecting[role].keys())
    return {d.key: (key, restricted.lines[role].get(key)) for d, key in zip(restricted.D, keys)}


def _split(table, identity):
    """The classes of D a restriction table splits it into, its kernel, and
    the line of each element that reflects."""
    classes = {}
    for key, (M, _) in table.items():
        classes.setdefault(M, set()).add(key)
    return ({frozenset(c) for c in classes.values()},
            {key for key, (M, _) in table.items() if M == identity},
            {key: line for key, (_, line) in table.items() if line is not None})


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_root_index_tables_match_the_pair_restriction(name):
    # decompose reads D on X_perp and Y_perp as permutations of Delta_P and
    # Delta_Q; the pair product on the rows of those simple roots must split
    # D into the same classes, with the same kernel, the same reflecting
    # elements and the same line for each
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    checked = 0
    for shape in catalog:
        P, Q = shape.parabolic, perp_map(catalog).complement[shape.index]
        D = _complement_D(rs, shape.rep_subset, P, Q)
        if len(D) == 1:
            continue
        spaces = {role: simples for role, simples in (("x_perp", P.simples),
                                                      ("y_perp", Q.simples)) if simples}
        restricted = _Restricted(rs, D, spaces)
        for role, simples in spaces.items():
            pairs = SpaceRestriction(rs, rs.rows(simples))
            one = restricted.keys[role][restricted.position[identity(rs).key]]
            assert (_split(_table(restricted, role), one)
                    == _split(pairs.restrictions(D), pairs.identity)), (name, shape.label, role)
            checked += 1
    assert name.startswith("I2") or checked


def test_an_element_that_does_not_permute_the_simple_roots_is_refused():
    rs = build_root_system("A3")
    # s_1 sends a_2 to a_1 + a_2, a root outside Delta = {a_2}
    with pytest.raises(RuntimeError, match="permute"):
        _Restricted(rs, [identity(rs), rs.reflection(0)], {"x_perp": (1,)})


@pytest.mark.parametrize("intruder, role", [(1, "x_perp"), (2, "y_perp")])
def test_decompose_refuses_a_d_element_that_does_not_permute_the_simple_roots(
        monkeypatch, intruder, role):
    # for P = <s1> in A3, Q = <s3> and D = 1; s2 sends a_1 to a_1 + a_2, outside
    # Delta_P, and s3 fixes a_1 but sends a_3 to -a_3, outside Delta_Q; the
    # gather that reads D on X_perp and Y_perp is decompose's one check of D
    rs = build_root_system("A3")
    original = normalizer_module._complement_D
    monkeypatch.setattr(normalizer_module, "_complement_D", lambda *args: original(*args)
                        + [rs.reflection(intruder)])
    with pytest.raises(RuntimeError, match=f"{role}: D does not permute"):
        decompose(rs, standard_parabolic(rs, (0,)))


def _restrictions_built(monkeypatch, rs, shapes):
    """For each shape, the ``_Restricted`` its decomposition builds and the
    element lists the decomposition restricts by the pair product."""
    built, restricted = [], []
    original = SpaceRestriction.restrictions

    class Recording(_Restricted):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recording(self, elements):
        restricted[-1].append(list(elements))
        return original(self, elements)

    with monkeypatch.context() as patch:
        patch.setattr(normalizer_module, "_Restricted", Recording)
        patch.setattr(SpaceRestriction, "restrictions", recording)
        for shape in shapes:
            restricted.append([])
            decompose(rs, shape)
    return list(zip(built, restricted))


# the oracle groups, and A13's 2^7 row (|D| = 5,040)
X_CAP_Y_ROWS = [(name, None) for name in ORACLE_GROUPS] + [("A13", "A1^7")]


@pytest.mark.parametrize("name, selector", X_CAP_Y_ROWS)
def test_labels_and_the_trace_test_restrict_d_to_x_cap_y_as_the_pair_product_does(
        monkeypatch, name, selector):
    # decompose reads D on X n Y off the labels of its root images, and the
    # elements that reflect there off the trace test; the pair product of
    # every element with the projection rows, and its rank-one test, must
    # split D into the same classes, with the same kernel, the same
    # reflecting elements and the same line for each, and the same -1
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    shapes = [catalog.by_selector(selector)] if selector else list(catalog)
    checked = 0
    for restricted, _ in _restrictions_built(monkeypatch, rs, shapes):
        if "x_cap_y" not in restricted.keys:
            continue
        pairs = SpaceRestriction(rs, restricted.spaces["x_cap_y"])
        table = pairs.restrictions(restricted.D)
        assert (_split(_table(restricted, "x_cap_y"), restricted.identity)
                == _split(table, pairs.identity)), (name, len(restricted.D))
        minus = tuple(-x for x in pairs.identity)
        assert ([key == restricted.minus for key in restricted.keys["x_cap_y"]]
                == [table[d.key][0] == minus for d in restricted.D]), (name, len(restricted.D))
        checked += 1
    assert name.startswith("I2") or checked


@pytest.mark.parametrize("name, selector", [(name, None) for name in FIXTURE_GROUPS
                                            if name != "E8"] + [("A13", "A1^7")])
def test_decompose_restricts_one_element_per_reflecting_key_by_the_pair_product(
        monkeypatch, name, selector):
    # no pair product runs over D: only the witnesses of distinct reflecting
    # restrictions to X n Y are restricted, each once, and only in a row
    # with two or more of them, where an image may name two or more lines
    rs = build_root_system(name)
    catalog = shape_catalog(rs)
    shapes = [catalog.by_selector(selector)] if selector else list(catalog)
    for restricted, calls in _restrictions_built(monkeypatch, rs, shapes):
        witnesses = restricted.reflecting.get("x_cap_y", {})
        elements = [d.key for call in calls for d in call]
        assert len(elements) == len(set(elements)), name
        assert set(elements) <= {d.key for d in witnesses.values()}, name
        assert len(witnesses) > 1 or not calls, name
    if selector:
        assert len(restricted.D) == 5040 and 0 < len(elements) <= len(witnesses) < 100
