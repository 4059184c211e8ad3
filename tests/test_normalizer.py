import numpy as np
import pytest

from coxnorm.actions import SpaceRestriction, canonical_lines, diagram_of_lines
from coxnorm.galois import galois_row, orthogonal_complement
from coxnorm.groups import generate, identity, relative_length
from coxnorm.linalg import pair_matmul
from coxnorm.normalizer import (_complement_D, _Restricted, decompose, descend_to_complement,
                                goursat_sections, howlett_complement, normalizer,
                                normalizer_order, verify_theorem13)
from coxnorm.parabolic import (ReflectionSubgroup, orthogonal_join, shape_catalog,
                               standard_parabolic, subset_groupoid)
from coxnorm.rootsys import build_root_system

from fixture_groups import ORACLE_GROUPS


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
    sub = ReflectionSubgroup.generated_by(rs, [0])
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
            assert diagram_of_lines(scanned, rs.form) == dec.actions[role].diagram, (
                name, shape.label, role)


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
        P, Q = shape.parabolic, galois_row(catalog, shape.index).perp
        D = _complement_D(rs, shape.rep_subset, orthogonal_join(P, Q))
        if len(D) == 1:
            continue
        spaces = {role: simples for role, simples in (("x_perp", P.simples),
                                                      ("y_perp", Q.simples)) if simples}
        restricted = _Restricted(rs, D, spaces)
        for role, simples in spaces.items():
            pairs = SpaceRestriction(rs, rs.rows(simples))
            assert (_split(restricted.tables[role], restricted.identities[role])
                    == _split(pairs.restrictions(D), pairs.identity)), (name, shape.label, role)
            checked += 1
    assert name.startswith("I2") or checked


def test_an_element_that_does_not_permute_the_simple_roots_is_refused():
    rs = build_root_system("A3")
    # s_1 sends a_2 to a_1 + a_2, a root outside Delta = {a_2}
    with pytest.raises(RuntimeError, match="permute"):
        _Restricted(rs, [identity(rs), rs.reflection(0)], {"x_perp": (1,)})
