import itertools
import random
import tracemalloc

import numpy as np
import pytest

from coxnorm import actions
from coxnorm.actions import (LineTable, SpaceRestriction, canonical_lines, invariant_split,
                             line_table)
from coxnorm.diagrams import gram_bonds, positive_part
from coxnorm.galois import orthogonal_complement, perp_map, pq_closures
from coxnorm.groups import generate
from coxnorm.linalg import form_pairs, pair_matmul, pair_mul
from coxnorm.normalizer import _complement_D, decompose
from coxnorm.parabolic import ReflectionSubgroup, shape_catalog, standard_parabolic
from coxnorm.qsqrt5 import Q5
from coxnorm.rootsys import build_root_system

from fixture_groups import FIXTURE_GROUPS, ORACLE_GROUPS
from oracles import close_roots, line_tests



def apply_to_pairs(w, x):
    """Images of the pair rows x under w (right action), scaled by 2.

    Row v maps to the sum of v_i w(a_i), and w(a_i) is the root w.img[i] of
    the table, whose entries are halves; so the identity doubles every row.
    """
    return pair_matmul(x, w.rs.rows(w.img[: w.rs.n]))


def fixes_pointwise(w, X):
    """Does w fix the subspace X pointwise?  apply_to_pairs doubles the rows it fixes."""
    image = apply_to_pairs(w, X.pairs)
    return all((im == 2 * x).all() for im, x in zip(image, X.pairs))


def pairs(*rows):
    """Pair rows of integer rows holding the p entries, then the q entries."""
    a = np.array(rows, dtype=np.int64)
    n = a.shape[1] // 2
    return a[:, :n], a[:, n:]


# two roots at 120 degrees
A2_FORM = form_pairs(((Q5(2), Q5(-1)), (Q5(-1), Q5(2))))


def lines_alone(lines, form):
    """The diagram of a set of lines named by a line table of its own."""
    return LineTable(form).diagram(lines)


def test_invariant_split_extremes():
    rs = build_root_system("B3")
    whole = ReflectionSubgroup(rs, frozenset(range(rs.nroots)))
    trivial = ReflectionSubgroup(rs, frozenset())
    x, m, y = invariant_split(whole, orthogonal_complement(whole))
    assert (x.dim, m.dim, y.dim) == (3, 0, 0)
    x, m, y = invariant_split(trivial, orthogonal_complement(trivial))
    assert (x.dim, m.dim, y.dim) == (0, 0, 3)


def test_invariant_split_worked_example():
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    dec = decompose(rs, P)
    xperp, mid, yperp = dec.spaces
    assert xperp.dim == 3 and yperp.dim == 3 and mid.dim == 3
    # D acts faithfully on X_perp as the symmetric group on three letters
    xsp = SpaceRestriction(rs, xperp.pairs)
    images = {xsp.matrix(d) for d in dec.D}
    assert len(images) == 6
    # P fixes X = mid + yperp pointwise
    for i in P.simples:
        assert fixes_pointwise(rs.reflection(i), P.witness)
    # the restriction of D to the mid space is the A2 reflection action
    assert dec.actions["x_cap_y"].descriptor() == "A2"


def test_restrict_is_homomorphism():
    # the restriction of a*b (a first) is b applied to the images under a;
    # apply_to_pairs doubles each time, so those images are twice the key's
    rs = build_root_system("A9")
    P = standard_parabolic(rs, (4, 6, 8))
    dec = decompose(rs, P)
    xsp = SpaceRestriction(rs, dec.spaces[0].pairs)
    rng = random.Random(3)
    ds = list(dec.D)
    for _ in range(10):
        a, b = rng.choice(ds), rng.choice(ds)
        ma = np.array(xsp.matrix(a)).reshape(xsp.dim, 2 * rs.n)
        twice = apply_to_pairs(b, (ma[:, :rs.n], ma[:, rs.n:]))
        assert tuple(np.hstack(twice).ravel() // 2) == xsp.matrix(a * b)
    assert len({xsp.matrix(d) for d in ds}) == len(ds)


def test_restrict_trivial_cases():
    rs = build_root_system("A3")
    from coxnorm.groups import identity
    line = SpaceRestriction(rs, rs.span([0]).pairs)
    assert line.matrix(identity(rs)) == line.identity
    assert line.matrix(rs.reflection(0)) == tuple(-x for x in line.identity)
    assert line.reflection_line(line.identity) is None


def test_diagram_of_lines_rank2():
    lines = set(canonical_lines(pairs((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))))
    assert lines_alone(lines, A2_FORM) == ("A2",)
    assert lines_alone({(1, 0, 0, 0)}, A2_FORM) == ("A1",)


def test_canonical_lines_are_the_primitive_rational_first_keys():
    # (2 + 2r5, 2) times 2 - 2r5 is (-16, 4 - 4r5), whose key is (4, -1 + r5);
    # (-1 - r5, -1) is on the same line, and (0, 3 - 3r5) on that of (0, 1)
    assert canonical_lines(pairs((2, 2, 2, 0), (-1, -1, -1, 0), (0, 3, 0, -3))) == \
        [(4, -1, 0, 1), (4, -1, 0, 1), (0, 1, 0, 0)]


def _key(x):
    """The key of pair rows x: each row's p entries, then its q entries."""
    return tuple(np.hstack(x).ravel().tolist())


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "F4"])
def test_reflection_line_is_exactly_the_reflections(name):
    # the batched restriction of all of W, in one call, against each element
    # restricted on its own by apply_to_pairs
    rs = build_root_system(name)
    eye = np.eye(rs.n, dtype=np.int64)
    W = list(generate(rs.simple_reflections()))
    reflections = {rs.reflection(i).key: i for i in range(rs.npos)}
    for basis in (rs.rows(rs.simple_roots), (eye, 0 * eye)):
        space = SpaceRestriction(rs, basis)
        table = space.restrictions(W)
        assert len(table) == len(W)
        for w in W:
            beta = reflections.get(w.key)
            want = None if beta is None else canonical_lines(rs.rows([beta]))[0]
            assert table[w.key] == (_key(apply_to_pairs(w, basis)), want)
            assert space.reflection_line(space.matrix(w)) == want


@pytest.mark.parametrize("name", ["B6", "D6", "E7", "F4", "H3", "H4"])
def test_diagram_of_rescaled_root_lines_is_the_subsystem(name):
    # lines are unsigned and unscaled: rescaling each root row by a nonzero
    # integer or by a multiple of phi or of 1/phi must leave the diagram of
    # every subsystem unchanged
    rs = build_root_system(name)
    rng = random.Random(name)
    factors = [(1, 0), (3, 0), (-5, 0), (1, 1), (-2, 2), (3, 1), (-3, -1)]
    subsystems = [frozenset(range(rs.nroots))]
    for _ in range(15):
        roots = rng.sample(range(rs.npos), rng.randint(1, rs.n + 1))
        subsystems.append(close_roots(rs, roots))
    for roots in subsystems:
        lines = []
        for i in positive_part(rs, roots):
            p, q = pair_mul(rs.rows([i]), rng.choice(factors))
            lines.append(tuple(np.hstack((p, q)).ravel().tolist()))
        assert lines_alone(lines, rs.form) == ReflectionSubgroup(rs, roots).components, roots


def test_diagram_of_lines_refuses_overflow():
    lines = [(1, 0, 0, 0), (1, 1 << 40, 0, 0)]
    with pytest.raises(RuntimeError):
        lines_alone(lines, A2_FORM)


def test_line_table_names_lines_of_any_dimension():
    # the lines a_2i - a_2j (i < j < 20) of A40 are the roots of A19 in a
    # 40-dimensional space: naming them needs no value that grows with the
    # dimension
    rs = build_root_system("A40")
    lines = []
    for i, j in itertools.combinations(range(0, 40, 2), 2):
        p = [0] * 2 * rs.n
        p[i], p[j] = 1, -1
        lines.append(tuple(p))
    assert len(lines) == 190
    assert lines_alone(lines, rs.form) == ("A19",)


@pytest.mark.parametrize("name", ["B6", "D6", "E7", "F4", "H4"])
def test_diagram_of_root_lines_is_the_root_system(name):
    rs = build_root_system(name)
    lines = set(canonical_lines(rs.rows(range(rs.npos))))
    assert lines_alone(lines, rs.form) == \
        ReflectionSubgroup(rs, frozenset(range(rs.nroots))).components


def test_dimension_sum_is_rank():
    rs = build_root_system("B4")
    for shape in shape_catalog(rs):
        dec = decompose(rs, shape)
        x, m, y = dec.spaces
        assert x.dim + m.dim + y.dim == rs.n


def test_a_family_x_perp_types():
    # the reflection action on X_perp has type B_{a2} A_2^{a3} A_3^{a4} ...
    from coxnorm.diagrams import components_string
    for name in ["A4", "A5", "A6", "A7"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            dec = decompose(rs, shape)
            mult = {}
            for p in shape.partition:
                mult[p] = mult.get(p, 0) + 1
            expected = []
            a2 = mult.get(2, 0)
            if a2 == 1:
                expected.append("A1")  # a lone 2-part contributes no extra node
            elif a2 > 1:
                expected.append(f"B{a2}")
            for k, a in mult.items():
                if k >= 3:
                    expected.extend([f"A{k - 1}"] * a)
            got = dec.actions["x_perp"].diagram
            assert components_string(tuple(got)) == \
                components_string(tuple(expected)), (name, shape.label)


def test_minus_identity_cell():
    rs = build_root_system("D6")
    cat = shape_catalog(rs)
    dec = decompose(rs, cat.by_selector("[51]"))
    cell = dec.actions["x_cap_y"]
    assert cell.descriptor() == "-1"
    assert cell.classification == "minus-identity"
    assert dec.a_name == "A1:HEART"


# a witness of each naming rule, in the order the rules are tried (README)
RULE_WITNESSES = [
    ("D6", 18, "a", "A1:HEART"),      # no reflection on any space
    ("E8", 10, "b", "B2:SPADE"),      # reflections, but no reflection-group image
    ("E7", 16, "a", "G2:SPADE"),      # reflection-group images of conflicting types
    ("D6", 13, "a", "A1^2:CLUB"),     # one type, reflected by other elements
    ("E8", 9, "a", "A1:DIAMOND"),     # A x B, not A, acts on X_perp by reflections
    ("E8", 22, "a", "B2:HEART"),      # A of order 8, no reflection on X_perp
]


def test_markers():
    for group, index, factor, name in RULE_WITNESSES:
        rs = build_root_system(group)
        dec = decompose(rs, shape_catalog(rs)[index])
        assert getattr(dec, f"{factor}_name") == name, (group, index)


def test_faithfulness_of_a_on_x_perp():
    # A acts faithfully on X_perp, permuting the roots of P, and fixes Y_perp
    for name in ["A5", "B4", "D5"]:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            dec = decompose(rs, shape)
            for a in dec.A:
                assert all(int(a.img[q]) == q for q in dec.Q.simples)
                assert all(int(a.img[i]) in dec.P.roots for i in dec.P.pos)
            xsp = SpaceRestriction(rs, rs.rows(dec.P.simples)) if dec.P.pos else None
            if xsp and len(dec.A) > 1:
                assert len({xsp.matrix(a) for a in dec.A}) == len(dec.A)


def _classes_and_lines(table):
    """The classes of D a restriction table splits it into, and each element's line."""
    classes = {}
    for key, (M, _) in table.items():
        classes.setdefault(M, set()).add(key)
    return ({frozenset(c) for c in classes.values()},
            {key: line for key, (_, line) in table.items()})


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_simple_root_rows_restrict_d_as_the_echelon_bases_do(name):
    # decompose restricts D to X_perp and Y_perp on the simple roots of P and
    # of Q; invariant_split's echelon bases of the same spaces must split D
    # into the same classes, with the same reflecting elements and lines
    rs = build_root_system(name)
    for shape in shape_catalog(rs):
        dec = decompose(rs, shape)
        spaces = invariant_split(dec.P, dec.Q)
        assert dec.spaces == spaces, (name, shape.label)
        if len(dec.D) == 1:
            continue
        for base, V in ((dec.P, spaces[0]), (dec.Q, spaces[2])):
            if base.simples:
                assert (_classes_and_lines(SpaceRestriction(rs, rs.rows(base.simples))
                                           .restrictions(dec.D))
                        == _classes_and_lines(SpaceRestriction(rs, V.pairs)
                                              .restrictions(dec.D))), (name, shape.label)


@pytest.mark.parametrize("name", FIXTURE_GROUPS)
def test_images_named_from_the_line_table_match_their_lines_alone(name, monkeypatch):
    # every image decompose names (the three cells, A, B and C on each space,
    # A x B on X_perp for the diamond rule) reads the root system's line
    # table, one table object for every row of the group; the diagram of its
    # lines must be the one they give alone
    named = []
    original = LineTable.diagram

    def recording(self, lines):
        diagram = original(self, lines)
        named.append((self, frozenset(lines), diagram))
        return diagram

    monkeypatch.setattr(LineTable, "diagram", recording)
    rs = build_root_system(name)
    rows = []
    for shape in shape_catalog(rs):
        decompose(rs, shape)
        rows.append(named[:])
        named.clear()
    monkeypatch.undo()
    tables = {id(table) for row in rows for table, _, _ in row}
    assert not tables or tables == {id(line_table(rs))}, name
    for row in rows:
        for _, lines, diagram in row:
            assert lines_alone(lines, rs.form) == diagram, (name, sorted(lines))
    assert name.startswith("I2") or any(len(lines) > 1 for row in rows for _, lines, _ in row)


def test_decomposing_every_shape_of_e7_tests_each_pair_of_lines_once(monkeypatch,
                                                                    fresh_line_tables):
    # one line table serves all 32 rows: each unordered pair of lines that a
    # named set holds is tested exactly once, and no other pair is.  Rows
    # name the same pairs again, so a table per row tests some pair twice,
    # and a table that tests every pair of the lines it holds tests pairs
    # that no set names
    requested, tested = [], []
    diagram, test_pair = LineTable.diagram, LineTable._test_pair

    def recording(self, lines):
        requested.append(frozenset(lines))
        return diagram(self, lines)

    def counting(self, i, j):
        keys = {row: line for line, row in self._index.items()}
        tested.append(frozenset((keys[i], keys[j])))
        return test_pair(self, i, j)

    monkeypatch.setattr(LineTable, "diagram", recording)
    monkeypatch.setattr(LineTable, "_test_pair", counting)
    rs = build_root_system("E7")
    catalog = shape_catalog(rs)
    assert len(catalog) == 32
    for shape in catalog:
        decompose(rs, shape)
    pairs = [frozenset(pair) for lines in requested for pair in itertools.combinations(lines, 2)]
    assert len(tested) == len(set(tested)) == len(set(pairs)) < len(pairs)
    assert set(tested) == set(pairs)


def _memo(table, a, b):
    """(b keeps a, a keeps b, bond) of lines a and b, read off the table's memo."""
    i, j = table._index[a], table._index[b]
    if i < j:
        return table.pairs[i, j]
    kept_b, kept_a, bond = table.pairs[j, i]
    return kept_a, kept_b, bond


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_one_pass_bonds_match_the_bonds_of_each_subset(name, monkeypatch):
    # the line table tests each pair of lines once and keeps the result; for
    # every subset decompose names, the simple tests it kept must be those
    # of the stacked oracle on the subset alone, and the bonds it kept among
    # the subset's simple lines those of the bond rule on their Gram matrix
    named = []
    original = LineTable.diagram

    def recording(self, lines):
        named.append((self, frozenset(lines)))
        return original(self, lines)

    monkeypatch.setattr(LineTable, "diagram", recording)
    rs = build_root_system(name)
    for shape in shape_catalog(rs):
        decompose(rs, shape)
    monkeypatch.undo()
    checked = 0
    for table, lines in named:
        if len(lines) <= 1:
            continue
        index, G, keep, _ = line_tests(lines, rs.form)
        for a, b in itertools.permutations(lines, 2):
            assert _memo(table, a, b)[0] == keep[index[a], index[b]], (name, a, b)
        simples = [line for line in lines if keep[[index[a] for a in lines], index[line]].all()]
        rows = [index[line] for line in simples]
        sub = np.ix_(rows, rows)
        want = gram_bonds((G[0][sub], G[1][sub]))
        for (x, a), (y, b) in itertools.combinations(enumerate(simples), 2):
            assert _memo(table, a, b)[2] == want[x, y], (name, a, b)
        checked += 1
    assert name.startswith("I2") or checked


def test_restrictions_take_the_pair_product_in_batches(monkeypatch):
    # A13's 2^7 row restricts |D| = 5,040 elements to X n Y; with the batch
    # cut to 512, the traced peak beyond the returned table must stay near
    # that of one batch restricted alone, which an unbatched product of all
    # 5,040 root-row stacks (about ten batches' worth) exceeds
    rs = build_root_system("A13")
    catalog = shape_catalog(rs)
    shape = catalog.by_selector("A1^7")
    P, Q = shape.parabolic, perp_map(catalog).complement[shape.index]
    (projections,), _, _ = pq_closures(catalog, [P], [Q])
    D = _complement_D(rs, shape.rep_subset, P, Q)
    assert len(D) == 5040
    monkeypatch.setattr(actions, "_BATCH", 512)

    def transient(elements):
        tracemalloc.start()
        table = SpaceRestriction(rs, projections).restrictions(elements)
        size, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(table) == len(elements)
        return peak - size

    assert transient(D) < 2 * transient(D[:512])
