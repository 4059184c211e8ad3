"""Defect injection: each check this module reaches must fail when its fact is
broken, either as a verification failure (``ok: false``, CLI exit 1) or as
an internal error with the check's message (CLI exit 4)."""

import importlib
import json

import numpy as np
import pytest

from coxnorm import cli, galois, parabolic
from coxnorm.actions import line_table
from coxnorm.galois import orthogonal_complement, perp_map, pq_map
from coxnorm.normalizer import normalizer_order_at
from coxnorm.parabolic import shape_catalog
from coxnorm.rootsys import build_root_system

from oracles import classical_normalizer_order

normalizer = importlib.import_module("coxnorm.normalizer")


@pytest.fixture
def fresh(monkeypatch):
    """A fresh catalog per group, so a defect reaches the map perp on shapes."""
    monkeypatch.setattr(parabolic, "_catalogs", {})


# (group, shape, Delta_P u Delta_perp(P) has n roots): a full set's closure
# is W with no orbit sum, and every set's split of the space, rest on one
# orthogonality gather
ORTHOGONAL_SETS = [("B3", "s1", True), ("F4", "s1", True), ("E6", "A5", True),
                   ("A3", "s1", False), ("D5", "s1,s2", False)]


@pytest.mark.parametrize("group, selector, full", ORTHOGONAL_SETS)
def test_a_perp_simple_system_not_orthogonal_to_p_is_an_internal_error(
        monkeypatch, capsys, fresh, group, selector, full):
    # one simple root of perp(P) is swapped for a positive root not
    # orthogonal to Delta_P
    rs = build_root_system(group)
    P = shape_catalog(rs).by_selector(selector).parabolic
    Q = orthogonal_complement(P)
    assert Q.simples and (len(P.simples) + len(Q.simples) == rs.n) == full
    wrong = next(c for c in range(rs.npos)
                 if not rs.orthogonality[list(P.simples), c].all())
    target = np.zeros(rs.npos, dtype=bool)
    target[list(Q.pos)] = True
    original = galois.simple_masks

    def corrupted(rs, pos):
        out = original(rs, pos)
        for row in np.flatnonzero((pos == target).all(axis=1)):
            out[row, Q.simples[0]], out[row, wrong] = False, True
        return out

    monkeypatch.setattr(galois, "simple_masks", corrupted)
    assert cli.main(["decompose", group, selector]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: a simple root of P is not orthogonal to one of perp(P)\n"


# (group, two shapes whose perp classes are swapped): each swap changes the
# orthogonal closure of a shape, or the complement of a marked one
SWAPS = [("E6", "A1", "A2"), ("E6", "A1", "A5"), ("F4", "A1'", "A1''"),
         ("B4", "B1 [1 1 1]", "A1 [2 1 1]"), ("H4", "A1", "A2")]


@pytest.mark.parametrize("group, left, right", SWAPS)
def test_swapped_perp_classes_fail_the_section8_suite(capsys, fresh, group, left, right):
    rs = build_root_system(group)
    catalog = shape_catalog(rs)
    i, j = (catalog.by_selector(label).index for label in (left, right))
    index = perp_map(catalog).index
    assert index[i] != index[j]
    index[i], index[j] = index[j], index[i]
    assert cli.main(["verify", group, "--suite", "section8"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(not check["ok"] and check["witness"] is not None
               for check in report["checks"].values())


# (group, two shapes whose Delta_P u Delta_perp(P) hold fewer than n roots
# and whose closures of P perp(P) lie in different classes): the
# decompositions read those classes off the catalog's map
SWAPPED_CLOSURES = [("E6", "A1^2", "A1^3"), ("F4", "(A2A1)'", "(A2A1)''"),
                    ("H4", "A2A1", "A3"), ("D5", "A2 [3 1 1]", "A3 [4 1]"),
                    ("B5", "A3 [4 1]", "A4 [5]")]


@pytest.mark.parametrize("group, left, right", SWAPPED_CLOSURES)
def test_swapped_closure_classes_fail_the_fixture_suite(capsys, fresh, group, left, right):
    rs = build_root_system(group)
    catalog = shape_catalog(rs)
    i, j = (catalog.by_selector(label).index for label in (left, right))
    index = pq_map(catalog).index
    assert index[i] != index[j]
    index[i], index[j] = index[j], index[i]
    assert cli.main(["verify", group, "--suite", "fixtures"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["mismatches"]
    assert {m["column"] for m in report["mismatches"]} == {"closure"}


@pytest.fixture
def fresh_groupoids(monkeypatch):
    """Fresh subset groupoids, so a defect reaches the edge maps they keep."""
    monkeypatch.setattr(parabolic, "_groupoids", {})


# (group, shape): D is nontrivial, so D_pi has a generating loop to drop
DROPPED_LOOPS = [("B3", "A2"), ("B4", "A3"), ("D5", "A3"), ("F4", "A2'"), ("H3", "H2")]


@pytest.mark.parametrize("group, selector", DROPPED_LOOPS)
def test_a_dropped_generating_loop_is_an_internal_error(monkeypatch, capsys, group, selector):
    # D is generated from the loops whose permutations generate D_pi; without
    # the last of them D is smaller than D_pi, and the explicit N than the
    # |N| read off D_pi
    original = parabolic.SubsetGroupoid.loop_elements
    monkeypatch.setattr(parabolic.SubsetGroupoid, "loop_elements",
                        lambda self, tree, edges: original(self, tree, edges)[:-1])
    assert cli.main(["decompose", group, selector]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: D differs from its permutation image\n"
    assert cli.main(["verify", group, "--suite", "oracle"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: normalizer enumeration incomplete\n"


def corrupt_move(monkeypatch, C, s):
    """Swap the images of the first two nodes of C - {s} in the map of the
    edges of (C, s)."""
    original = parabolic.SubsetGroupoid._move

    def corrupted(self, C2, s2):
        move = original(self, C2, s2)
        if (C2, s2) != (C, s):
            return move
        move, (a, b) = list(move), [j for j in range(self.rs.n) if C >> j & 1 and j != s][:2]
        move[a], move[b] = move[b], move[a]
        return tuple(move)

    monkeypatch.setattr(parabolic.SubsetGroupoid, "_move", corrupted)


# (group, shape, C, s): swapping the images of two nodes of C - {s} in the
# map of the edges of (C, s) enlarges D_pi at that shape
CORRUPTED_MOVES = [("B3", "B1A1", 0b111, 1), ("B4", "A3", 0b1111, 3), ("D5", "A3", 0b1111, 3)]


@pytest.mark.parametrize("group, selector, C, s", CORRUPTED_MOVES)
def test_a_corrupted_edge_map_is_an_internal_error(monkeypatch, capsys, fresh_groupoids,
                                                   group, selector, C, s):
    corrupt_move(monkeypatch, C, s)
    assert cli.main(["decompose", group, selector]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: D differs from its permutation image\n"
    # |N| read off D_pi no longer matches the brute-force normalizer
    assert cli.main(["verify", group, "--suite", "oracle"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"]["normalizer"]
    assert check["ok"] is False and check["witness"]


def test_an_edge_map_fault_that_shrinks_d_fails_the_oracle_suite(monkeypatch, capsys,
                                                                 fresh_groupoids):
    # swapping s1 and s3 in the map of the edges of ({s1, s2, s3}, s2) in A3
    # leaves D_pi of the A1^2 row trivial, so D, generated from the loops D_pi
    # keeps, shrinks with it and decompose's check |D| = |D_pi| passes: only
    # an independent count of N sees the fault.  The oracle suite's
    # ``normalizer`` check, |N| against the brute-force normalizer, is the
    # check that guards it
    corrupt_move(monkeypatch, 0b111, 1)
    assert cli.main(["verify", "A3", "--suite", "oracle"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"]["normalizer"]
    assert check == {"ok": False, "witness": "A1^2 [2 2]"}


def test_an_edge_map_fault_that_shrinks_d_fails_the_closed_form_orders(monkeypatch,
                                                                      fresh_groupoids):
    # the same fault, seen with no brute force: |N| read off the shrunken
    # D_pi differs from the closed form of the A1^2 row, at any rank
    corrupt_move(monkeypatch, 0b111, 1)
    catalog = shape_catalog(build_root_system("A3"))
    assert [shape.label for shape in catalog
            if normalizer_order_at(catalog, shape.index)
            != classical_normalizer_order(shape)] == ["A1^2 [2 2]"]


# (group, x_cap_y rows the fixture names A1 or A2 whose reflections are missed)
FORGOTTEN_FIXED_POINTS = [("D5", {6}), ("E6", {5})]


@pytest.mark.parametrize("group, rows", FORGOTTEN_FIXED_POINTS)
def test_a_trace_that_forgets_the_fixed_points_of_delta_q_fails_the_fixture_suite(
        monkeypatch, capsys, group, rows):
    # d reflects on X n Y iff its trace there is dim - 2: tr_V less its fixed
    # points on Delta_P and on Delta_Q.  Forgetting Delta_Q's counts d's
    # fixed simple roots of Q into X n Y, so elements that reflect there
    # and fix a simple root of Q are missed.  It ends in exit 1, a fixture
    # mismatch in the X n Y column (a missed reflection is no line, so the
    # "not a reflection" check of the lines read is not reached)
    original = normalizer._mid_traces
    monkeypatch.setattr(normalizer, "_mid_traces", lambda rs, images, deltas: original(
        rs, images, {role: delta for role, delta in deltas.items() if role != "y_perp"}))
    assert cli.main(["verify", group, "--suite", "fixtures"]) == 1
    mismatches = json.loads(capsys.readouterr().out)["mismatches"]
    assert {(m["row"], m["column"]) for m in mismatches} == {(row, "x_cap_y") for row in rows}


def test_a_trace_that_forgets_the_fixed_points_of_delta_p_is_an_internal_error(monkeypatch,
                                                                               capsys):
    # forgetting Delta_P's fixed points instead passes, in D6, an element that
    # is no reflection of X n Y among two or more keys an image names; the
    # pair product on its witness finds it is not rank one there
    original = normalizer._mid_traces
    monkeypatch.setattr(normalizer, "_mid_traces", lambda rs, images, deltas: original(
        rs, images, {role: delta for role, delta in deltas.items() if role != "x_perp"}))
    assert cli.main(["verify", "D6", "--suite", "fixtures"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: x_cap_y: a witness of the trace test is not a reflection\n"


def test_a_non_trivial_intersection_of_a_and_b_is_an_internal_error(monkeypatch, capsys):
    # D6's row 13 has A = A1^2; read B off Y_perp as A is, and A n B = A:
    # the elements acting on Y_perp as some element of B number |A|, not
    # |A||B|
    preimage = normalizer._Restricted.preimage
    monkeypatch.setattr(normalizer._Restricted, "preimage", lambda self, role, K: preimage(
        self, "y_perp" if role == "x_cap_y" else role, K))
    assert cli.main(["decompose", "D6", "13"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: A and B do not intersect trivially\n"


def test_a_lost_bond_among_simple_lines_is_an_internal_error(monkeypatch, capsys,
                                                             fresh_line_tables):
    # A3's A1^2 row names B2 on X_perp from the lines of a_1, a_3 and
    # a_1 - a_3, whose simple lines are a_3 and a_1 - a_3; a bond of 0
    # between them, kept in the line table, is no bond of the classification
    rs = build_root_system("A3")
    assert cli.main(["decompose", "A3", "s1,s3"]) == 0
    capsys.readouterr()
    table = line_table(rs)
    pair = tuple(sorted(table._index[line] for line in (rs.root_lines[2],
                                                        table.differences[0, 2])))
    assert table.pairs[pair][2] == 4
    monkeypatch.setitem(table.pairs, pair, table.pairs[pair][:2] + (0,))
    assert cli.main(["decompose", "A3", "s1,s3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: unrecognized bond ratio among the simple lines\n"


# (pair of lines of A7, the check that refuses their bond of 3 made 4): no
# single such change in a fixture group's line table passes as a mismatch.
# Each one read among simple lines is refused first, by the classifier or
# by the action cell's order check.  a_1 - a_3 and a_3 - a_5 are simple
# lines of B3, on X_perp of the A1^3 row; a_1 and a_2 are simple lines of
# A2B2, on X_perp of the A2A1^2 row, where B2B2 has an order that does not
# divide the image's
LOST_THREES = [(("differences", (0, 2)), ("differences", (2, 4)),
                "unclassifiable path with bonds [4, 4]"),
               (("roots", 0), ("roots", 1),
                "reflection part order does not divide the image order")]


@pytest.mark.parametrize("a, b, message", LOST_THREES)
def test_a_bond_of_three_made_four_fails_the_fixture_suite(monkeypatch, capsys,
                                                           fresh_line_tables, a, b, message):
    rs = build_root_system("A7")
    assert cli.main(["verify", "A7", "--suite", "fixtures"]) == 0
    capsys.readouterr()
    table = line_table(rs)
    lines = {"differences": table.differences, "roots": rs.root_lines}
    pair = tuple(sorted(table._index[lines[kind][key]] for kind, key in (a, b)))
    assert table.pairs[pair][2] == 3
    monkeypatch.setitem(table.pairs, pair, table.pairs[pair][:2] + (4,))
    assert cli.main(["verify", "A7", "--suite", "fixtures"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"internal error: {message}\n"
