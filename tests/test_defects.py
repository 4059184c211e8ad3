"""Defect injection: each check this module reaches must fail when its fact is
broken, either as a verification failure (``ok: false``, CLI exit 1) or as
an internal error with the check's message (CLI exit 4)."""

import json

import numpy as np
import pytest

from coxnorm import cli, galois, parabolic
from coxnorm.galois import orthogonal_complement, perp_map
from coxnorm.parabolic import shape_catalog
from coxnorm.rootsys import build_root_system


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


# (group, shape, C, s): swapping the images of two nodes of C - {s} in the
# map of the edges of (C, s) enlarges D_pi at that shape
CORRUPTED_MOVES = [("B3", "B1A1", 0b111, 1), ("B4", "A3", 0b1111, 3), ("D5", "A3", 0b1111, 3)]


@pytest.mark.parametrize("group, selector, C, s", CORRUPTED_MOVES)
def test_a_corrupted_edge_map_is_an_internal_error(monkeypatch, capsys, fresh_groupoids,
                                                   group, selector, C, s):
    original = parabolic.SubsetGroupoid._move

    def corrupted(self, C2, s2):
        move = original(self, C2, s2)
        if (C2, s2) != (C, s):
            return move
        move, (a, b) = list(move), [j for j in range(self.rs.n) if C >> j & 1 and j != s][:2]
        move[a], move[b] = move[b], move[a]
        return tuple(move)

    monkeypatch.setattr(parabolic.SubsetGroupoid, "_move", corrupted)
    assert cli.main(["decompose", group, selector]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: D differs from its permutation image\n"
    # |N| read off D_pi no longer matches the brute-force normalizer
    assert cli.main(["verify", group, "--suite", "oracle"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"]["normalizer"]
    assert check["ok"] is False and check["witness"]
