"""Verification suites: executable checks behind `verify` and the test suite.

Each function returns a report dict with an "ok" flag and per-check details;
they are exhaustive over the stated objects, never sampled.
"""

from __future__ import annotations

import itertools

import numpy as np

from .diagrams import close_root_masks
from .galois import perp_map, perp_masks, pq_map
from .groups import BRUTE_LIMIT, generate, relative_length
from .involutions import section8_checks
from .normalizer import (compute_table, decompose, goursat_sections,
                         normalizer, normalizer_order, verify_theorem13)
from .oracle import (commutation_table, diff_fixture, load_fixture, normalizing,
                     positive_images)
from .parabolic import _members, shape_catalog, standard_parabolic


def _standard_subsets(rs):
    return [_members(mask, rs.n) for mask in range(1 << rs.n)]


def _standard_masks(rs):
    """The root masks of every W_J, row ``mask`` the subset of that bitmask."""
    masks = np.arange(1 << rs.n)
    return (rs.supports & ~masks[:, None]) == 0


def _commutation_witness(rs, u, perp):
    """The first subset J whose commuting reflections do not generate perp(W_J).

    Row ``mask`` of the stacks u and perp holds W_J and its complement for
    the subset J of that bitmask.  The positive roots whose reflection
    commutes with every reflection of W_J are one product with the negated
    ``commutation_table``, and the groups they generate are closed together
    by ``close_root_masks``; neither reads the orthogonality table.  None
    when every row agrees.
    """
    commuting = np.zeros_like(u)
    commuting[:, : rs.npos] = ~(u[:, : rs.npos] @ ~commutation_table(rs))
    rows = np.flatnonzero((close_root_masks(rs, commuting) != perp).any(axis=1))
    return _members(int(rows[0]), rs.n) if rows.size else None


def verify_galois(rs) -> dict:
    """Galois laws for the orthogonality connection, over standard parabolics.

    Row ``mask`` of each root-mask stack is the subset of that bitmask, in
    ``_standard_subsets`` order.  The chain u, perp u, ..., perp^4 u is four
    calls of ``perp_masks``; each law is a row-wise test on two of its masks,
    its witness the first failing row.  Antitony holds on all pairs iff it
    holds on the covering pairs J < J + {i}, one vectorized test per i; when
    one fails, the pairs are walked in ``itertools.combinations`` order for
    the first failing pair.  The commutation oracle reads one commutation
    table per call and closes every commuting set in one fixpoint
    (``_commutation_witness``).
    """
    report = {"group": str(rs.label), "checks": {}}
    subsets = _standard_subsets(rs)
    masks = np.arange(len(subsets))
    chain = [_standard_masks(rs)]   # chain[k][mask]: perp^k W_J
    for _ in range(4):
        chain.append(perp_masks(rs, chain[-1]))
    u, perp = chain[:2]

    def record(law, bad):
        report["checks"][law] = {"ok": bad is None, "witness": bad}

    def first(failing):
        rows = np.flatnonzero(failing)
        return subsets[rows[0]] if rows.size else None

    record("extensive", first((u & ~chain[2]).any(axis=1)))
    covering = ((perp[low | 1 << i] & ~perp[low]).any()
                for i in range(rs.n) for low in [masks[(masks >> i & 1) == 0]])
    pairs = itertools.combinations(range(len(subsets)), 2)   # a < b: only a <= b can hold
    record("antitone", next(((subsets[a], subsets[b]) for a, b in pairs
                             if a & ~b == 0 and (perp[b] & ~perp[a]).any()), None)
           if any(covering) else None)
    record("triple_perp", first((chain[3] != perp).any(axis=1)))
    record("closure_idempotent", first((chain[4] != chain[2]).any(axis=1)))

    if rs.group_order <= BRUTE_LIMIT:
        record("commutation_route_agrees", _commutation_witness(rs, u, perp))

    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def verify_howlett(rs) -> dict:
    """Howlett complements for every standard parabolic: N = P x| H exactly."""
    report = {"group": str(rs.label), "checks": {}}
    W = generate(rs.simple_reflections())
    images = positive_images(W)
    bad = None
    for subset in _standard_subsets(rs):
        P = standard_parabolic(rs, subset)
        N = [W[i] for i in np.flatnonzero(normalizing(P, images))]
        H = [w for w in N if relative_length(w, P.pos) == 0]
        P_group = generate(P.simple_reflections(), rs=rs)
        P_keys = {w.key for w in P_group}
        H_keys = {w.key for w in H}
        inter = P_keys & H_keys
        prod = {(p * h).key for p in P_group for h in H}
        ok = (len(inter) == 1
              and len(prod) == len(N)
              and len(P_keys) * len(H_keys) == len(N))
        if ok:
            for h in H:
                hinv = h.inverse()
                for p in P_group:
                    if relative_length((hinv * p) * h, P.pos) != relative_length(p, P.pos):
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            bad = subset
            break
    report["checks"]["complement"] = {"ok": bad is None, "witness": bad}
    report["ok"] = bad is None
    return report


def verify_goursat(rs) -> dict:
    """Goursat sections of N inside O(X_perp) x O(X), for every shape."""
    report = {"group": str(rs.label), "checks": {}}
    catalog = shape_catalog(rs)
    bad_sections = None
    bad_order = None
    bad_normal = None
    for shape in catalog:
        dec = decompose(rs, shape)
        if dec.n_order != dec.p_order * dec.q_order * len(dec.A) * len(dec.B) * len(dec.C):
            bad_order = shape.label
            break
        rep = verify_theorem13(dec)
        if not rep["ok"]:
            bad_normal = (shape.label, rep["witness"])
            break
        if not rs.is_vector:  # the sections compare coordinate restriction matrices
            continue
        N = normalizer(dec.P)
        sec = goursat_sections(N, rs.span(dec.P.simples), dec.P.witness, complement=dec.D)
        g2 = {w.key for w in sec.kernels[0]}
        h2 = {w.key for w in sec.kernels[1]}
        p_keys = {w.key for w in generate(dec.P.simple_reflections(), rs=rs)}
        q_keys = {w.key for w in generate(dec.Q.simple_reflections(), rs=rs)}
        theta = {}
        ok = g2 == p_keys and h2 == q_keys
        if ok and sec.complements:
            for m1, m2 in zip(*sec.complements):
                if m1 in theta and theta[m1] != m2:
                    ok = False
                    break
                theta[m1] = m2
            if ok and len(theta) != len(set(theta.values())):
                ok = False
            if ok and len(theta) != len(dec.D):
                ok = False
        if not ok:
            bad_sections = shape.label
            break
    report["checks"]["order_product"] = {"ok": bad_order is None, "witness": bad_order}
    report["checks"]["pqab_normal_index2"] = {"ok": bad_normal is None, "witness": bad_normal}
    report["checks"]["sections"] = {"ok": bad_sections is None, "witness": bad_sections}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def verify_section8(rs) -> dict:
    """Observation suite plus the closure-of-PQ-closure law.

    Both read the class of the parabolic closure of PQ of every shape off
    the catalog's ``galois.PQMap``, and its orthogonal closure as
    perp(perp(.)) on the catalog's map perp on shapes; the class of W is the
    last one.
    """
    catalog = shape_catalog(rs)
    report = section8_checks(rs)
    perp, pq = perp_map(catalog).index, pq_map(catalog).index
    bad = next((s.label for s in catalog
                if perp[perp[pq[s.index]]] != len(catalog)), None)
    report["checks"]["pq_closure_orthogonal_closure_is_w"] = {
        "ok": bad is None, "witness": bad}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def verify_fixtures(rs) -> dict:
    """Golden table diff: zero mismatched cells required."""
    fixture = load_fixture(str(rs.label))
    rows = compute_table(rs)
    catalog = shape_catalog(rs)
    result = diff_fixture(fixture, rows, catalog)
    return {"group": str(rs.label), "ok": result["ok"],
            "mismatches": result["mismatches"]}


def verify_oracle(rs) -> dict:
    """Fast paths against brute force: normalizer and orthogonal complement."""
    report = {"group": str(rs.label), "checks": {}}
    W = generate(rs.simple_reflections())
    images = positive_images(W)
    catalog = shape_catalog(rs)
    bad = None
    for shape in catalog:
        P = shape.parabolic
        brute = [W[i] for i in np.flatnonzero(normalizing(P, images))]
        try:
            order = normalizer_order(P)
        except ValueError:   # the fast complement of P is not a parabolic's root set
            bad = shape.label
            break
        if len(brute) != order:
            bad = shape.label
            break
        N = normalizer(P)
        if {w.key for w in brute} != {w.key for w in N}:
            bad = shape.label
            break
    report["checks"]["normalizer"] = {"ok": bad is None, "witness": bad}
    u = _standard_masks(rs)
    bad = _commutation_witness(rs, u, perp_masks(rs, u))
    report["checks"]["orthogonal_complement"] = {"ok": bad is None, "witness": bad}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


SUITES = {
    "galois": verify_galois,
    "howlett": verify_howlett,
    "goursat": verify_goursat,
    "section8": verify_section8,
    "fixtures": verify_fixtures,
    "oracle": verify_oracle,
}
