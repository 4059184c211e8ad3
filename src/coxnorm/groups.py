"""Group elements as permutations of the root index set.

An element w is stored as the numpy array ``img`` with ``img[i]`` the index
of the image of root i under w.  The action is on the right, matching the
convention alpha.w used throughout: ``(a*b).img[i] == b.img[a.img[i]]``.

Roots are indexed so that negation is ``i <-> i + npos (mod 2*npos)``; every
element commutes with negation, so the images of the positive roots determine
the element.  That positive-image array, as a list of integers, is the
canonical encoding used for hashing, ordering and JSON output.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

ENUMERATION_LIMIT = 10 ** 7
# largest group the brute-force oracles and explicit normalizers enumerate
BRUTE_LIMIT = 10 ** 6


class GroupElement:
    """A permutation of the roots of a root system, acting on the right."""

    __slots__ = ("rs", "img", "_key")

    def __init__(self, rs, img):
        self.rs = rs
        self.img = img
        self._key = None

    @property
    def key(self):
        if self._key is None:
            self._key = self.img[: self.rs.npos].tobytes()
        return self._key

    def __mul__(self, other):
        if other.rs is not self.rs:
            raise ValueError("elements of different groups cannot be composed")
        return GroupElement(self.rs, other.img[self.img])

    def inverse(self):
        inv = np.empty_like(self.img)
        inv[self.img] = np.arange(len(self.img), dtype=self.img.dtype)
        return GroupElement(self.rs, inv)

    def is_identity(self):
        return bool((self.img[: self.rs.npos] == np.arange(self.rs.npos)).all())

    def is_involution(self):
        return bool((self.img[self.img] == np.arange(len(self.img))).all())

    def order(self):
        n = 1
        w = self
        while not w.is_identity():
            w = w * self
            n += 1
        return n

    def canonical(self):
        """Canonical encoding: image list of the positive-root indices."""
        return tuple(int(x) for x in self.img[: self.rs.npos])

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GroupElement({self.canonical()})"


def identity(rs) -> GroupElement:
    return GroupElement(rs, np.arange(rs.nroots, dtype=np.int16))


def generate(gens, rs=None) -> list:
    """The group the generators generate, by ``_dimino``, listed in key order.

    ``rs`` supplies the identity when there are no generators.  Refused with
    RuntimeError past ENUMERATION_LIMIT.
    """
    gens = list(gens)
    if gens and any(g.rs is not gens[0].rs for g in gens):
        raise ValueError("generators must share a parent root system")
    if not gens and rs is None:
        raise ValueError("generate([]) needs the root system to supply identity")
    group, _ = _dimino(gens, identity(gens[0].rs if gens else rs), GroupElement.__mul__)
    return sorted(group, key=attrgetter("key"))


def permutation_group(perms, m):
    """The group that permutation tuples of range(m) generate, as a set, and
    the indices of ``_dimino``'s greedy generating set.  Tuples compose as
    elements do, (x*g)[i] = g[x[i]].
    """
    return _dimino(perms, tuple(range(m)), lambda x, g: tuple(map(g.__getitem__, x)))


def _dimino(gens, e, mul):
    """The group the generators generate, as a set, and the indices of a
    greedy generating set, for elements with identity ``e`` and product
    ``mul``.  A generator is kept when it lies outside the group H of those
    kept before it, and H then grows by whole cosets H(r*s), for r a coset
    representative and s a kept generator (Dimino's algorithm), so each
    element is made once.  Refused with RuntimeError past ENUMERATION_LIMIT.
    """
    elements, kept = [e], []
    group = set(elements)
    for i, g in enumerate(gens):
        if g in group:
            continue
        kept.append(i)
        H, reps = list(elements), elements[:1]
        for r in reps:
            for k in kept:
                x = mul(r, gens[k])
                if x not in group:
                    reps.append(x)
                    coset = [mul(h, x) for h in H]
                    group.update(coset)
                    elements += coset
                    if len(elements) > ENUMERATION_LIMIT:
                        raise RuntimeError(f"group enumeration exceeded limit {ENUMERATION_LIMIT}")
    return group, kept


def relative_length(w: GroupElement, sub_positive) -> int:
    """Number of the given positive roots sent negative by w.

    ``sub_positive`` is the positive system of a reflection subgroup, as an
    iterable of positive-root indices.
    """
    idx = np.asarray(sorted(sub_positive), dtype=np.int64)
    if idx.size == 0:
        return 0
    return int((w.img[idx] >= w.rs.npos).sum())


def parabolic_longest_element(rs, simples, start=None, steps=None) -> GroupElement:
    """Longest element of the subgroup generated by the reflections in ``simples``.

    ``simples`` must be a simple system (of a standard parabolic, or of any
    reflection subgroup with its inherited positive system).  Each step
    multiplies by the reflection in the first simple root still sent positive
    (its position in ``simples`` is appended to ``steps``, if a list is
    given), which raises the length, until every simple root is sent
    negative.  The climb starts at ``start`` (the identity by default), which
    must lie in the subgroup: it then ends at the one element sending every
    simple root negative.
    """
    idx = np.asarray(simples, dtype=np.int64)
    img = np.arange(rs.nroots, dtype=np.int16) if start is None else start.img
    while idx.size:
        up = np.flatnonzero(img[idx] < rs.npos)
        if not up.size:
            break
        if steps is not None:
            steps.append(int(up[0]))
        img = img[rs.reflection_perm(int(idx[up[0]]))]
    return GroupElement(rs, img)


class OrbitStabilizer:
    """Orbit of a set of root indices under a permutation group.

    States are sorted index tuples encoded as bytes.  The transversal is kept
    as parent pointers (state -> (parent state, generator index)); elements
    are reconstructed on demand, so large orbits stay cheap in memory.
    """

    def __init__(self, rs, gens, seed):
        self.rs = rs
        self.gens = list(gens)
        seed_arr = np.array(sorted(seed), dtype=np.int16)
        self.seed_key = seed_arr.tobytes()
        self.parents = {self.seed_key: None}
        order = [self.seed_key]
        gen_imgs = [g.img for g in self.gens]
        head = 0
        while head < len(order):
            key = order[head]
            arr = np.frombuffer(key, dtype=np.int16)
            head += 1
            for gi, img in enumerate(gen_imgs):
                nkey = np.sort(img[arr]).tobytes()
                if nkey not in self.parents:
                    self.parents[nkey] = (key, gi)
                    order.append(nkey)
        self.order = order

    @property
    def orbit_size(self):
        return len(self.parents)

    def transversal(self, key) -> GroupElement:
        """An element carrying the seed set to the state with this key."""
        word = []
        while True:
            p = self.parents[key]
            if p is None:
                break
            key, gi = p
            word.append(gi)
        img = np.arange(self.rs.nroots, dtype=np.int16)
        for gi in reversed(word):
            img = self.gens[gi].img[img]
        return GroupElement(self.rs, img)

    def schreier_generators(self):
        """Yield the (nontrivial) Schreier generators of the stabilizer."""
        for key in self.order:
            u = self.transversal(key)
            state = np.frombuffer(key, dtype=np.int16)
            for g in self.gens:
                nxt_key = np.sort(g.img[state]).tobytes()
                v = self.transversal(nxt_key)
                s = u * g * v.inverse()
                if not s.is_identity():
                    yield s
