"""In-memory tracing of the coxnorm layers, installed from outside the library.

The tracer replaces public functions and methods of the coxnorm modules with
wrappers.  A wrapped call records a span (id, name, start, end, parent id);
the spans stay in a list until the run ends.  Because the library binds many
functions with ``from .x import f``, a function is replaced under every name
that refers to it in any coxnorm module, not only in the module defining it.

Hot per-root calls (``RootSystem.orthogonal``, ``Q5.__init__``) are counted
but not spanned.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module, attribute): module-level functions, patched everywhere.
FUNCTIONS = [
    ("rootsys.build", "rootsys", "build_root_system"),
    ("parabolic.shape_catalog", "parabolic", "shape_catalog"),
    ("parabolic.pointwise_stabilizer", "parabolic", "pointwise_stabilizer"),
    ("parabolic.fixed_space", "parabolic", "fixed_space"),
    ("groups.generate", "groups", "generate"),
    ("normalizer.decompose", "normalizer", "decompose"),
    ("normalizer.descend", "normalizer", "descend_to_complement"),
    ("normalizer.normalizer_order", "normalizer", "normalizer_order"),
    ("galois.orthogonal_complement", "galois", "orthogonal_complement"),
    ("galois.orthogonal_closure", "galois", "orthogonal_closure"),
    ("galois.parabolic_concepts", "galois", "parabolic_concepts"),
    ("galois.shape_closure_graph", "galois", "shape_closure_graph"),
    ("actions.invariant_split", "actions", "invariant_split"),
    ("linalg.rref", "linalg", "rref"),
    ("involutions.classes", "involutions", "involution_class_representatives"),
    ("involutions.section8", "involutions", "section8_checks"),
    ("verify.galois", "verify", "verify_galois"),
    ("verify.section8", "verify", "verify_section8"),
    ("oracle.diff_fixture", "oracle", "diff_fixture"),
]

# (span name, module, class, method): methods are patched on the class.
METHODS = [
    ("parabolic.class_of_roots", "parabolic", "ShapeCatalog", "class_of_roots"),
    ("groups.orbit", "groups", "OrbitStabilizer", "__init__"),
    ("groups.transversal", "groups", "OrbitStabilizer", "transversal"),
    ("actions.matrix", "actions", "SpaceRestriction", "matrix"),
    ("actions.reflection_line", "actions", "SpaceRestriction", "reflection_line"),
]

# (counter name, module, class, method): counted only.
COUNTED = [
    ("rootsys.orthogonal_calls", "rootsys", "RootSystem", "orthogonal"),
    ("rootsys.orthogonal_calls", "rootsys", "I2RootSystem", "orthogonal"),
    ("qsqrt5.q5_new", "qsqrt5", "Q5", "__init__"),
]

class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id)
        self.counts = Counter()
        self._stack = [0]      # open span ids; 0 is the root
        self._next_id = 1
        self._restore = []     # (owner, attribute, original)
        self._descend_seen = set()
        self._decompose_id = 0

    # -- recording -----------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def span(self, name):
        """Context manager recording one span, for the benchmark's phases."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.sid, self.parent = tracer._enter()
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                tracer._exit(self.sid, name, self.parent, self.start)
                return False

        return _Span()

    def _wrap(self, name, fn):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._enter()
            if name == "normalizer.decompose":
                tracer._decompose_id = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, name, parent, start)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap_count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_schreier(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for s in fn(*args, **kwargs):
                counts["groups.schreier_yielded"] += 1
                yield s

        return wrapper

    # -- counters measured where the work happens ------------------------------

    def _after_groups_orbit(self, args, result):
        self.counts["groups.orbit_states"] += args[0].orbit_size

    def _after_groups_generate(self, args, result):
        self.counts["groups.generate_elements"] += len(result)

    def _after_normalizer_descend(self, args, result):
        if not result.is_identity():
            self._descend_seen.add((self._decompose_id, result.key))

    # -- installation ----------------------------------------------------------

    def install(self):
        for name in {"coxnorm"} | {"coxnorm." + f[1] for f in FUNCTIONS + METHODS + COUNTED}:
            importlib.import_module(name)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "coxnorm" or k.startswith("coxnorm."))]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules["coxnorm." + modname], attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)
        for name, modname, cls, meth in METHODS:
            owner = getattr(sys.modules["coxnorm." + modname], cls)
            self._patch(owner, meth, self._wrap(name, vars(owner)[meth]))
        for name, modname, cls, meth in COUNTED:
            owner = getattr(sys.modules["coxnorm." + modname], cls)
            self._patch(owner, meth, self._wrap_count(name, vars(owner)[meth]))
        owner = sys.modules["coxnorm.groups"].OrbitStabilizer
        self._patch(owner, "schreier_generators",
                    self._wrap_schreier(owner.schreier_generators))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summary ----------------------------------------------------------------

    def summary(self):
        """Per-name call counts, inclusive and self times, and module self times.

        A span's self time is its duration minus the durations of its direct
        children.  The inclusive time of a name sums only its outermost spans,
        so a recursive call is not counted twice.
        """
        dur = {}
        name_of = {}
        child_time = Counter()
        for sid, name, start, end, parent in self.spans:
            dur[sid] = end - start
            name_of[sid] = name
            child_time[parent] += end - start
        parent_of = {sid: parent for sid, _, _, _, parent in self.spans}
        calls = Counter()
        self_s = Counter()
        incl_s = Counter()
        for sid, name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += dur[sid] - child_time[sid]
            p = parent
            while p and name_of[p] != name:
                p = parent_of[p]
            if not p:
                incl_s[name] += dur[sid]
        layer_self = Counter()
        for name, t in self_s.items():
            layer_self[name.split(".")[0]] += t
        return {"calls": dict(calls), "self_s": dict(self_s),
                "incl_s": dict(incl_s), "layer_self_s": dict(layer_self),
                "counts": dict(self.counts),
                "descend_distinct": len(self._descend_seen),
                "spans": len(self.spans)}

    def check_nesting(self):
        """Span ids whose interval is not inside their parent's interval."""
        interval = {sid: (start, end) for sid, _, start, end, _ in self.spans}
        bad = []
        for sid, _, start, end, parent in self.spans:
            if parent:
                ps, pe = interval[parent]
                if start < ps or end > pe:
                    bad.append(sid)
        return bad
