"""Span tracing of the cubereps layers, installed from outside the package.

``install()`` replaces the public functions and methods listed in
``SPANS`` with timing wrappers.  A function imported by name into other
modules (``from .cube import apply_word`` in ``structure``, ``verify``,
``replib``, ``cli``) is a separate binding, so every module attribute that
holds an original function is replaced, not only the defining one.

Spans are aggregated as they close, which keeps memory flat over millions
of calls: per span name the call count and the self time (the span's
duration minus the durations of the traced spans it called).  Functions too hot to wrap without distorting the numbers
(``Permutation`` arithmetic, ``MoveTables.apply_token``) are left bare;
their cost lands in the self time of the traced caller.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer group -> (module, qualified names); every name in a group adds to
# the group's self time and call count
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cube.apply": ("cube", ("apply_word",)),
    "cube.decode": ("cube", (
        "corner_permutation", "edge_permutation", "corner_orientation",
        "edge_orientation", "invariant_s", "invariant_t",
    )),
    "cube.sticker_perm": ("cube", (
        "sticker_perm_of_word", "sticker_perm_of_twist", "sticker_perm_of_flip",
        "compose_sticker_perms", "invert_sticker_perm", "state_of_sticker_perm",
        "twist_corner", "flip_edge",
    )),
    "structure.encode": ("structure", (
        "encode_g2", "encode_g3", "word_element_g2", "word_element_g3",
    )),
    "structure.quotient": ("structure", ("phi", "psi", "psi_word", "alpha", "beta")),
    "structure.mul": ("structure", ("g2_mul", "g3_mul", "g2_inv", "g3_inv")),
    "structure.section": ("structure", (
        "section_s8", "section_p", "section_g2_in_g3", "sign_embed",
        "superflip", "superflip_state", "pair_to_perm20",
    )),
    "structure.membership": ("structure", ("membership",)),
    "structure.word": ("structure", (
        "build_m", "build_transpositions", "edge_three_cycle",
        "edge_flip_pair_word", "edge_cycle_words", "beta_of_factors",
        "EdgeCycleWords.__init__", "EdgeCycleWords.three_cycle",
        "EdgeCycleWords.even_edge_word",
    )),
    "perm.chain_build": ("perm", ("chain_build", "StabilizerChain.from_generators")),
    "perm.contains": ("perm", ("chain_contains", "StabilizerChain.contains")),
    "abelian.oracle": ("abelian", ("oracle_min_faithful",)),
    "abelian.subgroup": ("abelian", (
        "subgroup_invariant_factors", "subgroup_factor_check",
    )),
    "abelian.formula": ("abelian", (
        "invariant_factors", "mdim_complex_abelian", "mdim_real_abelian", "zk0m",
    )),
    "replib.rep_build": ("replib", (
        "build_rep_g2", "build_rep_g3", "zeroed_corner_rep", "realify",
        "ExceptionalExample.__init__",
    )),
    "replib.rep_of": ("replib", ()),  # the ``of`` of every built representation
    "replib.character": ("replib", (
        "character_norm", "frobenius_schur", "faithful_enumerated",
        "MonomialMap.trace",
    )),
    "replib.monomial_mul": ("replib", ("MonomialMap.__mul__", "ConjMonomialMap.__mul__")),
    "replib.decorated": ("replib", ("decorated_perm", "DecoratedPerm.__mul__")),
    "replib.bounds": ("replib", (
        "mu", "lower_bound_complex_split", "g2_real_case_analysis",
        "g3_real_case_table", "subgroup_real_lower_bound", "faithful_structural",
    )),
    "cyclotomic.ops": ("cyclotomic", ("CyclotomicInt.__add__", "CyclotomicInt.__mul__")),
}

# constructive-word requests: calls of these that are not nested in another
# one count as requests, and the words they return are measured
WORD_REQUESTS = {
    "structure.build_m", "structure.build_transpositions",
    "structure.edge_three_cycle", "structure.edge_flip_pair_word",
    "structure.EdgeCycleWords.three_cycle", "structure.EdgeCycleWords.even_edge_word",
}
# builders whose returned representations get their ``of`` wrapped
_REP_BUILDERS = {
    "replib.build_rep_g2", "replib.build_rep_g3", "replib.zeroed_corner_rep",
    "replib.realify", "replib.ExceptionalExample.__init__",
}
COUNTED_CALLS = {
    # the decode count covers every reader, nested ones included
    "cube.decode": "cube.decodes",
    "cube.apply": "cube.apply_calls",
    "structure.mul": "structure.muls",
    "structure.membership": "structure.membership_calls",
    "perm.contains": "perm.contains_calls",
    "abelian.oracle": "abelian.oracle_calls",
    "replib.monomial_mul": "replib.monomial_muls",
    "replib.rep_of": "replib.rep_of_calls",
    "structure.quotient": "structure.quotients",
}


def free_reduce(tokens) -> int:
    """Length of a token sequence after merging adjacent same-face turns
    mod 4, cascading through cancellations."""
    stack: list[list] = []
    for face, turns in tokens:
        if stack and stack[-1][0] == face:
            merged = (stack[-1][1] + turns) % 4
            if merged:
                stack[-1][1] = merged
            else:
                stack.pop()
        else:
            stack.append([face, turns])
    return len(stack)


class Tracer:
    """Online span aggregation for one process; ``clock`` times the spans."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._request_depth = 0
        self.tokens_applied = 0
        self.words: list = []  # returned request words, measured at the end
        self.oracle_queries: list[tuple[str, str, float]] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        calls, self_time, stack = self.calls, self.self_time, self._stack
        calls.setdefault(name, 0)
        self_time.setdefault(name, 0.0)
        is_request = name in WORD_REQUESTS
        tracer = self
        clock = self.clock

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if is_request:
                tracer._request_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_time[name] += dt - child[0]
                if is_request:
                    tracer._request_depth -= 1
            if is_request and tracer._request_depth == 0:
                tracer.words.append(result)
            elif name == "cube.apply_word":
                w = args[1] if len(args) > 1 else kwargs["w"]
                tracer.tokens_applied += len(w) if not isinstance(w, str) else len(w.split())
            elif name == "abelian.oracle_min_faithful":
                group = args[0]
                field = args[1] if len(args) > 1 else kwargs["field"]
                tracer.oracle_queries.append((str(group), field, dt))
            elif name in _REP_BUILDERS:
                tracer._wrap_reps(result if result is not None else args[0])
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def _wrap_reps(self, obj) -> None:
        for rep in (obj, getattr(obj, "rep4", None), getattr(obj, "rep6", None)):
            of = getattr(rep, "of", None)
            if of is not None and not hasattr(of, "__wrapped__"):
                rep.of = self._wrap("replib.rep_of", of)

    def install(self) -> None:
        """Wrap every listed function at every binding in the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cubereps" or n.startswith("cubereps.")]
        for _group, (modname, names) in SPANS.items():
            module = sys.modules[f"cubereps.{modname}"]
            for qual in names:
                full = f"{modname}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(full, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(full, raw))
                    self._installed.append((cls, meth, raw))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results --------------------------------------------------------

    def group_stats(self) -> dict[str, tuple[int, float]]:
        """Per layer group: (calls, self seconds)."""
        out = {}
        for group, (modname, names) in SPANS.items():
            keys = [f"{modname}.{q}" for q in names] or [group]
            out[group] = (
                sum(self.calls.get(k, 0) for k in keys),
                sum(self.self_time.get(k, 0.0) for k in keys),
            )
        return out

    def layer_metrics(self) -> dict[str, float]:
        stats = self.group_stats()
        m: dict[str, float] = {}
        for group, (count, seconds) in stats.items():
            if group == "cyclotomic.ops":
                m["cyclotomic.ops"] = count
                m["cyclotomic.ops_s"] = seconds
                continue
            m[f"{group}_s"] = seconds
            counter = COUNTED_CALLS.get(group)
            if counter:
                m[counter] = count
        m["cube.tokens"] = self.tokens_applied
        m["structure.encodes"] = (self.calls["structure.encode_g2"]
                                  + self.calls["structure.encode_g3"])
        m["perm.chain_builds"] = self.calls["perm.StabilizerChain.from_generators"]
        m["structure.word_requests"] = len(self.words)
        tokens = reduced = 0
        for result in self.words:
            for w in (result.values() if isinstance(result, dict) else (result,)):
                tokens += len(w.tokens)
                reduced += free_reduce(w.tokens)
        m["structure.word_tokens"] = tokens
        m["structure.word_reduced_tokens"] = reduced
        m["abelian.oracle_max_s"] = max((q[2] for q in self.oracle_queries), default=0.0)
        return m
