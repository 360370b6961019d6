"""The names and shapes the benchmark in bench/ binds to.

bench/tracer.py wraps functions and methods by name and bench/worker.py
calls the element, table and chain APIs directly.  These tests import both
read-only through the ``bench`` fixture of conftest.py and fail when a bound name
is deleted, renamed, aliased to another module's function, or inherited
instead of defined in its own class body.
"""

import sys

from cubereps import replib


def _span_targets(tracer):
    """(owner, attribute, module name) for every SPANS name."""
    for _group, (modname, names) in tracer.SPANS.items():
        module = sys.modules[f"cubereps.{modname}"]
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                yield getattr(module, cls_name), meth, module.__name__
            else:
                yield module, qual, module.__name__


def _bound(owner, attr):
    """What the tracer replaces: a class body entry or a module attribute."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _function(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_tracer_wraps_and_restores_every_span(bench):
    tracer, _ = bench
    originals = {}
    for owner, attr, modname in _span_targets(tracer):
        if isinstance(owner, type):
            # the tracer reads cls.__dict__: an inherited method is no binding
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} is inherited"
        raw = _bound(owner, attr)
        fn = _function(raw)
        assert fn.__module__ == modname, f"{attr} is an alias of {fn.__module__}"
        originals[(owner, attr)] = raw
    assert len(originals) > 70
    t = tracer.Tracer()
    t.install()
    try:
        for owner, attr in originals:
            assert hasattr(_function(_bound(owner, attr)), "__wrapped__"), attr
    finally:
        t.uninstall()
    for (owner, attr), raw in originals.items():
        assert _bound(owner, attr) is raw, attr


def test_words_op_passes_and_negative_control_fails(bench):
    _, worker = bench
    ops = worker.words_inputs(1)
    sample = [op for op in ops if op[0] == 2][:20] + [op for op in ops if op[0] == 3][:20]
    default = {size: worker.cube.default_tables(size) for size in (2, 3)}
    tampered = {size: worker.tampered_tables(size) for size in (2, 3)}
    assert all(worker.words_op(*op, default[op[0]]) for op in sample)
    assert not all(worker.words_op(*op, tampered[op[0]]) for op in sample)


def test_algebra_ops_pass(bench):
    _, worker = bench
    _even, g2, g3 = worker.queries_inputs(1)
    rep2, rep3 = replib.build_rep_g2(), replib.build_rep_g3()
    p_chain = worker.verify.Context().p_chain()
    assert all(worker._g2_op(x, y, rep2) for x, y in g2[:10])
    assert all(worker._g3_op(x, y, odd, rep3, p_chain) for x, y, odd in g3[:5])
