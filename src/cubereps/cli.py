"""Command line interface.

Subcommands: ``verify`` runs the claim suite, ``apply`` decomposes the
state reached by a move word, ``order`` prints exact group orders, and
``mdim`` prints minimal faithful dimensions.  Exit codes: 0 success,
1 check failure, 2 usage error.  All numeric output is exact decimal.
"""

from __future__ import annotations

import argparse
import sys

from . import abelian, cube, verify
from ._record import canonical_json
from .cube import CubeState, MoveWord, apply_word

# mdim factors cyclic orders by trial division, so it takes no more than
# this many cyclic factors, each of order at most MAX_CYCLIC_ORDER
MAX_CYCLIC_FACTORS = 64
MAX_CYCLIC_ORDER = 10**9
MAX_TRIALS = 10_000  # verify --trials: the largest default count (prop-2.4, prop-3.7)


class CertificateError(Exception):
    """An ``mdim`` answer whose own check failed (exit 1)."""


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (KeyError, ValueError) as exc:
        # a KeyError's str() is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_verify(args) -> int:
    if args.trials is not None and args.trials > MAX_TRIALS:
        raise ValueError(f"--trials takes at most {MAX_TRIALS}, got {args.trials}")
    ctx = verify.Context(seed=args.seed, trials=args.trials)
    results = verify.run_suite(ctx, args.filter)
    if args.as_json:
        print(verify.report_json(results, ctx))
    else:
        print(verify.report_text(results))
    return 0 if all(r.status == "pass" for r in results) else 1


def _cmd_apply(args) -> int:
    w = MoveWord.parse(args.word)
    state = apply_word(CubeState.solved(args.size), w)
    corner = cube.corner_permutation(state)
    twist = cube.corner_orientation(state)
    payload = {
        "state": state.to_dict(),
        "corner_permutation": corner.cycle_string(),
        "corner_orientation": list(twist),
        "invariant_s": sum(twist) % 3,
    }
    if args.size == 3:
        payload["edge_permutation"] = cube.edge_permutation(state).cycle_string(
            letters=True
        )
        flip = cube.edge_orientation(state)
        payload["edge_orientation"] = list(flip)
        payload["invariant_t"] = sum(flip) % 2
    if args.as_json:
        print(canonical_json(payload))
    else:
        for key in sorted(payload):
            if key == "state":
                continue
            print(f"{key}: {payload[key]}")
        print(f"state: {canonical_json(payload['state'])}")
    return 0


def _cmd_order(args) -> int:
    print(verify.Context().chain(args.target).order())
    return 0


def _read_group(spec: list[str]) -> abelian.FiniteAbelianGroup:
    """The group an ``abelian N,N,...`` or ``zk0m:K,M`` spec names (Z_K^(M-1)
    for ``zk0m``), its cyclic factors checked against the bounds first; any
    other spec, or one not of its form, is a ValueError naming it."""
    kind = spec[0]
    if kind == "abelian":
        name, text, form = " ".join(spec), "".join(spec[1:]), "abelian N,N,... with integers N"
    elif kind.startswith("zk0m:"):
        name, text, form = kind, kind.split(":", 1)[1], "zk0m:K,M with integers K and M"
    else:
        raise ValueError(f"unknown mdim spec {kind!r}")
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if not values or (kind != "abelian" and len(values) != 2):
        raise ValueError(f"mdim spec {name!r} is not of the form {form}")
    count, largest = (len(values), max(values)) if kind == "abelian" else (values[1] - 1, values[0])
    if count > MAX_CYCLIC_FACTORS or largest > MAX_CYCLIC_ORDER:
        raise ValueError(
            f"mdim takes at most {MAX_CYCLIC_FACTORS} cyclic factors, "
            f"each of order at most {MAX_CYCLIC_ORDER}"
        )
    return abelian.FiniteAbelianGroup(values) if kind == "abelian" else abelian.zk0m(*values)[0]


def _certify(ok: bool, name: str) -> None:
    """Check one certificate of an mdim answer; unlike ``assert``, this
    also runs under ``python -O``."""
    if not ok:
        raise CertificateError(f"mdim certificate failed: {name}")


# the cube groups' and the exceptional example's answers, each certified
# by the claim suite's checks of the theorem that states it:
# name -> (complex, real, method, glob over check ids)
_CERTIFIED = {
    "g2": (8, 16, "split-bound+construction", "thm-5.1-*"),
    "g3": (20, 28, "split-bound+case-table", "thm-5.2-*"),
    "exceptional": (4, 6, "enumeration", "thm-5.3-exceptional"),
}


def _cmd_mdim(args) -> int:
    spec = args.spec
    kind = spec[0]
    extra = spec[2 if kind == "abelian" else 1:]
    if extra:
        raise ValueError(f"unexpected words after the mdim spec: {' '.join(extra)}")
    if kind in _CERTIFIED:
        complex_dim, real_dim, method, checks = _CERTIFIED[kind]
        for r in verify.run_suite(verify.Context(), checks):
            _certify(r.status == "pass", r.id)
        payload = {"complex": complex_dim, "real": real_dim, "method": method}
    else:
        group = _read_group(spec)
        payload = {
            "complex": abelian.mdim_complex_abelian(group),
            "real": abelian.mdim_real_abelian(group),
            "method": "formula",
        }
        if kind == "abelian" and group.order <= abelian.ORACLE_BOUND:
            payload["method"] = "formula=oracle"
            for field in ("complex", "real"):
                _certify(abelian.oracle_min_faithful(group, field) == payload[field],
                         f"{field} oracle equals the formula")
    if args.as_json:
        print(canonical_json(payload))
    else:
        print(
            f"complex: {payload['complex']}\nreal: {payload['real']}\n"
            f"method: {payload['method']}"
        )
    return 0


def _parser() -> argparse.ArgumentParser:
    """The command line, each subcommand bound to its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="cubereps",
        description="exact verification of the cube groups' structure and "
        "minimal representation dimensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--filter", default="*", help="glob over check ids")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="override per-check randomized trial counts")
    p_verify.add_argument("--json", action="store_true", dest="as_json")
    p_verify.set_defaults(run=_cmd_verify)

    p_apply = sub.add_parser("apply", help="apply a move word to a solved cube")
    p_apply.add_argument("size", type=int, choices=(2, 3))
    p_apply.add_argument("word", type=str)
    p_apply.add_argument("--json", action="store_true", dest="as_json")
    p_apply.set_defaults(run=_cmd_apply)

    p_order = sub.add_parser("order", help="print an exact group order")
    p_order.add_argument("target", choices=tuple(verify._FACE_IMAGES))
    p_order.set_defaults(run=_cmd_order)

    p_mdim = sub.add_parser("mdim", help="minimal faithful dimensions")
    p_mdim.add_argument("spec", nargs="+",
                        help="g2 | g3 | exceptional | abelian N,N,... | zk0m:K,M")
    p_mdim.add_argument("--json", action="store_true", dest="as_json")
    p_mdim.set_defaults(run=_cmd_mdim)
    return parser


# built once per process: main only parses, so repeated calls share it
_PARSER = _parser()


if __name__ == "__main__":
    sys.exit(main())
