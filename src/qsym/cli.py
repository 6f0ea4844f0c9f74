"""Command line front end: root systems, r-matrices, the classification
sweep, and the quantized sl2 constructions.

Output is JSON with sorted keys (expressions from the qsl2 subcommands are
printed as plain lines), exact scalars rendered as strings, and byte-wise
deterministic. Exit codes: 0 on success, 2 when --diff-paper finds a
mismatch, 1 for usage and mathematical errors.
"""

import argparse
import json
import sys
from fractions import Fraction as Q

from . import qsl2
from .bialg import (bd_r_matrix, check_cybe, cobracket_from_r, drinfeld_double,
                    enumerate_bd_triples, standard_r)
from .classify import (DEFAULT_DIM_BUDGET, BudgetExceeded, classification_table,
                       classify_pair, paper_diff)
from .liealg import highest_weight_module, shared_type
from .poisson import jacobi_oracle
from .rootsys import (_SERIES, InvalidType, _rank_ok, cominuscule_nodes, normalize_type,
                      type_label, weight_multiplicities, weyl_dim)
from .scalars import QRat, ascii_int


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract reserves 2 for the
    list mismatch, so rewire usage failures to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _scalar(v):
    if isinstance(v, QRat):
        return v.to_str()
    if isinstance(v, Q):
        return str(v)
    return v


def _shared_type(args):
    """The SharedType named by --type and --rank; a simple type only."""
    if "x" in args.type.lower():
        raise InvalidType("product type %r is not supported on the command line"
                          % args.type)
    if args.rank is not None:
        letter = args.type.strip().upper()
        if letter not in _SERIES:
            raise InvalidType("with --rank, --type must be one series letter, got %r"
                              % args.type)
        if not _rank_ok(letter, args.rank):
            raise InvalidType("no simple type %s%d" % (letter, args.rank))
        pair = letter, args.rank
    else:
        pair = normalize_type(args.type)
    return shared_type(type_label(*pair))


def _parse_weight(text, rank):
    parts = [p.strip() for p in text.split(",")]
    try:
        lam = tuple(ascii_int(p) for p in parts)
    except ValueError:
        raise ValueError("weight must be comma-separated integers, got %r" % text)
    if len(lam) != rank:
        raise ValueError("weight has %d coordinates, rank is %d" % (len(lam), rank))
    return lam


# the largest module `module` weighs and `rmatrix --module` builds, checked
# on its Weyl dimension first, as classify checks its budget; it is above
# every module the tests and the README ask for (C3 (2, 2, 1), 5,460)
MODULE_DIM_BUDGET = 10000


def _module_weight(rs, text):
    """The weight parsed from text and its Weyl dimension, refused with
    BudgetExceeded above MODULE_DIM_BUDGET before any module is built."""
    lam = _parse_weight(text, rs.rank)
    dim = weyl_dim(rs, lam)
    if dim > MODULE_DIM_BUDGET:
        raise BudgetExceeded("dim V = %d exceeds the budget %d" % (dim, MODULE_DIM_BUDGET))
    return lam, dim


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommand handlers, each returning (text, exit_code) -------------------

def _cmd_roots(args):
    rs = _shared_type(args).rs
    out = {
        "type": rs.label,
        "rank": rs.rank,
        "cartan": rs.cartan,
        "norms": [_scalar(x) for x in rs.norms],
        "positive_roots": len(rs.positive_roots),
        "highest_root": list(rs.highest_root),
        "cominuscule_nodes": cominuscule_nodes(rs),
    }
    return _dumps(out), 0


def _cmd_module(args):
    rs = _shared_type(args).rs
    lam, dim = _module_weight(rs, args.weight)
    mults = weight_multiplicities(rs, lam)
    out = {
        "type": rs.label,
        "weight": list(lam),
        "dim": dim,
        "weights": {",".join(map(str, k)): m for k, m in sorted(mults.items())},
    }
    return _dumps(out), 0


def _cmd_rmatrix(args):
    alg = _shared_type(args).algebra
    r = standard_r(alg)
    module = None
    if args.module is not None:
        module = highest_weight_module(alg, _module_weight(alg.rs, args.module)[0])
    report = check_cybe(alg, r, module=module)
    entries = {"%s⊗%s" % (alg.names[i], alg.names[j]): _scalar(v)
               for (i, j), v in sorted(r.items())}
    out = {
        "type": alg.rs.label,
        "cybe_holds": report["cybe_holds"],
        "symmetric_part_invariant": report["symmetric_part_invariant"],
        "entries": entries,
    }
    return _dumps(out), 0


# the largest ranks `bd` enumerates, and checks with --check, refused before any
# enumeration: cold on a 2-core host rank 7 enumerates in 0.8-0.9 s and E8 in
# 13.8 s; --check takes 0.3-0.8 s at rank 5, 4.3 s at D6 and 40 s at A7
BD_MAX_RANK = 7
BD_CHECK_MAX_RANK = 5


def _cmd_bd(args):
    typ = _shared_type(args)
    rs = typ.rs
    limit = BD_CHECK_MAX_RANK if args.check else BD_MAX_RANK
    if rs.rank > limit:
        raise BudgetExceeded("rank %d exceeds the budget %d" % (rs.rank, limit))
    alg = typ.algebra if args.check else None
    triples = []
    for t in enumerate_bd_triples(rs):
        item = {
            "delta1": list(t.delta1),
            "delta2": list(t.delta2),
            "tau": [[i, j] for i, j in sorted(t.tau.items())],
        }
        if args.check:
            r, _ = bd_r_matrix(alg, t)
            item["cybe_holds"] = check_cybe(alg, r)["cybe_holds"]
        triples.append(item)
    out = {"type": rs.label, "count": len(triples),
           "triples": triples}
    return _dumps(out), 0


def _cmd_double(args):
    alg = _shared_type(args).algebra
    delta = cobracket_from_r(alg, standard_r(alg))
    double, _, report = drinfeld_double(alg, delta)
    out = {
        "type": alg.rs.label,
        "dim": double.dim,
        "jacobi_holds": report["jacobi_holds"],
        "canonical_r_cybe": report["canonical_r_cybe"],
        "manin_triple": report["manin_triple"],
    }
    return _dumps(out), 0


def _cmd_classify(args):
    rs = _shared_type(args).rs
    lam = _parse_weight(args.weight, rs.rank)
    row = classify_pair(rs.label, lam, dim_budget=args.dim_budget,
                        all_bd=args.all_bd, extended=args.extended)
    return _dumps(row.as_dict()), 0


def _cmd_table(args):
    rows = classification_table(args.max_rank, args.dim_budget,
                                all_bd=args.all_bd, extended=args.extended)
    out = {"count": len(rows), "rows": [r.as_dict() for r in rows]}
    code = 0
    if args.diff_paper:
        diff = paper_diff(rows)
        out["diff"] = {
            "missing": ["%s %s" % (r.label, ",".join(map(str, r.lam)))
                        for r in diff["missing"]],
            "extra": ["%s %s" % (r.label, ",".join(map(str, r.lam)))
                      for r in diff["extra"]],
        }
        if out["diff"]["missing"] or out["diff"]["extra"]:
            code = 2
    return _dumps(out), code


def _qsl2_element(name):
    gens, _ = qsl2.locally_finite_generators()
    if name in gens:
        return gens[name]
    basic = qsl2.generators()
    if name in basic:
        return basic[name]
    raise qsl2.NotInSpan("unknown element %r; use X+, X-, X0, C, E, F, K, K^-1 or 1" % name)


def _cmd_sigma(args):
    t = qsl2.sigma(args.left, args.right, variant=args.variant)
    return qsl2.x_tensor_str(qsl2.x_basis_tensor(t)) + "\n", 0


# the largest --power `qsl2 copoisson` takes, refused before any computation:
# cold on a 2-core host C and X0 at power 8 take 0.9 s, at 9 2.1 s and at 10 4 s
COPOISSON_MAX_POWER = 8


def _cmd_copoisson(args):
    if args.power < 1:
        raise ValueError("--power must be at least 1, got %d" % args.power)
    if args.power > COPOISSON_MAX_POWER:
        raise BudgetExceeded("power %d exceeds the budget %d"
                             % (args.power, COPOISSON_MAX_POWER))
    elem = _qsl2_element(args.element) ** args.power
    return qsl2.copoisson_limit(elem).pretty() + "\n", 0


def _cmd_donin(args):
    relations, table = qsl2.donin_graded_relations()
    names = ("X+", "X-", "X0")
    rels = []
    for rel in relations:
        rels.append({
            "pair": list(rel["pair"]),
            "lead": {"%s*%s" % k: _scalar(v) for k, v in sorted(rel["lead"].items())},
            "lower": {k: _scalar(v) for k, v in sorted(rel["lower"].items())},
        })
    brackets = {}
    for (i, j), poly in sorted(table.table.items()):
        key = "{%s,%s}" % (names[i], names[j])
        brackets[key] = {
            " ".join(names[a] for a in mono): _scalar(c)
            for mono, c in sorted(poly.items())
        }
    out = {
        "relations": rels,
        "poisson_brackets": brackets,
        "normalization_vs_classical": "-2",
        "jacobi_holds": jacobi_oracle(table),
        "identity": qsl2.sigma_identity_report(),
    }
    return _dumps(out), 0


# the largest l `qsl2 braided` takes, refused before any computation: cold
# on a 2-core host l = 5, 6, 7 and 8 take 0.27-0.36, 0.95-1.02, 3.1 and 12.1 s,
# about 3.5 times more per step; it is above every l the tests and the README
# ask for (5)
BRAIDED_MAX_L = 6


def _cmd_braided(args):
    if args.l > BRAIDED_MAX_L:
        raise BudgetExceeded("l = %d exceeds the budget %d" % (args.l, BRAIDED_MAX_L))
    report = qsl2.braided_flatness(args.l, max_degree=args.max_degree)
    return _dumps(report), 0


def _add_type_args(p):
    p.add_argument("--type", required=True,
                   help="series letter (with --rank) or a name like so10, sl3, A2")
    p.add_argument("--rank", type=ascii_int)


def build_parser():
    parser = _Parser(prog="qsym", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write the output to this path instead of stdout")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("roots", parents=[common], help="root system summary")
    _add_type_args(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("module", parents=[common], help="highest weight module data")
    _add_type_args(p)
    p.add_argument("--weight", required=True, help="fundamental coordinates, e.g. 1,0")
    p.set_defaults(func=_cmd_module)

    p = sub.add_parser("rmatrix", parents=[common], help="standard r-matrix and CYBE check")
    _add_type_args(p)
    p.add_argument("--module", help="certify through this module instead of the adjoint")
    p.set_defaults(func=_cmd_rmatrix)

    p = sub.add_parser("bd", parents=[common], help="Belavin-Drinfeld triples")
    _add_type_args(p)
    p.add_argument("--check", action="store_true", help="also run the CYBE check per triple")
    p.set_defaults(func=_cmd_bd)

    p = sub.add_parser("double", parents=[common], help="Drinfeld double report")
    _add_type_args(p)
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("classify", parents=[common], help="verdicts for one pair")
    _add_type_args(p)
    p.add_argument("--weight", required=True)
    p.add_argument("--dim-budget", type=ascii_int, default=DEFAULT_DIM_BUDGET)
    p.add_argument("--all-bd", action="store_true")
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", parents=[common], help="full classification sweep")
    p.add_argument("--max-rank", type=ascii_int, required=True)
    p.add_argument("--dim-budget", type=ascii_int, required=True)
    p.add_argument("--diff-paper", action="store_true")
    p.add_argument("--all-bd", action="store_true")
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("qsl2", help="quantized sl2 constructions")
    qsub = p.add_subparsers(dest="qsl2_cmd", required=True)
    ps = qsub.add_parser("sigma", parents=[common])
    ps.add_argument("--left", required=True, choices=["X+", "X-", "X0"])
    ps.add_argument("--right", required=True, choices=["X+", "X-", "X0"])
    ps.add_argument("--variant", default="+", choices=["+", "-"])
    ps.set_defaults(func=_cmd_sigma)
    pc = qsub.add_parser("copoisson", parents=[common])
    pc.add_argument("--element", required=True)
    pc.add_argument("--power", type=ascii_int, default=1)
    pc.set_defaults(func=_cmd_copoisson)
    pd = qsub.add_parser("donin", parents=[common])
    pd.set_defaults(func=_cmd_donin)
    pb = qsub.add_parser("braided", parents=[common])
    pb.add_argument("--l", type=ascii_int, required=True)
    pb.add_argument("--max-degree", type=ascii_int, default=3)
    pb.set_defaults(func=_cmd_braided)

    return parser


_WEIGHT_OPTIONS = ("--weight", "--module")


def _attach_weight_values(argv):
    """Join a weight option to a value that starts with a minus sign.

    argparse reads "-1,0" as an option name rather than as a negative number,
    so "--weight -1,0" becomes "--weight=-1,0", which it reads as the value;
    the weight's own checks then reject it.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _WEIGHT_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = "%s=%s" % (out[-1], tok)
        else:
            out.append(tok)
    return out


def _error(exc):
    sys.stdout.write("error: %s: %s\n" % (type(exc).__name__, exc))
    return 1


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_weight_values(argv))
    try:
        text, code = args.func(args)
    except (ValueError, ArithmeticError, AssertionError) as exc:
        # an AssertionError is a failed internal invariant (liealg, bialg);
        # it is reported on one line like the domain errors
        return _error(exc)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _error(exc)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
