"""Command line entry point.

Subcommands: gen (write a problem file), exact (print exact condition
numbers), estimate (run the statistical estimators), table1/table2/table3
(ratio experiments), compare (structured versus unstructured values).
"""

import argparse
import sys

import numpy as np

from . import bench, probfile
from .estimate import SsceConfig, estimate_kappa2_pce, estimate_kappa2_ssce, \
    estimate_kappa_inf_ssce
from .exact import CondParams, ConditionReport, kappa_2ils
from .structured import StructuredParams, basis_from_token


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)


def _add_estimator_flags(parser):
    parser.add_argument("--delta", type=float, default=1e-2)
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--k", type=int, default=3)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ilscond",
        description="Condition numbers of indefinite least squares problems "
                    "and their statistical estimates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem and write it to a file")
    gen.add_argument("--example", choices=("ex1", "ex2", "ex3"), default="ex1")
    gen.add_argument("--m", type=int, default=20)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--p", type=int, default=14)
    gen.add_argument("--l", type=float, default=1.0,
                     help="condition exponent for ex1 (kappa = n^l)")
    gen.add_argument("--kappa", type=float, default=1e4,
                     help="target condition number for ex2")
    gen.add_argument("--rho", type=float, default=1.0)
    _add_common(gen)

    exact = sub.add_parser("exact", help="print exact condition numbers")
    exact.add_argument("problem", type=str)

    est = sub.add_parser("estimate", help="run the statistical estimators")
    est.add_argument("problem", type=str)
    _add_estimator_flags(est)
    est.add_argument("--seed", type=int, default=0)

    for name in ("table1", "table2", "table3"):
        tp = sub.add_parser(name, help=f"reproduce experiment {name}")
        tp.add_argument("--full", action="store_true",
                        help="published problem sizes (minutes-scale run)")
        tp.add_argument("--m", type=int, default=None)
        tp.add_argument("--n", type=int, default=None)
        tp.add_argument("--p", type=int, default=None)
        tp.add_argument("--trials", type=int, default=None)
        tp.add_argument("--format", choices=("csv", "json"), default="csv")
        tp.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: usable CPUs // BLAS threads)")
        _add_estimator_flags(tp)
        _add_common(tp)

    cmp_ = sub.add_parser("compare",
                          help="structured vs unstructured condition numbers")
    cmp_.add_argument("problem", type=str)
    return ap


def _report(problem, structure):
    """Condition report of a loaded problem, A structured as its file says."""
    sparams = StructuredParams(basis_from_token(structure, problem.m, problem.n)) \
        if structure else None
    return ConditionReport(problem, CondParams(), sparams)


# printed name, padding before "=", and the unstructured and structured
# value of each row of exact and compare
_ROWS = (
    ("kappa_2", "    ", lambda rep: kappa_2ils(rep.problem, rep.params),
     lambda rep: rep.structured_2),
    ("kappa_mixed", " ", lambda rep: rep.mixed, lambda rep: rep.structured_mixed),
    ("kappa_comp", "  ", lambda rep: rep.componentwise,
     lambda rep: rep.structured_componentwise),
)


def _cmd_gen(args):
    structure = None
    if args.example == "ex1":
        problem, _, _ = bench.gen_example1(args.m, args.n, args.p, args.l,
                                           args.rho, args.seed)
    elif args.example == "ex2":
        problem, _, _ = bench.gen_example2(args.m, args.n, args.p, args.kappa,
                                           args.rho, args.seed)
    else:
        problem, sparams, _, _ = bench.gen_example3(args.n, args.rho, args.seed)
        structure = sparams.basisA.kind
    out = args.out or "problem.txt"
    probfile.save_problem(out, problem, structure=structure)
    print(f"wrote {out} ({problem.m}x{problem.n}, p={problem.p}, q={problem.q}"
          + (f", {structure}" if structure else "") + ")")
    return 0


def _cmd_exact(args):
    problem, structure = probfile.load_problem(args.problem)
    report = _report(problem, structure)
    print(f"problem: m={problem.m} n={problem.n} p={problem.p} q={problem.q}")
    for name, pad, value, _ in _ROWS:
        print(f"{name}{pad}= {value(report):.6e}")
    if structure:
        for name, pad, _, svalue in _ROWS:
            print(f"{name}^S{pad}= {svalue(report):.6e}")
    return 0


def _cmd_estimate(args):
    seeds = np.random.SeedSequence(args.seed).spawn(3)
    ssce2, ssce_inf = (SsceConfig(k=args.k, seed=seed) for seed in seeds[1:])
    problem, _ = probfile.load_problem(args.problem)
    params = CondParams()
    # every estimate before the first line, so that a bad --k prints nothing
    est, interval = estimate_kappa2_pce(
        problem, params, delta=args.delta, epsilon=args.epsilon,
        seed=seeds[0], return_interval=True,
    )
    ssce = estimate_kappa2_ssce(problem, params, ssce2)
    sm, sc = estimate_kappa_inf_ssce(problem, params, ssce_inf)
    flag = " (ratio target not met)" if interval.ratio_not_met else ""
    print(f"kappa_2 probabilistic = {est:.6e} "
          f"[{interval.alpha1:.6e}, {interval.alpha2:.6e}]{flag}")
    print(f"kappa_2 small-sample  = {ssce:.6e}")
    print(f"kappa_mixed small-sample = {sm:.6e}")
    print(f"kappa_comp  small-sample = {sc:.6e}")
    return 0


def _cmd_table(name, args):
    factory = {"table1": bench.table1_config, "table2": bench.table2_config,
               "table3": bench.table3_config}[name]
    overrides = {"seed": args.seed, "delta": args.delta,
                 "epsilon": args.epsilon, "k": args.k}
    for dim in ("m", "n", "p", "trials"):
        val = getattr(args, dim)
        if val is not None:
            overrides[dim] = val
    if args.full:
        print("running at published sizes; this takes minutes", file=sys.stderr)
    config = factory(full=args.full, **overrides)
    # no --jobs: call with the config alone, the signature callers may wrap
    jobs = {} if args.jobs is None else {"jobs": args.jobs}
    result = bench.run_experiment(config, **jobs)
    print(result.format_table())
    if args.out:
        if args.format == "csv":
            result.to_csv(args.out)
        else:
            result.to_json(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_compare(args):
    problem, structure = probfile.load_problem(args.problem)
    if not structure:
        print("problem file carries no structure kind; nothing to compare",
              file=sys.stderr)
        return 1
    report = _report(problem, structure)
    rows = [(name, pad, value(report), svalue(report)) for name, pad, value, svalue in _ROWS]
    print(f"structure: {structure}")
    for name, pad, v, sv in rows:
        print(f"{name}{pad}= {v:.6e}  structured = {sv:.6e}  ratio = {v / sv:.4f}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"gen": _cmd_gen, "exact": _cmd_exact, "estimate": _cmd_estimate,
                "compare": _cmd_compare}
    try:
        if args.command in commands:
            return commands[args.command](args)
        return _cmd_table(args.command, args)
    except (ValueError, OSError) as exc:
        # failures caused by the input: malformed problem files and data,
        # NotPositiveDefinite (a LinAlgError), StructureMismatch, TlsNotGeneric
        # and UndefinedConditionNumber are all ValueErrors; unreadable problem
        # files and unwritable --out paths are OSErrors
        print(f"ilscond {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
