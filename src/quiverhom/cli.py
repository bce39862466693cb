"""Command-line interface.

Every command takes --algebra FILE (or corpus:NAME); deterministic output
given identical inputs and --seed.  --json switches to a machine-readable
report {"command", "algebra", "result", "certificates", "warnings"}.

Exit codes: 0 success; 1 user/parse error; 2 a computational cap was reached
(an INDETERMINATE or at_least answer — never silently treated as exact);
3 internal invariant violation.
"""

import argparse
import json
import os
import sys

from . import corpus, gorenstein, reps
from .algfile import MAX_MODULE_DIM, format_algebra, parse_algebra_text, parse_split_text
from .errors import Indeterminate, InternalInvariantError, QuiverHomError
from .igusa_todorov import (
    PhiResult,
    phi,
    phi_of_reps,
    phidim_bounds,
    phidim_subcat,
    triangular_check,
)
from .modexpr import evaluate
from .pathmodules import calculus, pd_value_json
from .quiver import analyze


class _CapReached(Exception):
    """Marks an at_least/indeterminate outcome: report, then exit 2."""

    def __init__(self, payload):
        self.payload = payload


def load_algebra(spec):
    if spec.startswith("corpus:"):
        return corpus.algebra(spec.split(":", 1)[1]), spec
    with open(spec) as fh:
        text = fh.read()
    return parse_algebra_text(text), spec


def _module_arg(args, algebra, context="auto"):
    if not args.module:
        raise QuiverHomError("this command needs --module EXPR")
    return evaluate(args.module, algebra, context=context, generators=corpus.GENERATORS)


def _multiset_arg(args, algebra):
    kind, value = _module_arg(args, algebra, context="multiset")
    return value


def _sum_of(algebra, value):
    """The direct sum of a rep-context value, (Representation, multiplicity) pairs."""
    parts = []
    for rep, mult in value:
        parts.extend([rep] * mult)
    return reps.direct_sum(algebra, parts) if len(parts) != 1 else parts[0]


# -- command implementations ------------------------------------------------


def cmd_info(args, algebra):
    info = analyze(algebra.quiver)
    out = {
        "kind": algebra.kind,
        "field": algebra.field.name,
        "dimension": algebra.dimension,
        "vertices": list(algebra.quiver.vertices),
        "arrows": [[a.name, a.source, a.target] for a in algebra.quiver.arrows],
        "graph": info.to_json(),
        "canonical": format_algebra(algebra),
    }
    if args.structure_constants:
        out["structure_constants"] = algebra.structure_constants_json()
    return out


def cmd_gldim(args, algebra):
    g = calculus(algebra).gldim()
    out = {"gldim": pd_value_json(g.value)}
    if g.formula is not None:
        out["formula_value"] = pd_value_json(g.formula)
    return out


def cmd_pd(args, algebra):
    kind, value = _module_arg(args, algebra)
    if kind == "multiset":
        calc = calculus(algebra)
        values = {cls.label: pd_value_json(calc.pd(cls)) for cls in value.counts}
        total = calc.pd_multiset(value)
        return {"pd": pd_value_json(total), "per_class": values}
    rep = _sum_of(algebra, value)
    probe = reps.pd_rep(rep, max_steps=args.max_steps, trials=args.trials, seed=args.seed,
                        max_dim=args.max_dim)
    out = {"pd": probe.to_json()}
    if probe.kind == "at_least":
        raise _CapReached(out)
    return out


def cmd_syzygy(args, algebra):
    steps = args.steps
    kind, value = _module_arg(args, algebra)
    if kind == "multiset":
        result = calculus(algebra).iterate_syzygy(value, steps)
        return {"module": str(value), "steps": steps, "syzygy": str(result)}
    rep = _sum_of(algebra, value)
    cur = rep
    for done in range(steps):
        over = reps.over_budget(cur, done + 1, args.max_dim)
        if over is not None:
            raise _CapReached({"module": rep.name or "module", "steps": done,
                               "syzygy_dim_vector": list(cur.dim_vector()),
                               "detail": over.detail})
        cur = reps.syzygy_rep(cur)
    return {"module": rep.name or "module", "steps": steps,
            "syzygy_dim_vector": list(cur.dim_vector())}


def cmd_norm(args, algebra):
    m = _multiset_arg(args, algebra)
    return {"module": str(m), "norm": calculus(algebra).norm(m)}


def cmd_periodic_test(args, algebra):
    m = _multiset_arg(args, algebra)
    r = calculus(algebra).is_periodic(m, cap=args.max_steps)
    return {"module": str(m), "periodic": r.periodic, "period": r.period,
            "reason": r.reason}


def cmd_periodic_find(args, algebra):
    found = gorenstein.find_periodic_module(algebra, cap=args.max_steps)
    if found is None:
        return {"periodic_module": None}
    return {"periodic_module": found.to_json()}


def cmd_omega_inf(args, algebra):
    m = _multiset_arg(args, algebra)
    r = gorenstein.omega_infinity_member(algebra, m, cap=args.max_steps)
    return {"module": str(m), "member": r.periodic, "period": r.period}


def cmd_perfect_paths(args, algebra):
    pps = gorenstein.perfect_paths(algebra)
    return {"perfect_paths": [pp.to_json() for pp in pps]}


def cmd_gp_list(args, algebra):
    gp = gorenstein.gp_indecomposables(algebra)
    return {
        "gorenstein_projective_nonprojective": [
            {"class": cls.label,
             "dim_vector": list(cls.dim_vector_tuple()),
             "relation_cycle": [str(p) for p in pp.relation_cycle]}
            for cls, pp in gp
        ]
    }


def cmd_self_injective(args, algebra):
    if algebra.kind == "truncated":
        return {"self_injective": gorenstein.is_self_injective_truncated(algebra),
                "method": "cycle-graph criterion"}
    verdict = reps.certified_self_injective(algebra, trials=args.trials, seed=args.seed)
    if verdict is None:
        raise _CapReached({"self_injective": "undetermined",
                           "method": "projective/injective matching"})
    return {"self_injective": verdict, "method": "projective/injective matching"}


def cmd_cm_free(args, algebra):
    return {"cm_free": gorenstein.is_cm_free(algebra)}


def cmd_cogorenstein(args, algebra):
    if algebra.kind == "truncated":
        verdict = gorenstein.cogorenstein_truncated(algebra, cap=args.max_steps)
    else:
        verdict = gorenstein.cogorenstein_monomial(algebra, cap=args.max_steps)
    return verdict.to_json()


def cmd_inj_pd(args, algebra):
    per_vertex = {}
    capped = False
    bundle = []
    for v in algebra.quiver.vertices:
        iv = reps.injective(algebra, v)
        bundle.append(iv)
        probe = reps.pd_rep(iv, max_steps=args.max_steps, trials=args.trials,
                            seed=args.seed, max_dim=args.max_dim)
        per_vertex[v] = probe.to_json()
        capped = capped or probe.kind == "at_least"
    total = reps.pd_rep(reps.direct_sum(algebra, bundle), max_steps=args.max_steps,
                        trials=args.trials, seed=args.seed, max_dim=args.max_dim)
    capped = capped or total.kind == "at_least"
    out = {"per_vertex": per_vertex, "all_injectives": total.to_json()}
    if capped:
        raise _CapReached(out)
    return out


def cmd_phi(args, algebra):
    kind, value = _module_arg(args, algebra)
    if kind == "multiset":
        res = phi(algebra, value)
        return {"module": str(value), **res.to_json(include_lattice=True)}
    summands = [rep for rep, mult in value if mult]
    if not summands:
        return {"module": "0", **PhiResult(0, [0], None).to_json()}
    catalog, assume = _auto_catalog(algebra, summands, args)
    res = phi_of_reps(algebra, summands, catalog, assume_infinite_pd=assume,
                      trials=args.trials, seed=args.seed)
    return {"module": " + ".join(r.name or "?" for r in summands), **res.to_json()}


def _auto_catalog(algebra, summands, args):
    """The shipped catalog for the doubled-cycle corpus algebra; elsewhere the
    caller must stay within self-injective or closing cases."""
    from .corpus import _infinito_signature, infinito_catalog

    if _infinito_signature(algebra):
        n_max = max((max(r.dims.values()) - 1) // 3 + 1 for r in summands)
        n_max = max(n_max, 1)
        return infinito_catalog(algebra, n_max)
    catalog = [(f"S_{v}", reps.simple(algebra, v)) for v in algebra.quiver.vertices]
    catalog += [(r.name or f"summand{i}", r) for i, r in enumerate(summands)]
    return catalog, []


def cmd_phidim_subcat(args, algebra):
    calc = calculus(algebra)
    if args.module:
        seed_classes = _multiset_arg(args, algebra).classes()
    else:
        seed_classes = calc.all_path_classes()
    res = phidim_subcat(algebra, seed_classes)
    out = res.to_json(include_lattice=True)
    out["seed"] = [c.label for c in seed_classes]
    return out


def cmd_phidim_bounds(args, algebra):
    return phidim_bounds(algebra).to_json()


def cmd_triangular(args, algebra):
    if not args.split:
        raise QuiverHomError("triangular-check needs --split FILE")
    with open(args.split) as fh:
        gamma, gamma_bar = parse_split_text(fh.read())
    pairs = []
    for expr_a, expr_b in args.witness_pair or ():
        _k, va = evaluate(expr_a, algebra, context="rep", generators=corpus.GENERATORS)
        _k, vb = evaluate(expr_b, algebra, context="rep", generators=corpus.GENERATORS)
        pairs.append((va[0][0], vb[0][0]))
    report = triangular_check(algebra, gamma, gamma_bar, witness_pairs=pairs,
                              trials=args.trials, seed=args.seed)
    return report.to_json()


def cmd_corpus(args, _algebra=None):
    if args.out:
        return {"written": corpus.write_all(args.out)}
    return {"algebras": sorted(corpus.FILES), "splits": sorted(corpus.SPLITS)}


def cmd_batch(args, _algebra=None):
    """Run one command line per input line; JSON array ordered by input.
    Tasks are independent (each owns its algebra), so a parallel runner would
    be safe; this one is sequential and deterministic."""
    import shlex

    with open(args.file) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    results = []
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)
        if argv and argv[0] == "quiverhom":
            argv = argv[1:]
        entry = {"line": line}
        try:
            sub = parser.parse_args(argv)
        except SystemExit:
            entry.update(error="bad arguments", exit=1)
        else:
            exit_code, payload, error = _run_command(sub)
            if error is None:
                entry["result"] = payload
            else:
                entry["error"] = f"{error['error']}: {error['message']}"
            entry["exit"] = exit_code
        results.append(entry)
    return {"runs": results}


COMMANDS = {
    "info": (cmd_info, True),
    "gldim": (cmd_gldim, True),
    "pd": (cmd_pd, True),
    "syzygy": (cmd_syzygy, True),
    "norm": (cmd_norm, True),
    "periodic-test": (cmd_periodic_test, True),
    "periodic-find": (cmd_periodic_find, True),
    "omega-inf": (cmd_omega_inf, True),
    "perfect-paths": (cmd_perfect_paths, True),
    "gp-list": (cmd_gp_list, True),
    "self-injective": (cmd_self_injective, True),
    "cm-free": (cmd_cm_free, True),
    "co-gorenstein": (cmd_cogorenstein, True),
    "inj-pd": (cmd_inj_pd, True),
    "phi": (cmd_phi, True),
    "phidim-subcat": (cmd_phidim_subcat, True),
    "phidim-bounds": (cmd_phidim_bounds, True),
    "triangular-check": (cmd_triangular, True),
    "corpus": (cmd_corpus, False),
    "batch": (cmd_batch, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quiverhom",
        description="Homological invariants of bound quiver algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, needs_algebra) in COMMANDS.items():
        p = sub.add_parser(name)
        if needs_algebra:
            p.add_argument("--algebra", required=True,
                           help=".alg file path or corpus:NAME")
        p.add_argument("--module", help="module expression")
        p.add_argument("--steps", type=int, default=1)
        p.add_argument("--max-steps", type=int, default=1000 if name != "inj-pd" else 20)
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.add_argument("--split", help="split file for triangular-check")
        p.add_argument("--witness-pair", nargs=2, action="append",
                       metavar=("EXPR_A", "EXPR_B"),
                       help="module pair for certified phi lower bounds")
        if name in ("pd", "inj-pd", "syzygy"):
            p.add_argument("--max-dim", type=int, default=MAX_MODULE_DIM,
                           help="stop with exit 2 before a syzygy of larger total dimension")
        if name == "info":
            p.add_argument("--structure-constants", action="store_true",
                           help="include the full structure-constant dump")
        if name == "corpus":
            p.add_argument("--out", help="write the corpus files to a directory")
        if name == "batch":
            p.add_argument("file", help="file of command lines to run in order")
    return parser


def _render(payload, args):
    if args.json:
        certificates = None
        if isinstance(payload, dict):
            certificates = {
                k: payload[k]
                for k in ("witness", "relation_cycles", "offending_class")
                if k in payload
            } or None
        doc = {
            "command": args.command,
            "algebra": getattr(args, "algebra", None),
            "result": payload,
            "certificates": certificates,
            "warnings": [],
        }
        return json.dumps(doc, sort_keys=True, default=str)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {value}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines)


def _run_command(args):
    """Run a parsed command line: (exit code, payload, error).  Exactly one
    of payload and error is None; error is {"error": code, "message": text}.
    Exit codes: 0 answer, 1 user error, 2 a cap was reached, 3 internal."""
    fn, needs_algebra = COMMANDS[args.command]
    try:
        if needs_algebra:
            algebra, _src = load_algebra(args.algebra)
            return 0, fn(args, algebra), None
        return 0, fn(args), None
    except _CapReached as cap:
        return 2, cap.payload, None
    except QuiverHomError as exc:
        exit_code = 2 if isinstance(exc, Indeterminate) else \
            3 if isinstance(exc, InternalInvariantError) else 1
        return exit_code, None, {"error": exc.code, "message": exc.message}
    except FileNotFoundError as exc:
        return 1, None, {"error": "FILE_NOT_FOUND", "message": str(exc)}


def main(argv=None):
    args = build_parser().parse_args(argv)
    exit_code, payload, error = _run_command(args)
    if error is not None:
        print(_render(error, args), file=sys.stderr)
        return exit_code
    try:
        print(_render(payload, args))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (e.g. `| head`): the answer stands;
        # point stdout at devnull so the interpreter's final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
