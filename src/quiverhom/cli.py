"""Command-line interface.

Each command takes only the options it reads (COMMANDS); identical inputs
give identical output, since every random draw comes from a fixed seed.
--json switches to a machine-readable report {"command", "algebra",
"result", "certificates", "warnings"}.

Exit codes: 0 success or --help; 1 user/parse/usage error; 2 a computational
cap was reached (an INDETERMINATE or at_least answer — never silently treated
as exact); 3 internal invariant violation.  The formal periodicity commands
(periodic-test, periodic-find, omega-inf, co-gorenstein) have no cap.
"""

import argparse
import contextlib
import functools
import json
import os
import shlex
import sys

from . import corpus, gorenstein, reps
from .algfile import MAX_MODULE_DIM, format_algebra, parse_algebra_text, parse_split_text
from .errors import (
    Indeterminate,
    InternalInvariantError,
    QuiverHomError,
    UnsupportedIdeal,
)
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
    """The algebra of an --algebra spec.  corpus:NAME is the one algebra per
    corpus file that every call in the process shares (corpus.algebra);
    any other spec is a file path, read and parsed afresh on every call,
    since the file may change between batch lines."""
    if spec.startswith("corpus:"):
        return corpus.algebra(spec.split(":", 1)[1])
    with open(spec) as fh:
        return parse_algebra_text(fh.read())


def _module_arg(args, algebra, context="auto"):
    if not args.module:
        raise QuiverHomError("this command needs --module EXPR")
    return evaluate(args.module, algebra, context=context)


def _multiset_arg(args, algebra):
    return _module_arg(args, algebra, context="multiset")[1]


def _sum_of(algebra, value):
    """The direct sum of a rep-context value, (Representation, multiplicity) pairs."""
    return reps.direct_sum(algebra, [rep for rep, mult in value for _ in range(mult)])


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
    probe = reps.pd_rep(rep, max_steps=args.max_steps, max_dim=args.max_dim)
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
    r = calculus(algebra).is_periodic(m)
    return {"module": str(m), "periodic": r.periodic, "period": r.period,
            "reason": r.reason}


def cmd_periodic_find(args, algebra):
    found = gorenstein.find_periodic_module(algebra)
    if found is None:
        return {"periodic_module": None}
    return {"periodic_module": found.to_json()}


def cmd_omega_inf(args, algebra):
    m = _multiset_arg(args, algebra)
    r = gorenstein.omega_infinity_member(algebra, m)
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
    return {"self_injective": reps.certified_self_injective(algebra),
            "method": "projective socles"}


def cmd_cm_free(args, algebra):
    return {"cm_free": gorenstein.is_cm_free(algebra)}


def cmd_cogorenstein(args, algebra):
    if algebra.kind == "truncated":
        verdict = gorenstein.cogorenstein_truncated(algebra)
    else:
        verdict = gorenstein.cogorenstein_monomial(algebra)
    return verdict.to_json()


def cmd_inj_pd(args, algebra):
    per_vertex = {}
    capped = False
    bundle = []
    for v in algebra.quiver.vertices:
        iv = reps.injective(algebra, v)
        bundle.append(iv)
        probe = reps.pd_rep(iv, max_steps=args.max_steps, max_dim=args.max_dim)
        per_vertex[v] = probe.to_json()
        capped = capped or probe.kind == "at_least"
    total = reps.pd_rep(reps.direct_sum(algebra, bundle), max_steps=args.max_steps,
                        max_dim=args.max_dim)
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
    summands = [rep for rep, mult in value if mult and not rep.is_zero()]
    if not summands:
        return {"module": "0", **PhiResult(0, [0], None).to_json()}
    if algebra.is_monomial_like:
        raise UnsupportedIdeal("over a monomial or truncated algebra phi takes path-class "
                               "summands: path(...), simple(...), proj(...)")
    catalog, assume = _auto_catalog(algebra, summands)
    res = phi_of_reps(algebra, summands, catalog, assume_infinite_pd=assume)
    return {"module": " + ".join(r.name or "?" for r in summands), **res.to_json()}


def _auto_catalog(algebra, summands):
    """The phi catalog and its assumed infinite-pd names: the shipped
    catalog on the doubled-cycle corpus algebra, sized to the summands, its
    simples assumed, and elsewhere the simples with no assumption.  A
    summand that matches no entry joins the phi table itself, see
    HybridClassTable.identify."""
    if corpus._infinito_signature(algebra):
        n_max = max(1, *((max(r.dims.values()) - 1) // 3 + 1 for r in summands))
        return corpus.infinito_catalog(algebra, n_max)
    return [(f"S_{v}", reps.simple(algebra, v)) for v in algebra.quiver.vertices], []


def cmd_phidim_subcat(args, algebra):
    if args.module:
        seed_classes = _multiset_arg(args, algebra).classes()
    else:
        seed_classes = calculus(algebra).all_path_classes()
    out = phidim_subcat(algebra, seed_classes).to_json(include_lattice=True)
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
        _k, va = evaluate(expr_a, algebra, context="rep")
        _k, vb = evaluate(expr_b, algebra, context="rep")
        pairs.append((va[0][0], vb[0][0]))
    report = triangular_check(algebra, gamma, gamma_bar, witness_pairs=pairs)
    return report.to_json()


def cmd_corpus(args, _algebra=None):
    if args.out:
        return {"written": corpus.write_all(args.out)}
    return {"algebras": sorted(corpus.FILES), "splits": sorted(corpus.SPLITS)}


def cmd_batch(args, _algebra=None):
    """Run one command line per input line; JSON array ordered by input.
    A line that runs batch is refused with exit 1: a file that names itself
    would recurse without end.  Lines share the corpus algebras they name,
    which no command changes, and parse afresh any file they name; this
    runner is sequential and deterministic."""
    with open(args.file) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    results = []
    for line in lines:
        argv = shlex.split(line)
        if argv and argv[0] == "quiverhom":
            argv = argv[1:]
        entry = {"line": line}
        # argparse's text (--help included) goes to stderr: stdout holds
        # only the JSON document
        with contextlib.redirect_stdout(sys.stderr):
            sub, usage_exit = _parse(argv)
        if sub is None:
            entry.update(error="bad arguments", exit=usage_exit)
        elif sub.command == "batch":
            entry.update(error="bad arguments: a batch line cannot run batch", exit=1)
        else:
            exit_code, payload, error = _run_command(sub)
            if error is None:
                entry["result"] = payload
            else:
                entry["error"] = f"{error['error']}: {error['message']}"
            entry["exit"] = exit_code
        results.append(entry)
    return {"runs": results}


def nonnegative_int(text):
    """A count option's value; a negative count is a usage error."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, got {text}")
    return int(text)


# each option as (flag, add_argument keywords), keyed by its dest
OPTIONS = {
    "algebra": ("--algebra", dict(required=True, help=".alg file path or corpus:NAME")),
    "module": ("--module", dict(help="module expression")),
    "steps": ("--steps", dict(type=nonnegative_int, default=1)),
    "max_steps": ("--max-steps", dict(type=nonnegative_int, default=1000)),
    "max_dim": ("--max-dim", dict(
        type=nonnegative_int, default=MAX_MODULE_DIM,
        help="stop with exit 2 before a syzygy of larger total dimension")),
    "structure_constants": ("--structure-constants", dict(
        action="store_true", help="include the full structure-constant dump")),
    "split": ("--split", dict(help="split file for triangular-check")),
    "witness_pair": ("--witness-pair", dict(
        nargs=2, action="append", metavar=("EXPR_A", "EXPR_B"),
        help="module pair for certified phi lower bounds")),
    "out": ("--out", dict(help="write the corpus files to a directory")),
    "file": ("file", dict(help="file of command lines to run in order")),
}

# each command's function and the options it reads, besides --json
COMMANDS = {
    "info": (cmd_info, ("algebra", "structure_constants")),
    "gldim": (cmd_gldim, ("algebra",)),
    "pd": (cmd_pd, ("algebra", "module", "max_steps", "max_dim")),
    "syzygy": (cmd_syzygy, ("algebra", "module", "steps", "max_dim")),
    "norm": (cmd_norm, ("algebra", "module")),
    "periodic-test": (cmd_periodic_test, ("algebra", "module")),
    "periodic-find": (cmd_periodic_find, ("algebra",)),
    "omega-inf": (cmd_omega_inf, ("algebra", "module")),
    "perfect-paths": (cmd_perfect_paths, ("algebra",)),
    "gp-list": (cmd_gp_list, ("algebra",)),
    "self-injective": (cmd_self_injective, ("algebra",)),
    "cm-free": (cmd_cm_free, ("algebra",)),
    "co-gorenstein": (cmd_cogorenstein, ("algebra",)),
    "inj-pd": (cmd_inj_pd, ("algebra", "max_steps", "max_dim")),
    "phi": (cmd_phi, ("algebra", "module")),
    "phidim-subcat": (cmd_phidim_subcat, ("algebra", "module")),
    "phidim-bounds": (cmd_phidim_bounds, ("algebra",)),
    "triangular-check": (cmd_triangular, ("algebra", "split", "witness_pair")),
    "corpus": (cmd_corpus, ("out",)),
    "batch": (cmd_batch, ("file",)),
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every main call and batch line reuses it.  A flag must be
    spelled in full: no prefix of it is accepted."""
    parser = argparse.ArgumentParser(
        prog="quiverhom", description="Homological invariants of bound quiver algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, options) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for option in options:
            flag, kwargs = OPTIONS[option]
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true")
    sub.choices["inj-pd"].set_defaults(max_steps=20)
    parser.commands = sub.choices
    return parser


def _parse(argv):
    """(args, None), or (None, exit code) where argparse ends the line: 0 after
    --help, 1 for a usage error (argparse's own 2 would read as a cap).  An
    unknown argument is reported with its command's usage, not the top level's."""
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.commands[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
        return args, None
    except SystemExit as exc:
        return None, 1 if exc.code else 0


def _render(payload, args):
    if args.json:
        keys = ("witness", "relation_cycles", "offending_class")
        certificates = None
        if isinstance(payload, dict):
            certificates = {k: payload[k] for k in keys if k in payload} or None
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
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines)


def _run_command(args):
    """Run a parsed command line: (exit code, payload, error).  Exactly one
    of payload and error is None; error is {"error": code, "message": text}.
    Exit codes: 0 answer, 1 user error, 2 a cap was reached, 3 internal."""
    fn, options = COMMANDS[args.command]
    try:
        if "algebra" in options:
            return 0, fn(args, load_algebra(args.algebra)), None
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
    args, usage_exit = _parse(argv)
    if args is None:
        return usage_exit
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
