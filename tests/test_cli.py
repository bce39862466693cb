import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from quiverhom import cli, corpus, reps
from quiverhom.algfile import format_algebra
from quiverhom.cli import main
from quiverhom.errors import InternalInvariantError
from quiverhom.igusa_todorov import HybridClassTable
from quiverhom.modexpr import evaluate

from helpers import ONE_VERTEX_WIDE_SOCLE, fed_cycles_algebra, rep_literal_text


# sha256 of `phi --json` over corpus:infinito for these modules, in order,
# as printed when every rational was a Fraction
PHI_INFINITO_MODULES = [f"M_alpha(1,{n})+M_beta(1,{n})" for n in range(1, 6)] + \
    [f"simple({v})" for v in range(1, 5)]
PHI_INFINITO_SHA256 = "8b922c632f9442280f0977dba50406b1af5b4e0955cd7fbfbbb4e069ee74cce9"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    corpus.write_all(str(d))
    return str(d)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out) if out.strip() else json.loads(err)
    return code, doc


class TestBasicCommands:
    def test_info(self, capsys):
        code, doc = run_json(capsys, "info", "--algebra", "corpus:sec4_example")
        assert code == 0
        assert doc["result"]["dimension"] == 9
        assert doc["result"]["kind"] == "monomial"

    def test_gldim_formula(self, capsys):
        code, doc = run_json(capsys, "gldim", "--algebra", "corpus:a3_k2")
        assert code == 0
        assert doc["result"] == {"gldim": 2, "formula_value": 2}

    def test_co_gorenstein_cycle(self, capsys):
        code, doc = run_json(capsys, "co-gorenstein", "--algebra", "corpus:c3_k2")
        assert code == 0
        assert doc["result"]["verdict"] is True
        assert doc["result"]["branch"] == "cycle_graph"

    def test_gp_list_sec4(self, capsys):
        code, doc = run_json(capsys, "gp-list", "--algebra", "corpus:sec4_example")
        assert code == 0
        (entry,) = doc["result"]["gorenstein_projective_nonprojective"]
        assert entry["relation_cycle"] == ["g", "g"]

    def test_periodic_find(self, capsys):
        code, doc = run_json(capsys, "periodic-find", "--algebra", "corpus:c2_k2")
        assert code == 0
        assert doc["result"]["periodic_module"]["period"] == 2

    def test_norm(self, capsys):
        code, doc = run_json(capsys, "norm", "--algebra", "corpus:c2_k2",
                             "--module", "simple(1) + simple(2)")
        assert code == 0 and doc["result"]["norm"] == 2

    def test_syzygy_multiset(self, capsys):
        code, doc = run_json(capsys, "syzygy", "--algebra", "corpus:c2_k2",
                             "--module", "simple(1)", "--steps", "2")
        assert code == 0
        assert doc["result"]["syzygy"] == "S_1"

    @pytest.mark.parametrize("module, name", [
        ("simple(1)", "S_1"), ("simple(1)+simple(2)", "module"), ("2*simple(1)", "module")])
    def test_syzygy_names_a_one_part_module_only(self, capsys, module, name):
        # the sum of one part is the part itself, so it keeps its name
        code, doc = run_json(capsys, "syzygy", "--algebra", "corpus:finito",
                             "--module", module)
        assert code == 0 and doc["result"]["module"] == name

    def test_pd_per_class(self, capsys):
        code, doc = run_json(capsys, "pd", "--algebra", "corpus:sec4_example",
                             "--module", "path(g) + path(b)")
        assert code == 0
        assert doc["result"]["pd"] == "infinite"
        values = set(doc["result"]["per_class"].values())
        assert values == {"infinite", 1}

    def test_phi_lattice(self, capsys):
        code, doc = run_json(capsys, "phi", "--algebra", "corpus:sec4_example",
                             "--module", "path(g) + path(b)")
        assert code == 0
        assert doc["result"]["phi"] == 1

    @pytest.mark.parametrize("algebra, module", [
        ("infinito", "0*M_alpha(1,2)"),
        ("sec3_example", "0*simple(1)"),
        ("sec3_example", "0*simple(1) + 0*simple(2)"),
    ])
    def test_phi_of_zero_multiplicity_is_the_zero_module(self, capsys, algebra, module):
        code, doc = run_json(capsys, "phi", "--algebra", f"corpus:{algebra}",
                             "--module", module)
        assert code == 0
        assert doc["result"] == {"module": "0", "phi": 0, "rank_sequence": [0]}
        code, doc = run_json(capsys, "pd", "--algebra", f"corpus:{algebra}",
                             "--module", module)
        assert code == 0
        assert doc["result"]["pd"] == {"kind": "exact", "value": 0, "detail": "zero module"}

    def test_phi_drops_zero_multiplicity_summands(self, capsys):
        code, doc = run_json(capsys, "phi", "--algebra", "corpus:infinito",
                             "--module", "0*M_alpha(1,2) + M_beta(1,2)")
        assert code == 0
        assert doc["result"]["module"] == "M_beta(1,2)"

    @pytest.mark.parametrize("algebra, module, result", [
        ("infinito", "rep{1:0}", {"module": "0", "phi": 0, "rank_sequence": [0]}),
        ("finito", "rep{1:0}", {"module": "0", "phi": 0, "rank_sequence": [0]}),
        ("infinito", "simple(1)+rep{1:0}",
         {"module": "S_1", "phi": 0, "rank_sequence": [1, 1],
          "assumptions": ["assumed infinite pd: ['S_1']"]}),
    ])
    def test_phi_drops_zero_dimensional_summands(self, capsys, algebra, module, result):
        code, doc = run_json(capsys, "phi", "--algebra", f"corpus:{algebra}",
                             "--module", module)
        assert code == 0
        assert doc["result"] == result

    @pytest.mark.parametrize("module, ranks", [
        ("proj(1)", [0]),
        ("simple(1)+simple(1)", [1]),
        ("simple(1)+simple(2)", [2]),
        ("simple(1)+proj(1)", [1]),
    ])
    def test_phi_over_a_self_injective_algebra_ranks_the_nonprojective_classes(
            self, capsys, module, ranks):
        code, doc = run_json(capsys, "phi", "--algebra", "corpus:sec3_example",
                             "--module", module)
        assert code == 0
        assert (doc["result"]["phi"], doc["result"]["rank_sequence"]) == (0, ranks)

    def test_self_injective_decides_a_non_simple_projective_socle(self, capsys, tmp_path):
        alg = tmp_path / "wide_socle.alg"
        alg.write_text(ONE_VERTEX_WIDE_SOCLE)
        code, doc = run_json(capsys, "self-injective", "--algebra", str(alg))
        assert code == 0
        assert doc["result"] == {"self_injective": False, "method": "projective socles"}

    def test_phidim_bounds(self, capsys):
        code, doc = run_json(capsys, "phidim-bounds", "--algebra", "corpus:c3_k2")
        assert code == 0
        assert doc["result"]["lower"] == 0 and doc["result"]["upper"] == 0
        assert doc["result"]["exact"] is True
        assert doc["result"]["rule"] == "self_injective"


class TestExitCodes:
    def test_parse_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("vertices: 1\nplot: yes\n")
        code, out, err = run(capsys, "info", "--algebra", str(bad))
        assert code == 1 and "PARSE_ERROR" in err

    def test_missing_file_is_one(self, capsys):
        code, out, err = run(capsys, "info", "--algebra", "/nonexistent.alg")
        assert code == 1 and "FILE_NOT_FOUND" in err

    def test_cap_is_two(self, capsys):
        code, doc = run_json(capsys, "pd", "--algebra", "corpus:finito",
                             "--module", "inj(3)", "--max-steps", "5")
        assert code == 2
        assert doc["result"]["pd"]["kind"] == "at_least"

    def test_cap_below_two_steps_reports_two(self, capsys):
        code, doc = run_json(capsys, "pd", "--algebra", "corpus:finito",
                             "--module", "inj(3)", "--max-steps", "0")
        assert code == 2
        assert doc["result"]["pd"] == {"kind": "at_least", "value": 2,
                                       "detail": "step cap reached"}

    def test_inj_pd_cap_is_two(self, capsys):
        code, doc = run_json(capsys, "inj-pd", "--algebra", "corpus:finito",
                             "--max-steps", "5")
        assert code == 2

    def test_phi_without_a_sound_rank_rule_is_two(self, capsys):
        # the simples of finito do not decompose the syzygy of S_1, and no
        # class is assumed to have infinite pd, so no rank rule could end the
        # sequence: it stops at once, naming S_1
        code, out, err = run(capsys, "phi", "--algebra", "corpus:finito",
                             "--module", "simple(1)")
        assert code == 2
        assert ("the catalog certifies no decomposition of the syzygy of S_1, "
                "and no catalog class is assumed to have infinite pd") in err

    def test_phi_over_infinito_catalogs_the_summands(self, capsys):
        # P_1 lies outside the shipped catalog; as a summand it joins the
        # phi table, classifies as projective and drops out of the bundle
        code, with_p = run_json(capsys, "phi", "--algebra", "corpus:infinito",
                                "--module", "proj(1)+M_alpha(1,2)")
        assert code == 0
        code, alone = run_json(capsys, "phi", "--algebra", "corpus:infinito",
                               "--module", "M_alpha(1,2)")
        assert code == 0
        assert with_p["result"]["phi"] == alone["result"]["phi"] == 0
        assert with_p["result"]["rank_sequence"] == alone["result"]["rank_sequence"] == [1, 1, 1]
        infinito = corpus.algebra("infinito")
        summands = [evaluate(m, infinito, context="rep")[1][0][0]
                    for m in ("proj(1)", "M_alpha(1,2)")]
        catalog, assume = cli._auto_catalog(infinito, summands)
        assert assume == ["S_1", "S_2", "S_3", "S_4"]
        assert all(entry is not r for _name, entry in catalog for r in summands)
        table = HybridClassTable(infinito, catalog)
        assert [table.identify(r) for r in summands] == ["P_1", "M_alpha(1,2)"]
        assert list(table.rep_by_name) == [name for name, _rep in catalog] + ["P_1"]

    @pytest.mark.parametrize("module", ["inj(1)", "inj(2)+M_beta(3,1)"])
    def test_phi_of_an_injective_over_infinito_is_two(self, capsys, module):
        # the injectives lie outside the shipped catalog: once a summand
        # classifies, the answer is a cap, not a user error
        code, out, err = run(capsys, "phi", "--algebra", "corpus:infinito",
                             "--module", module)
        assert code == 2 and "INDETERMINATE" in err

    @pytest.mark.parametrize("parts", [("simple(1)", "simple(2)"),
                                       ("M_alpha(1,2)", "M_beta(1,2)")])
    def test_phi_of_a_decomposable_literal_over_infinito_is_one(self, capsys, parts):
        # a literal may be a direct sum, which no catalog entry may be: it
        # stays out of the catalog, so it classifies against the shipped one
        # or not at all, and is never taken for one class with a wrong phi
        infinito = corpus.algebra("infinito")
        literal = rep_literal_text(reps.direct_sum(
            infinito, [evaluate(m, infinito, context="rep")[1][0][0] for m in parts]))
        code, out, err = run(capsys, "phi", "--algebra", "corpus:infinito",
                             "--module", literal)
        assert code == 1 and "NO_DECOMPOSITION" in err
        (rep, _mult), = evaluate(literal, infinito, context="rep")[1]
        catalog, _assume = cli._auto_catalog(infinito, [rep])
        assert all(entry is not rep for _name, entry in catalog)

    def test_phi_names_a_literal_left_out_of_the_catalog(self, capsys):
        # S_1 + S_2 as one literal is not certified indecomposable: the
        # error says why it matches nothing rather than only that it does not
        code, out, err = run(capsys, "phi", "--algebra", "corpus:finito",
                             "--module", "rep{1:1 2:1}")
        assert code == 1 and "NO_DECOMPOSITION" in err
        assert ("module with dim vector (1, 1, 0) matches no catalog entry and is not "
                "certified indecomposable (it may be a direct sum)") in err

    def test_phi_json_over_infinito_is_pinned(self, capsys):
        digest = hashlib.sha256()
        for module in PHI_INFINITO_MODULES:
            code, out, err = run(capsys, "phi", "--algebra", "corpus:infinito",
                                 "--module", module, "--json")
            assert code == 0, err
            digest.update(out.encode())
        assert digest.hexdigest() == PHI_INFINITO_SHA256

    def test_phi_catalogs_a_certified_literal(self, capsys):
        # a literal of P_1 has a simple top: certified, it joins the catalog
        # and drops out as projective, as proj(1) does
        literal = rep_literal_text(reps.projective(corpus.algebra("infinito"), "1"))
        code, doc = run_json(capsys, "phi", "--algebra", "corpus:infinito",
                             "--module", f"{literal} + M_alpha(1,2)")
        assert code == 0
        assert doc["result"]["phi"] == 0 and doc["result"]["rank_sequence"] == [1, 1, 1]

    def test_phi_of_modules_over_a_monomial_algebra_names_the_class_atoms(self, capsys):
        code, out, err = run(capsys, "phi", "--algebra", "corpus:sec4_example",
                             "--module", "inj(1)")
        assert code == 1 and "UNSUPPORTED_IDEAL" in err
        assert "path(...), simple(...), proj(...)" in err and "phi()" not in err

    def test_phi_keeps_literals_that_share_a_name(self, capsys):
        # both literals are named rep-literal; each becomes a class of the
        # phi table, so each one is identified and the answer is
        # indeterminate rather than a missing decomposition
        literals = ["rep{ 2:1 3:2 ; g = [[1, 0]] ; d = [[0, 0],[1, 0]] }",
                    "rep{ 1:1 2:2 ; a1 = [[1],[0]] ; a2 = [[0],[1]] }"]
        code, out, err = run(capsys, "phi", "--algebra", "corpus:finito",
                             "--module", " + ".join(literals))
        assert code == 2 and "INDETERMINATE" in err
        algebra = corpus.algebra("finito")
        summands = [evaluate(m, algebra, context="rep")[1][0][0] for m in literals]
        table = HybridClassTable(algebra, cli._auto_catalog(algebra, summands)[0])
        assert [table.identify(r) for r in summands] == ["rep-literal", "rep-literal'"]
        assert list(table.rep_by_name) == ["S_1", "S_2", "S_3", "rep-literal", "rep-literal'"]

    def test_dimension_budget_is_two(self, capsys):
        """S_1 over infinito has syzygies of total dimension 14, 46, 404 and
        1726: the default budget stops pd before the fourth is built."""
        start = time.monotonic()
        code, doc = run_json(capsys, "pd", "--algebra", "corpus:infinito",
                             "--module", "simple(1)")
        assert time.monotonic() - start < 10
        assert code == 2
        assert doc["result"]["pd"] == {
            "kind": "at_least", "value": 4,
            "detail": "dimension budget 1000 reached: syzygy 4 has dimension 1726"}

    def test_dimension_budget_ends_syzygy_and_inj_pd(self, capsys):
        code, doc = run_json(capsys, "syzygy", "--algebra", "corpus:infinito",
                             "--module", "simple(1)", "--steps", "2", "--max-dim", "40")
        assert code == 2
        assert doc["result"]["steps"] == 1
        assert doc["result"]["syzygy_dim_vector"] == [0, 4, 10, 0]
        assert doc["result"]["detail"] == \
            "dimension budget 40 reached: syzygy 2 has dimension 46"
        code, doc = run_json(capsys, "syzygy", "--algebra", "corpus:infinito",
                             "--module", "simple(1)", "--steps", "2", "--max-dim", "46")
        assert code == 0 and doc["result"]["syzygy_dim_vector"] == [0, 0, 6, 40]
        code, doc = run_json(capsys, "inj-pd", "--algebra", "corpus:infinito")
        assert code == 2
        assert all(probe["kind"] == "at_least" and "dimension budget 1000" in probe["detail"]
                   for probe in doc["result"]["per_vertex"].values())

    def test_long_period_is_decided_not_capped(self, capsys, tmp_path):
        alg = tmp_path / "cycles_31_37.alg"
        alg.write_text(format_algebra(fed_cycles_algebra((31, 37))))
        code, doc = run_json(capsys, "periodic-test", "--algebra", str(alg),
                             "--module", "simple(a0)+simple(b0)")
        assert code == 0
        assert (doc["result"]["periodic"], doc["result"]["period"]) == (True, 1147)

    def test_hypothesis_violation_is_one(self, capsys, corpus_dir):
        code, out, err = run(
            capsys, "triangular-check", "--algebra", "corpus:finito",
            "--split", os.path.join(corpus_dir, "finito_bad.split"))
        assert code == 1 and "HYPOTHESIS_VIOLATED" in err


    def test_closed_pipe_exits_quietly(self):
        # the reader is gone before the first write, as with `| head -0`
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "quiverhom.cli", "info", "--algebra", "corpus:infinito"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""


class TestBatch:
    def batch(self, capsys, tmp_path, *lines):
        script = tmp_path / "lines.txt"
        script.write_text("\n".join(lines) + "\n")
        code, doc = run_json(capsys, "batch", str(script))
        assert code == 0
        return doc["result"]["runs"]

    def test_missing_file_is_one_entry(self, capsys, tmp_path):
        runs = self.batch(capsys, tmp_path,
                          "gldim --algebra corpus:a3_k2",
                          "gldim --algebra /nonexistent.alg",
                          "quiverhom gldim --algebra corpus:c3_k2")
        assert [r["exit"] for r in runs] == [0, 1, 0]
        assert runs[0]["result"] == {"gldim": 2, "formula_value": 2}
        assert runs[1]["error"].startswith("FILE_NOT_FOUND: ") and "result" not in runs[1]
        assert runs[2]["line"] == "quiverhom gldim --algebra corpus:c3_k2"

    def test_bad_arguments_and_cap(self, capsys, tmp_path):
        runs = self.batch(capsys, tmp_path,
                          "gldim",
                          "pd --algebra corpus:finito --module inj(3) --max-steps 5")
        assert runs[0] == {"line": "gldim", "error": "bad arguments", "exit": 1}
        assert runs[1]["exit"] == 2 and runs[1]["result"]["pd"]["kind"] == "at_least"

    def test_internal_error_is_three(self, capsys, tmp_path, monkeypatch):
        def broken(args, algebra):
            raise InternalInvariantError("broken on purpose")

        monkeypatch.setitem(cli.COMMANDS, "gldim", (broken, ("algebra",)))
        code, doc = run_json(capsys, "gldim", "--algebra", "corpus:a3_k2")
        assert code == 3 and doc["result"]["error"] == "INTERNAL"
        runs = self.batch(capsys, tmp_path, "gldim --algebra corpus:a3_k2")
        assert runs == [{"line": "gldim --algebra corpus:a3_k2",
                         "error": "INTERNAL: broken on purpose", "exit": 3}]


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        argv = ["co-gorenstein", "--algebra", "corpus:sec4_example", "--json"]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_iso_heavy_command_deterministic(self, capsys):
        argv = ["self-injective", "--algebra", "corpus:sec3_example", "--json"]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestTriangularCommand:
    def test_finito_split(self, capsys, corpus_dir):
        code, doc = run_json(
            capsys, "triangular-check", "--algebra", "corpus:finito",
            "--split", os.path.join(corpus_dir, "finito.split"),
            "--witness-pair", corpus.FINITO_WITNESS_A, corpus.FINITO_WITNESS_B)
        assert code == 0
        assert doc["result"]["phidim_pinned"] == 1


class TestCorpusCommand:
    def test_listing(self, capsys):
        code, doc = run_json(capsys, "corpus")
        assert code == 0
        assert "infinito.alg" in doc["result"]["algebras"]

    def test_write_out(self, capsys, tmp_path):
        code, doc = run_json(capsys, "corpus", "--out", str(tmp_path / "files"))
        assert code == 0
        assert any(p.endswith("sec4_example.alg") for p in doc["result"]["written"])

    def test_written_files_load(self, capsys, corpus_dir):
        code, doc = run_json(capsys, "cm-free", "--algebra",
                             os.path.join(corpus_dir, "sec4_example.alg"))
        assert code == 0 and doc["result"]["cm_free"] is False


class TestEveryCommandOnCorpus:
    """Every applicable command terminates within the default caps on the
    corpus (liveness across a representative command/file matrix)."""

    MATRIX = [
        (["info"], ["sec4_example", "sec3_example", "finito", "infinito",
                    "c3_k2", "a3_k2", "subheart_no", "two_cycles"]),
        (["gldim"], ["sec4_example", "c3_k2", "a3_k2", "c4_k3", "two_cycles"]),
        (["perfect-paths"], ["sec4_example", "c2_k2", "a4_k2", "subheart_no"]),
        (["gp-list"], ["sec4_example", "c4_k3", "two_cycles"]),
        (["cm-free"], ["sec4_example", "a3_k2", "subheart_no"]),
        (["co-gorenstein"], ["sec4_example", "c2_k2", "a3_k2", "subheart_no",
                             "two_cycles"]),
        (["periodic-find"], ["sec4_example", "c4_k3", "a4_k2", "subheart_no"]),
        (["self-injective"], ["c3_k2", "a3_k2", "sec3_example"]),
        (["phidim-bounds"], ["sec4_example", "c2_k2", "a4_k2", "two_cycles"]),
        (["phidim-subcat"], ["sec4_example", "c4_k3"]),
        (["inj-pd"], ["sec4_example", "a3_k2", "c2_k2"]),
    ]

    def test_matrix(self, capsys):
        for cmd, names in self.MATRIX:
            for name in names:
                code = main(cmd + ["--algebra", f"corpus:{name}", "--json"])
                capsys.readouterr()
                assert code in (0, 2), (cmd, name, code)


# the options each command reads, besides --json
DECLARED = {
    "info": {"--algebra", "--structure-constants"},
    **dict.fromkeys(["gldim", "perfect-paths", "gp-list", "cm-free", "phidim-bounds"],
                    {"--algebra"}),
    "pd": {"--algebra", "--module", "--max-steps", "--max-dim"},
    "syzygy": {"--algebra", "--module", "--steps", "--max-dim"},
    **dict.fromkeys(["norm", "phidim-subcat"], {"--algebra", "--module"}),
    **dict.fromkeys(["periodic-test", "omega-inf"], {"--algebra", "--module"}),
    **dict.fromkeys(["periodic-find", "co-gorenstein"], {"--algebra"}),
    "self-injective": {"--algebra"},
    "inj-pd": {"--algebra", "--max-steps", "--max-dim"},
    "phi": {"--algebra", "--module"},
    "triangular-check": {"--algebra", "--split", "--witness-pair"},
    "corpus": {"--out"},
    "batch": {"file"},
}

# the flags all commands took when they shared one set, with a value each
OLD_SHARED = {"--module": ["simple(1)"], "--steps": ["2"], "--max-steps": ["1"],
              "--trials": ["1"], "--seed": ["0"], "--split": ["x.split"],
              "--witness-pair": ["simple(1)", "simple(2)"]}


def declared_flags():
    """Each subcommand's flags (a positional by its dest), in declaration order."""
    parser = cli.build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[0] if a.option_strings else a.dest
                   for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


def base_argv(name, batch_file="lines.txt"):
    """A command line of name that parses, with no optional flag set."""
    if name == "batch":
        return [name, batch_file]
    return [name] if name == "corpus" else [name, "--algebra", "corpus:a3_k2"]


def unread_flag_lines():
    return [(name, base_argv(name) + [flag] + values)
            for name in sorted(cli.COMMANDS)
            for flag, values in OLD_SHARED.items() if flag not in DECLARED[name]]


class TestOptions:
    def test_declared_sets(self):
        flags = declared_flags()
        assert {name: set(f) for name, f in flags.items()} == \
            {name: DECLARED[name] | {"--json"} for name in cli.COMMANDS}
        assert sum(len(f) for f in flags.values()) == 56

    def test_inj_pd_keeps_its_step_cap(self):
        parser = cli.build_parser()
        assert parser.parse_args(base_argv("inj-pd")).max_steps == 20
        assert parser.parse_args(base_argv("pd")).max_steps == 1000

    def test_unread_flags_exit_one(self, capsys):
        lines = unread_flag_lines()
        assert len(lines) == 7 * 20 - 12
        for name, argv in lines:
            cli.build_parser().parse_args(base_argv(name))
            assert main(argv + ["--json"]) == 1, argv
            out = capsys.readouterr()
            assert out.out == "" and "unrecognized arguments" in out.err

    def test_unread_flags_are_bad_arguments_in_batch(self, capsys, tmp_path):
        script = tmp_path / "lines.txt"
        script.write_text("".join(" ".join(argv) + "\n" for _name, argv in unread_flag_lines()))
        assert main(["batch", str(script), "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)["result"]["runs"]
        assert len(runs) == len(unread_flag_lines())
        assert all(set(r) == {"line", "error", "exit"} and r["error"] == "bad arguments"
                   and r["exit"] == 1 for r in runs)

    def test_usage_errors_exit_one(self, capsys):
        for argv in (["phi", "--algebra", "corpus:infinito", "--module", "M_alpha(1,1)",
                      "--max-steps", "1"],
                     ["info", "--algebra", "corpus:a3_k2", "--steps", "7", "--split", "x"],
                     # a flag's prefix is no flag: --s is not --structure-constants
                     ["info", "--algebra", "corpus:a3_k2", "--s"],
                     ["pd", "--algebra", "corpus:finito", "--max-steps", "five"],
                     ["gldim"], ["no-such-command"], []):
            assert main(argv) == 1, argv
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["info", "--algebra", "corpus:a3_k2", "--steps", "7"],
        ["co-gorenstein", "--algebra", "corpus:sec4_example", "--max-steps", "5"]])
    def test_unknown_option_shows_the_commands_usage(self, capsys, argv):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"usage: quiverhom {argv[0]} ")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err

    @pytest.mark.parametrize("argv", [
        ["syzygy", "--algebra", "corpus:sec4_example", "--module", "path(g)", "--steps", "-2"],
        ["syzygy", "--algebra", "corpus:sec4_example", "--module", "inj(1)", "--steps", "0",
         "--max-dim", "-5"],
        ["pd", "--algebra", "corpus:finito", "--module", "inj(3)", "--max-steps", "-1"],
        ["inj-pd", "--algebra", "corpus:finito", "--max-steps", "-1"]])
    def test_negative_counts_exit_one(self, capsys, argv):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"usage: quiverhom {argv[0]} ")
        assert "expected a count of 0 or more" in out.err

    def test_zero_count_is_accepted(self, capsys):
        code, doc = run_json(capsys, "syzygy", "--algebra", "corpus:sec4_example",
                             "--module", "path(g)", "--steps", "0")
        assert code == 0 and doc["result"]["syzygy"] == doc["result"]["module"]

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_help_exits_zero(self, capsys, name):
        assert main([name, "--help"]) == 0
        out = capsys.readouterr()
        assert out.out.startswith(f"usage: quiverhom {name} ") and out.err == ""

    def test_batch_output_stays_json(self, capsys, tmp_path):
        script = tmp_path / "lines.txt"
        script.write_text("gldim --help\ngldim --algebra corpus:a3_k2 --steps 2\n"
                          "gldim --algebra corpus:a3_k2\n")
        assert main(["batch", str(script), "--json"]) == 0
        out = capsys.readouterr()
        runs = json.loads(out.out)["result"]["runs"]
        assert runs[:2] == [
            {"line": "gldim --help", "error": "bad arguments", "exit": 0},
            {"line": "gldim --algebra corpus:a3_k2 --steps 2", "error": "bad arguments",
             "exit": 1}]
        assert runs[2]["exit"] == 0
        assert "usage: quiverhom gldim" in out.err and "unrecognized arguments" in out.err

    def test_readme_lists_each_commands_options(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = line.split("|")[1:-1]
            if len(cells) == 3 and cells[0].strip().startswith("`"):
                rows[cells[0].strip().strip("`")] = set(re.findall(r"`([^`]+)`", cells[1]))
        assert rows == {name: set(f) - {"--json"} for name, f in declared_flags().items()}
