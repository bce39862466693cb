import json
import os
import subprocess
import sys
import time

import pytest

from quiverhom import cli, corpus
from quiverhom.cli import main
from quiverhom.errors import InternalInvariantError


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
        code, doc = run_json(capsys, "syzygy", "--algebra", "corpus:infinito",
                             "--module", "simple(1)", "--max-dim", "-1")
        assert code == 1 and doc["result"]["error"] == "PRECONDITION"
        code, doc = run_json(capsys, "inj-pd", "--algebra", "corpus:infinito")
        assert code == 2
        assert all(probe["kind"] == "at_least" and "dimension budget 1000" in probe["detail"]
                   for probe in doc["result"]["per_vertex"].values())

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

        monkeypatch.setitem(cli.COMMANDS, "gldim", (broken, True))
        code, doc = run_json(capsys, "gldim", "--algebra", "corpus:a3_k2")
        assert code == 3 and doc["result"]["error"] == "INTERNAL"
        runs = self.batch(capsys, tmp_path, "gldim --algebra corpus:a3_k2")
        assert runs == [{"line": "gldim --algebra corpus:a3_k2",
                         "error": "INTERNAL: broken on purpose", "exit": 3}]


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        argv = ["co-gorenstein", "--algebra", "corpus:sec4_example",
                "--seed", "0", "--json"]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_iso_heavy_command_deterministic(self, capsys):
        argv = ["self-injective", "--algebra", "corpus:sec3_example",
                "--seed", "7", "--json"]
        main(list(argv))
        out1 = capsys.readouterr().out
        main(list(argv))
        out2 = capsys.readouterr().out
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
