"""No dead code in the package: every function and method defined under
src/quiverhom is referenced by name somewhere in src/quiverhom.  A helper that
only a test calls belongs in the test."""

import ast
from pathlib import Path

import quiverhom

PACKAGE = Path(quiverhom.__file__).parent

# names that nothing in the package calls but that are kept on purpose
EXEMPT = {
    "invert": "the benchmark's tracer wraps linalg.invert by name (ROADMAP item 1)",
    "nullspace": "the benchmark's tracer wraps linalg.nullspace by name (ROADMAP item 1)",
    "solve_many": "the benchmark's tracer wraps linalg.solve_many by name (ROADMAP item 1)",
    "matrices": "ModuleHom's dense view, read by the benchmark's certificate check",
    "annihilator_sets": "the public L(p)/R(p), compared with the basis-scan oracle",
}


def test_every_function_is_referenced_in_src():
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {
        name: where for name, where in defined.items()
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }
    # an exemption that became referenced (or was deleted) is dropped too
    assert sorted(unreferenced) == sorted(EXEMPT), unreferenced
