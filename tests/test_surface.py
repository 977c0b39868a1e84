"""The package's public surface is what the CLI, the benchmark and the paper use.

Every top-level public function or class of ``nearelliptic`` must be reached
by one of: code of the package outside its own body (the re-exports of
``__init__`` do not count, and a reference counts only when the code that
makes it is reached itself), the benchmark (``perfbench/*.py`` and
``bench_record.py``), the command line (a click command), or the paper
(a key of :data:`PAPER_CONCEPTS`, whose value names the notion).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nearelliptic"
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "bench_record.py"]

# names a user may call for a notion the paper names, though no code of the package calls them
PAPER_CONCEPTS = {
    "bilinear_form": "the bilinear form A : P (x) Q of the coefficient tensor, whose rank-one values define nu(A)",
    "hermitian_form": "the Legendre-Hadamard condition for complex xi: A : xi (x) a (x) conj(xi) (x) a >= nu |xi|^2 |a|^2",
    "symbol_inverse": "the inverse symbol (A : z (x) z)^{-1} of the Fourier-transform solve of A : D^2 u = f",
    "w22star_norms": "the W^{2,2*} energy norm of the solution space",
    "verify_comparison": "the uniqueness estimate ||D^2(w - v)|| <= C ||F(., D^2 w) - F(., D^2 v)||",
    "evaluate_F": "the nonlinearity F(x, X) at one point",
}


def _names(tree: ast.AST) -> set[str]:
    """Every name a subtree loads, as a bare name or as an attribute; a name only stored to does not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def _is_command(node: ast.AST) -> bool:
    """True for a function under a click ``@<group>.command(...)`` or ``@click.group(...)`` decorator."""
    for deco in getattr(node, "decorator_list", ()):
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _surface():
    """(public name -> names its body loads, names loaded by reached code, click commands)."""
    bodies, reached, commands = {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            if public:
                bodies[node.name] = _names(node)
                if _is_command(node):
                    commands.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                # module-level code and private helpers are reached by the public code that calls them
                reached |= _names(node)
    return bodies, reached, commands


def unused_public_names() -> list[str]:
    bodies, reached, commands = _surface()
    for path in BENCHMARK:
        reached |= _names(ast.parse(path.read_text()))
    kept = set(commands) | (set(PAPER_CONCEPTS) & set(bodies))
    kept |= {name for name in bodies if name in reached}
    frontier = list(kept)
    while frontier:
        for name in bodies[frontier.pop()] & set(bodies):
            if name not in kept:
                kept.add(name)
                frontier.append(name)
    return sorted(set(bodies) - kept)


def test_every_public_name_is_used_by_the_package_the_benchmark_the_cli_or_the_paper():
    assert unused_public_names() == []


def test_every_paper_concept_is_a_public_name():
    bodies, _, _ = _surface()
    assert set(PAPER_CONCEPTS) <= set(bodies)
