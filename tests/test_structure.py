"""The package's structure rules, as one checked table.

Each rule keeps one construction in one place: one root-of-unity evaluator,
one presence rule, one ray per value, and so on. A rule finds its sites in
the files of its scope: the module, then the class and def names enclosing
a match. Most rules match a regex against ast.unparse of some kinds of node,
every string constant blanked, so prose never matches. The files must hold
exactly the allowed sites, and each snippet (a short violation; the hits a
guard found on its parent tree among them) must give a site the rule does
not allow, so no rule passes whatever the code does. To add a rule, append
a Rule with its allowed sites and a violating snippet.
"""
import ast
import functools
import re
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ("src/polystate/*.py",)
_unparse = functools.lru_cache(maxsize=None)(ast.unparse)


@functools.lru_cache(maxsize=None)
def _nodes(module: str, text: str) -> list:
    """(site, node) for every node of text, string constants blanked: code only."""
    found = []

    def visit(node, site):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node.value = ""
        found.append((site, node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            site = f"{site}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, site)

    visit(ast.parse(text), module)
    return found


def code(kinds, pattern: str):
    """The sites of the nodes of these kinds whose code matches pattern."""
    return lambda module, text: {
        site for site, node in _nodes(module, text)
        if isinstance(node, kinds) and re.search(pattern, _unparse(node))}


def text(pattern: str):
    """The module when its text, prose included, matches pattern; this file,
    whose snippets hold the matches, excepted."""
    return lambda module, text: (
        {module} if module != Path(__file__).stem and re.search(pattern, text) else set())


def py310(module: str, text: str) -> set:
    """The module unless it parses as Python 3.10, CI's oldest."""
    try:
        ast.parse(text, feature_version=(3, 10))
    except SyntaxError:
        return {module}
    return set()


# sites: (module, text) -> set of sites; snippets: (module, code), each a violation
Rule = namedtuple("Rule", "name sites allowed snippets scope", defaults=[PACKAGE])
RULES = [
    Rule("root-of-unity", code(ast.BinOp, r"2j \* np\.pi|mu\([^)]*\) \*\*"),
         {"group.unit_root"},
         [("cyclic", "chi = np.exp(2j * np.pi * k / n)"), ("verify", "phase = mu(n) ** k")]),
    Rule("rotation-formula", code(ast.Call, r"exp\(-1j \*"), {"fock._rotation_phases"},
         [("observables", "phases = np.exp(-1j * theta * m)")]),
    Rule("no-scipy", code((ast.Import, ast.ImportFrom, ast.Name, ast.Attribute),
                          r"scipy|roots_hermite"), set(),
         [("gaussian", "from scipy.special import roots_hermite"),
          ("observables", "x, w = scipy.special.roots_hermite(k)")]),
    Rule("class-sums", code((ast.Name, ast.Attribute), r"bincount"), {"fock._class_sums"},
         [("cyclic", "w = np.bincount(m % n, weights=p)")]),
    Rule("phase-table", code(ast.Call, r"unit_root\(.*np\.arange\("
                                       r"(d|[a-z_.]*shape\[-1\]|[a-z_.]*n_max)"),
         {"fock._rotation_table"},
         [("cyclic", "table = unit_root(-np.multiply.outer(l.ravel(), np.arange(d)), n)"),
          ("cyclic", "table = unit_root(-np.outer(r, np.arange(rho.shape[-1])), n)"),
          ("fock", "copies = unit_root(-r * np.arange(amps.shape[-1]), n) * amps[..., None, :]"),
          ("fock", "phases = unit_root((r - 1) * np.arange(state.n_max + 1), n)"),
          ("verify", "ph = unit_root(-np.outer(np.arange(n), np.arange(rho.shape[-1])), n)")]),
    Rule("presence-compare", code(ast.Compare, r"\b_EMPTY_TOL\b"), {"cyclic._absent"},
         [("cyclic", "empty = raw_norm < _EMPTY_TOL")]),
    Rule("presence-callers", code(ast.Call, r"\b_absent\("),
         {"cyclic._superpositions", "cyclic._sector_part", "cyclic.cyclic_density",
          "cyclic.circle_limit", "cyclic.annihilation_irrep_shift"},
         [("observables", "empty = _absent(mass, total)")]),
    Rule("truncation-compare", code(ast.Compare, r"\bTAIL_TOL\b"), {"fock._too_tight"},
         [("gaussian", "return m > TAIL_TOL")]),
    # bipartite_normalize reads its seeds to a tighter range than their kept ray
    Rule("one-ray", code(ast.Call, r"_ray_scale\([a-z_.]+\.(amplitudes|matrix)\b"),
         {"observables.bipartite_normalize"},
         [("cyclic", "amps = _superpositions(_ray_scale(phi.amplitudes)[0], spec.n, [lam])"),
          ("cyclic", "seed, total = _ray_scale(phi.amplitudes)"),
          ("fock", "ray, total = _ray_scale(self.amplitudes)"),
          ("fock", "ray = _ray_scale(state.amplitudes)[0]"),
          ("observables", "mass = np.abs(_ray_scale(state.amplitudes)[0]) ** 2"),
          ("cyclic", "mat, total = _ray_scale(rho.matrix)")]),
    Rule("own-arrays", code(ast.Call, r"np\.asarray\(self\."), set(),
         [("fock", "amps = np.asarray(self.amplitudes, dtype=complex)"),
          ("fock", "mat = np.asarray(self.matrix, dtype=complex)"),
          ("observables", "v = np.asarray(self.values, dtype=float)"),
          ("observables", "c = np.asarray(self.c, dtype=complex)")]),
    Rule("observables-imports", code(ast.ImportFrom, r"^from \.cyclic "), set(),
         [("observables", "from .cyclic import _superpositions")],
         ("src/polystate/observables.py",)),
    Rule("cli-pair-writer", code(ast.Call, r"_pairs\(|vector_to_dict\("), set(),
         [("cli", "text = json.dumps(_pairs(res.f_matrix))"),
          ("cli", "data = vector_to_dict(state)")],
         ("src/polystate/cli.py",)),
    Rule("retired-names", text(r"EMBED_TAIL_TOL|_oracle_entropies|_ORACLE_BLOCK"), set(),
         [("observables", "_ORACLE_BLOCK = 1"), ("gaussian", "EMBED_TAIL_TOL = 1e-10"),
          ("verify", "# the stacked _oracle_entropies")],
         ("src/polystate/*.py", "tests/*.py", "README.md")),
    Rule("python-3.10", py310, set(),
         [("fock", "try:\n    pass\nexcept* ValueError:\n    pass")],
         ("src/polystate/*.py", "tests/*.py", "perfbench/*.py")),
]


@functools.lru_cache(maxsize=None)
def _files(scope: tuple) -> dict:
    """{module: text} of every file in scope."""
    return {path.stem: path.read_text() for pattern in scope
            for path in sorted(ROOT.glob(pattern))}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_the_tree_keeps_the_rule(rule):
    found = set().union(*(rule.sites(m, t) for m, t in _files(rule.scope).items()))
    assert found == rule.allowed


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_every_rule_flags_its_snippets(rule):
    assert rule.snippets
    for module, snippet in rule.snippets:
        assert module in _files(rule.scope), (module, rule.scope)
        assert rule.sites(module, snippet) - rule.allowed, snippet
