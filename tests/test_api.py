"""The package exports each module's public names once: polystate.__all__ is
built from the module lists, so this file is the one written-out copy.
Every exported name is reached by the CLI, verify or the benchmark."""
import ast
import importlib
from pathlib import Path

import polystate

PUBLIC = {
    "group": {"unit_root", "theta", "character", "root_sum",
              "character_orthogonality_report"},
    "fock": {"TAIL_TOL", "FockVector", "FockOperator", "QuadratureMeans",
             "from_amplitudes", "basis_state", "coherent", "rotate",
             "inner", "fidelity", "quadrature_means",
             "sector_mask", "residue_class_masses", "annihilate",
             "vector_to_dict", "vector_from_dict"},
    "cyclic": {"CyclicSpec", "NormalizationRecord", "EmptyRepresentationError",
               "cyclic_superposition", "cyclic_state", "cyclic_erasure",
               "cyclic_set", "normalization_record", "cyclic_density",
               "density_route_gap", "circle_limit", "circle_limit_quadrature_gap",
               "dihedral_state", "annihilation_irrep_shift"},
    "gaussian": {"GaussianParams", "GaussianMoments",
                 "wavefunction", "moments", "rotate_params", "hermite_functions",
                 "gaussian_to_fock", "fock_wavefunction", "cyclic_gaussian",
                 "cyclic_gaussian_wavefunction", "c2_closed_form"},
    "observables": {"WignerGrid", "wigner_points", "wigner", "wigner_direct",
                    "wigner_normalization_error", "wigner_reflection_residual",
                    "write_wigner_csv", "mandel", "BipartiteSpec",
                    "MemoryGuardError",
                    "bipartite_normalize", "EntanglementResult", "linear_entropy",
                    "linear_entropy_gram", "linear_entropy_oracle"},
    "verify": {"CheckRow", "DEFAULT_SEED", "SUITES", "run_suites", "format_report"},
}


def test_package_exports_the_public_names():
    expected = set().union(*PUBLIC.values()) | {"__version__"}
    assert len(polystate.__all__) == len(set(polystate.__all__)) == 67
    assert set(polystate.__all__) == expected
    missing = [name for name in polystate.__all__ if not hasattr(polystate, name)]
    assert not missing, f"exported but not defined: {missing}"


def test_module_lists_lie_inside_the_package_list():
    for short, names in PUBLIC.items():
        module = importlib.import_module(f"polystate.{short}")
        assert set(module.__all__) == names, short
        assert set(module.__all__) <= set(polystate.__all__), short
        for name in module.__all__:
            assert getattr(polystate, name) is getattr(module, name), name


ROOT = Path(__file__).resolve().parents[1]
MODULES = {"cli", "cyclic", "fock", "gaussian", "group", "observables", "verify"}


def _loads(tree: ast.AST, bare: bool) -> set[str]:
    """Names loaded in tree as <module>.<name> (a polystate module) or, when
    bare, as plain names; each outside the top-level def or class defining it."""
    found = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                here.add(node.attr)
        found |= here - {getattr(stmt, "name", None)}
    return found


def test_every_public_name_has_a_caller():
    # a caller in the package itself, or in the benchmark as <module>.<name>
    # or a TRACED entry; perfbench's own oracles (O.quadrature_means) do not count
    reached = set()
    for path in (ROOT / "src" / "polystate").glob("*.py"):
        reached |= _loads(ast.parse(path.read_text()), bare=True)
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        reached |= _loads(tree, bare=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "TRACED" for t in node.targets):
                reached |= {n for names in ast.literal_eval(node.value).values()
                            for n in names}
    unreached = sorted(set(polystate.__all__) - {"__version__"} - reached)
    assert not unreached, f"exported names that only tests reach: {unreached}"
