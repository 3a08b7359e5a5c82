"""The package exports each module's public names once: polystate.__all__ is
built from the module lists, so this file is the one written-out copy."""
import importlib

import polystate

PUBLIC = {
    "group": {"unit_root", "mu", "theta", "character", "root_sum",
              "character_orthogonality_report"},
    "fock": {"TAIL_TOL", "FockVector", "FockOperator", "QuadratureMeans",
             "from_amplitudes", "basis_state", "coherent", "normalize", "rotate",
             "conjugate", "inversion", "inner", "fidelity", "quadrature_means",
             "sector_mask", "residue_class_masses", "pure_density", "annihilate",
             "vector_to_dict", "vector_from_dict"},
    "cyclic": {"CyclicSpec", "NormalizationRecord", "EmptyRepresentationError",
               "cyclic_superposition", "cyclic_state", "cyclic_erasure",
               "cyclic_set", "normalization_record", "cyclic_density",
               "density_route_gap", "circle_limit", "circle_limit_quadrature_gap",
               "dihedral_state", "dihedral_inversion_check", "dihedral_gram",
               "annihilation_irrep_shift"},
    "gaussian": {"EMBED_TAIL_TOL", "GaussianParams", "GaussianMoments",
                 "wavefunction", "moments", "rotate_params", "hermite_functions",
                 "gaussian_to_fock", "gaussian_to_fock_quadrature",
                 "fock_wavefunction", "cyclic_gaussian",
                 "cyclic_gaussian_wavefunction", "c2_closed_form"},
    "observables": {"WignerGrid", "wigner_points", "wigner", "wigner_direct",
                    "wigner_normalization_error", "wigner_reflection_residual",
                    "write_wigner_csv", "mandel", "BipartiteSpec",
                    "MemoryGuardError", "bipartite_norm_squared",
                    "bipartite_normalize", "EntanglementResult", "linear_entropy",
                    "linear_entropy_gram", "linear_entropy_oracle"},
    "verify": {"CheckRow", "DEFAULT_SEED", "SUITES", "run_suites", "format_report"},
}


def test_package_exports_the_public_names():
    expected = set().union(*PUBLIC.values()) | {"__version__"}
    assert len(polystate.__all__) == len(set(polystate.__all__)) == 77
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
