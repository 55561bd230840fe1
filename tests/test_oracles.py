import importlib
import pkgutil

import oracles
import orbitmoments

# Brute-force and enumeration references that only the tests call.
TEST_ONLY = (
    "QuadResidue",
    "quad_mul",
    "quad_norm",
    "quad_unit_elements",
    "MatrixModN",
    "det_mod_n",
    "_det",
    "kernel_size_by_minors",
    "_leibniz",
    "DEFAULT_ENUM_BUDGET",
    "enumerate_glm",
    "semidirect_table",
    "table_histogram",
    "tuple_orbit_minima",
    "affine_group_masses",
    "matrix_group_masses",
    "cartan_normalizer_cosets",
    "ec_add",
    "ec_mul",
    "ec_points",
    "ec_group_data",
    "ec_point_count",
    "count_roots_brute",
    "ec_torsion_count_enum",
)


def test_references_live_in_oracles_and_not_in_the_library():
    modules = [orbitmoments] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(orbitmoments.__path__, "orbitmoments.")
    ]
    assert len(modules) > 5
    for module in modules:
        defined = sorted(set(TEST_ONLY) & set(vars(module)))
        assert not defined, (module.__name__, defined)
    for name in TEST_ONLY:
        assert name in vars(oracles), name
