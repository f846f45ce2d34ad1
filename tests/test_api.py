"""The package surface: every public name, and where it comes from."""

import importlib

import numfac

# home module -> the public names the package re-exports from it
PUBLIC = {
    "delta": {"DeltaPeriodicityReport", "delta_of_lengths", "delta_periodicity",
              "delta_scan_bound", "delta_set", "length_set", "max_length"},
    "errors": {"BelowThreshold", "EmptyGenerators", "EmptySubset", "HorizonTooSmall",
               "Int64Overflow", "MonoidInputError", "NegativeTarget", "NonCoprime",
               "NonPositiveBase", "NotAGenerator", "NotInMonoid", "TargetBelowBase",
               "ZeroGenerator"},
    "factorization": {"brute_force_factorizations", "factorizations", "factorizations_up_to",
                      "length_sets_up_to"},
    "monoid": {"AperySet", "NumericalMonoid"},
    "omega": {"QuasilinearModel", "bullets_brute_force", "bullets_via_apery",
              "dynamic_bullets", "omega", "omega_extrapolate", "omega_up_to",
              "quasilinear_model"},
    "verify": {"PropertyResult", "run_suite"},
}


def test_public_names():
    names = set().union(*PUBLIC.values()) | {"__version__"}
    assert len(names) == 37
    assert set(numfac.__all__) == names
    assert len(numfac.__all__) == len(names)
    # numfac.omega is the function, not the module of the same name
    for module, exported in PUBLIC.items():
        home = importlib.import_module(f"numfac.{module}")
        for name in exported:
            assert getattr(numfac, name) is getattr(home, name), name
    namespace = {}
    exec("from numfac import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == names
