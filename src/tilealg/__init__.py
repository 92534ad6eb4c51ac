"""Gentle algebras as tiling algebras: strings, AR theory, surface model.

The public names are loaded on first access (PEP 562), so importing the
package loads no layer and each name pulls in only its home module.
"""

import importlib

_HOME = {
    "algebra": ("GentlePresentation", "GentlenessError", "InputError", "Quiver",
                "assign_signs", "check_gentle", "is_zero_path", "load_quiver",
                "parse_quiver"),
    "strings": ("Band", "Letter", "StringRejection", "StringWord", "canonicalize",
                "compose", "detect_band", "enumerate_strings", "parse_band",
                "parse_string", "validate_string"),
    "artheory": ("ARQuiver", "ar_quiver_dot", "ar_sequence", "build_ar_quiver",
                 "hook_left", "hook_right", "hooks", "is_injective_string",
                 "tau_inverse"),
    "homs": ("AdmissiblePair", "FactorDecomposition", "SubDecomposition",
             "factor_strings", "hom_dim", "hom_dim_detailed", "substrings"),
    "oracle": ("BandModuleSpec", "MatrixRep", "hom_dim_oracle",
               "realize_band_module", "realize_string_module", "verify_ar_middle"),
    "surface": ("Tiling", "TilingAlgebra", "TilingRejection", "collapse_presentation",
                "complete_to_triangulation", "presentations_isomorphic",
                "tiling_algebra", "validate_tiling"),
}
# public name -> home submodule; the six submodules are public names too
_MODULE_OF = {name: mod for mod, names in _HOME.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_HOME])


def __getattr__(name):
    if name in _HOME:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
