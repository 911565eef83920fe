"""ainfcat: exact verification for categories with higher products.

Everything is integer arithmetic and every check is exact; the package
verifies structure relations, module and bimodule equations, cyclic
(Hochschild-type) homology of truncated word complexes, split-generation
certificates built on the universal twisted complex, and the open/closed
consistency square, plus the boundary-strata combinatorics that index
the terms of each equation.
"""

from .bimodules import (
    LEFT,
    RIGHT,
    BimoduleHom,
    DiagonalBimodule,
    PairGen,
    TensorBimodule,
    TensorWord,
    YonedaModule,
    tensor_over_category,
    verify_bimodule,
    verify_bimodule_hom,
)
from .cardy import (
    OpenClosedData,
    homotopy_map,
    mu_cc_map,
    solve_homotopy,
    telescoping_data,
    verify_cardy_on_homology,
    verify_homotopy_equation,
)
from .complexes import BasedComplex, GradedMap, verify_chain_map
from .core import (
    AinfCategory,
    Gen,
    verify_ainf,
)
from .generation import (
    GenerationCertificate,
    build_universal_complex,
    generation_test,
    replay_certificate,
    verify_cohomological_unit,
)
from .hochschild import cc_of_delta, hochschild_homology, truncated_cc
from .intlinalg import FinAbGroup, IntMatrix, SmithDecomposition, smith_normal_form, solve_integer
from .strata import SpaceId, StratumLabel, dimension, enumerate_codim1, sign_formula, strata_term_bijection

__version__ = "0.1.0"
