"""Exact certificates for half-space systems over real central arrangements.

Everything is decided in rational arithmetic: consistency of chosen
half-spaces at every intersection subspace, the resulting filtration and its
gaps (which certify non-vanishing higher homotopy of the complexified
complement), sinks reached by chamber flows, dual certificates of
inconsistency, and rank-one monodromy certificates with rational rotation
numbers.
"""

from .arrangement import (AffineArrangement, Arrangement, Hyperplane, SignVector,
                          cone, essentialize, sign_vector_of_point, validate)
from .chambers import (Chamber, FlowPath, all_sinks, enumerate_chambers,
                       flow_to_sink, is_sink, walls)
from .consistency import (SigmaFiltration, is_consistent_at, is_globally_consistent,
                          is_locally_consistent, sigma, sigma_filtration)
from .errors import HyparrError
from .feasibility import (FeasibilityResult, StrictSystem, interior_witness,
                          strict_feasible)
from .lattice import (Flat, Lattice, build_lattice, chamber_count_oracle,
                      characteristic_polynomial)
from .linalg import RatVector, coordinates, kernel_basis, rank
from .obstruction import (ComplexSamplePoint, MonodromyCertificate, ObstructionReport,
                          certify_nontrivial_sphere, detect_obstruction,
                          sample_sphere_points, verify_sample_points)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "AffineArrangement", "Arrangement", "Hyperplane", "SignVector",
    "cone", "essentialize", "sign_vector_of_point", "validate",
    "Chamber", "FlowPath", "all_sinks", "enumerate_chambers",
    "flow_to_sink", "is_sink", "walls",
    "SigmaFiltration", "is_consistent_at", "is_globally_consistent",
    "is_locally_consistent", "sigma", "sigma_filtration",
    "HyparrError",
    "FeasibilityResult", "StrictSystem", "interior_witness", "strict_feasible",
    "Flat", "Lattice", "build_lattice", "chamber_count_oracle",
    "characteristic_polynomial",
    "RatVector", "coordinates", "kernel_basis", "rank",
    "ComplexSamplePoint", "MonodromyCertificate", "ObstructionReport",
    "certify_nontrivial_sphere", "detect_obstruction",
    "sample_sphere_points", "verify_sample_points",
    "catalog",
    "__version__",
]
