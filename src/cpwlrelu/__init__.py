"""cpwlrelu: exact compilation of piecewise-linear functions to ReLU networks.

The package turns continuous piecewise-linear (CPWL) functions — in
particular nodal finite element functions on simplicial meshes — into ReLU
networks that reproduce them exactly, with checked depth/size bounds, a
low-bit weight structure checker, and a 1D variational solver whose
optimized states convert to networks of the same form.
"""

from .errors import CpwlReluError

__version__ = "0.1.0"

#: Each file format's schema version; the serializers write and check these.
SCHEMA_VERSIONS = {
    "mesh": "1",
    "cpwl": "1",
    "lattice": "1",
    "network": "3",
}

__all__ = ["CpwlReluError", "SCHEMA_VERSIONS", "__version__"]
