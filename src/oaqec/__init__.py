"""Mixed-level orthogonal arrays compiled into quantum codes, with dual
combinatorial and exact quantum-side verification.  Every public name not
exported here is imported from its module, e.g. `oaqec.arrays`."""

# re-exported: the benchmark harness wraps and checks this binding
from .arrays import is_orthogonal_array  # noqa: F401
from .formats import provenance_block
from .synthesis import (
    corollary_5lie,
    theorem_52s,
    theorem_5s2,
    theorem_huan,
    theorem_s1,
    theorem_tn,
)
from .verify import cross_validate, verify_code

__version__ = "0.1.0"
