"""Binary decision diagrams: the canonical policy representation substrate."""

from repro.bdd.manager import FALSE, TRUE, BddError, BddManager
from repro.bdd.bitvector import BitVector
from repro.bdd.policy import PolicyBddEncoder, UNCHANGED

__all__ = [
    "FALSE",
    "TRUE",
    "BddError",
    "BddManager",
    "BitVector",
    "PolicyBddEncoder",
    "UNCHANGED",
]
