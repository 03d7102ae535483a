"""Computational algebra for vectorial Boolean functions over GF(2^n)."""

from .errors import MemoryBudgetError, PreconditionError
from .gf2n import (
    Field,
    FieldElement,
    SubfieldMap,
    cube_class,
    field_from_header,
    field_new,
    primitive_elements,
    subfield_embedding,
)

__version__ = "0.1.0"
