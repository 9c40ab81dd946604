"""A small C type system: integer, floating, pointer and array types.

The simulator's cost model needs element sizes and signedness (for widening
conversions and gather widths), and the vectorizer needs to know how many
lanes of a given element type fit in a vector register; everything else about
C's type system is intentionally out of scope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class TypeKind(enum.Enum):
    VOID = "void"
    INT = "int"
    FLOAT = "float"
    POINTER = "pointer"
    ARRAY = "array"


@dataclass(frozen=True)
class CType:
    """Base class for all types.  Concrete subclasses are frozen dataclasses."""

    def __post_init__(self) -> None:
        pass

    @property
    def kind(self) -> TypeKind:
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        """Size of one object of this type, in bytes."""
        raise NotImplementedError

    @property
    def is_integer(self) -> bool:
        return self.kind == TypeKind.INT

    @property
    def is_float(self) -> bool:
        return self.kind == TypeKind.FLOAT

    @property
    def is_pointer(self) -> bool:
        return self.kind == TypeKind.POINTER

    @property
    def is_void(self) -> bool:
        return self.kind == TypeKind.VOID


@dataclass(frozen=True)
class VoidType(CType):
    @property
    def kind(self) -> TypeKind:
        return TypeKind.VOID

    @property
    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """Integer type of a given width and signedness (char/short/int/long)."""

    bits: int = 32
    signed: bool = True

    @property
    def kind(self) -> TypeKind:
        return TypeKind.INT

    @property
    def size_bytes(self) -> int:
        return self.bits // 8

    def __str__(self) -> str:
        names = {8: "char", 16: "short", 32: "int", 64: "long"}
        base = names.get(self.bits, f"int{self.bits}")
        return base if self.signed else f"unsigned {base}"


@dataclass(frozen=True)
class FloatType(CType):
    """Floating-point type (float = 32 bits, double = 64 bits)."""

    bits: int = 32

    @property
    def kind(self) -> TypeKind:
        return TypeKind.FLOAT

    @property
    def size_bytes(self) -> int:
        return self.bits // 8

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType = field(default_factory=lambda: IntType())

    @property
    def kind(self) -> TypeKind:
        return TypeKind.POINTER

    @property
    def size_bytes(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    """Possibly multi-dimensional array.  ``dims`` entries may be None for
    arrays whose extent is unknown at parse time (e.g. function parameters
    declared as ``int a[]``)."""

    element: CType = field(default_factory=lambda: IntType())
    dims: Tuple[Optional[int], ...] = (None,)

    @property
    def kind(self) -> TypeKind:
        return TypeKind.ARRAY

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def size_bytes(self) -> int:
        total = self.element.size_bytes
        for dim in self.dims:
            total *= dim if dim is not None else 1
        return total

    @property
    def element_count(self) -> int:
        count = 1
        for dim in self.dims:
            count *= dim if dim is not None else 1
        return count

    def __str__(self) -> str:
        dims = "".join(f"[{d if d is not None else ''}]" for d in self.dims)
        return f"{self.element}{dims}"


# Commonly used singleton-ish types.
VOID = VoidType()
CHAR = IntType(8, True)
UCHAR = IntType(8, False)
SHORT = IntType(16, True)
USHORT = IntType(16, False)
INT = IntType(32, True)
UINT = IntType(32, False)
LONG = IntType(64, True)
ULONG = IntType(64, False)
FLOAT = FloatType(32)
DOUBLE = FloatType(64)


_SPECIFIER_TABLE = {
    ("void",): VOID,
    ("char",): CHAR,
    ("signed", "char"): CHAR,
    ("unsigned", "char"): UCHAR,
    ("short",): SHORT,
    ("short", "int"): SHORT,
    ("unsigned", "short"): USHORT,
    ("unsigned", "short", "int"): USHORT,
    ("int",): INT,
    ("signed",): INT,
    ("signed", "int"): INT,
    ("unsigned",): UINT,
    ("unsigned", "int"): UINT,
    ("long",): LONG,
    ("long", "int"): LONG,
    ("long", "long"): LONG,
    ("long", "long", "int"): LONG,
    ("unsigned", "long"): ULONG,
    ("unsigned", "long", "int"): ULONG,
    ("unsigned", "long", "long"): ULONG,
    ("float",): FLOAT,
    ("double",): DOUBLE,
    ("long", "double"): DOUBLE,
}


def type_from_specifiers(specifiers: List[str]) -> Optional[CType]:
    """Map a list of C type specifier keywords to a :class:`CType`.

    Qualifiers (``const``, ``volatile``, ``static``, ``extern``, ``restrict``)
    are ignored; order of the remaining specifiers does not matter.  Returns
    ``None`` when the specifiers do not name a supported type.
    """
    qualifiers = {"const", "volatile", "static", "extern", "restrict", "inline",
                  "__restrict__"}
    relevant = [s for s in specifiers if s not in qualifiers]
    if not relevant:
        return None
    # Normalise: sort with "unsigned"/"signed" first, then size keywords.
    order = {"signed": 0, "unsigned": 0, "short": 1, "long": 1, "char": 2,
             "int": 2, "float": 2, "double": 2, "void": 2}
    relevant_sorted = tuple(sorted(relevant, key=lambda s: (order.get(s, 3), s)))
    for key, ctype in _SPECIFIER_TABLE.items():
        if tuple(sorted(key, key=lambda s: (order.get(s, 3), s))) == relevant_sorted:
            return ctype
    # ``long long`` style duplicates collapse to the same entry.
    deduped = tuple(sorted(set(relevant), key=lambda s: (order.get(s, 3), s)))
    for key, ctype in _SPECIFIER_TABLE.items():
        if tuple(sorted(set(key), key=lambda s: (order.get(s, 3), s))) == deduped:
            return ctype
    return None


def common_type(left: CType, right: CType) -> CType:
    """Usual arithmetic conversions for a binary operator's operand types."""
    if left.is_float or right.is_float:
        bits = max(
            left.bits if isinstance(left, FloatType) else 0,
            right.bits if isinstance(right, FloatType) else 0,
            32,
        )
        return FloatType(bits)
    if isinstance(left, IntType) and isinstance(right, IntType):
        bits = max(left.bits, right.bits, 32)
        signed = left.signed and right.signed
        return IntType(bits, signed)
    if left.is_pointer:
        return left
    if right.is_pointer:
        return right
    return INT


def is_widening_conversion(src: CType, dst: CType) -> bool:
    """True when converting ``src`` to ``dst`` widens the element (e.g.
    short -> int, float -> double, int -> float)."""
    if src.is_void or dst.is_void:
        return False
    if src.is_integer and dst.is_float:
        return True
    if src.is_integer and dst.is_integer:
        return dst.size_bytes > src.size_bytes
    if src.is_float and dst.is_float:
        return dst.size_bytes > src.size_bytes
    return False
