"""Higher-rank graphs, their finitely aligned parts, filter path spaces,
shift-map actions and path groupoids, computed by bounded enumeration.
"""

from .degree import Degree
from .kgraph import (
    ComposabilityError,
    FactorizationError,
    KGraph,
    KGraphError,
    Morphism,
    Name,
    PresentationError,
    load_presentation,
)
from .alignment import FaVerdict, MceKind, MceResult, Verdict, fa_at, fa_set, is_fa, mce
from .pspace import (
    Cylinder,
    DescribedSequence,
    ExplicitSubset,
    Filter,
    bps_enumerate,
    compactness_probe,
    cylinder_membership,
    enumerate_filters,
    is_filter,
    pointwise_limit,
    principal,
    ps_membership,
    ultrafilters,
)
from .action import act, directed_witness, shift_off, shift_on
from .groupoid import (
    BasicGroupoidSet,
    GroupoidElement,
    Span,
    basic_set_membership,
    compose_elements,
    enumerate_pg,
    invert,
    make_element,
    unit_element,
)
from .spielberg import (
    EHatSet,
    UnsupportedDomainError,
    e_hat_membership,
    iso_check,
    phi,
    relative_filter_space,
    sp_compose,
    triple_equiv,
)
from . import catalog

__all__ = [
    "Degree",
    "KGraph", "Morphism", "Name", "load_presentation",
    "KGraphError", "PresentationError", "ComposabilityError", "FactorizationError",
    "Verdict", "MceKind", "MceResult", "FaVerdict", "mce", "fa_at", "fa_set", "is_fa",
    "Filter", "ExplicitSubset", "Cylinder", "DescribedSequence",
    "is_filter", "principal", "enumerate_filters", "ultrafilters",
    "cylinder_membership", "pointwise_limit", "ps_membership", "bps_enumerate",
    "compactness_probe",
    "shift_off", "shift_on", "act", "directed_witness",
    "GroupoidElement", "Span", "BasicGroupoidSet", "make_element", "unit_element",
    "compose_elements", "invert", "basic_set_membership", "enumerate_pg",
    "EHatSet", "e_hat_membership", "triple_equiv", "sp_compose",
    "phi", "iso_check", "relative_filter_space", "UnsupportedDomainError",
    "catalog",
]
