"""Which repeater class can run which mechanism, link protocol, and model.

The matrix below is the single source of truth the protocol layers consult
before generating, purifying, swapping, or admitting a request.  Feature
columns say whether a hardware mechanism is part of how that class operates;
protocol and model columns say whether the class may run under that link
protocol or connection model at all.

Feature keys:
    HEG  heralded entanglement generation across a fiber segment
    HEP  heralded entanglement purification (two pairs in, one better pair out)
    HES  entanglement swapping at a midpoint node
    ECC  error-corrected (encoded) operation
    GQM  dependence on a good quantum memory
    FGO  fast feed-forward gate operation on flying qubits
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import RepeaterClass


class Feature(Enum):
    HEG = "HEG"
    HEP = "HEP"
    HES = "HES"
    ECC = "ECC"
    GQM = "GQM"
    FGO = "FGO"


class LinkProtocol(Enum):
    SIMULTANEOUS = "sl"
    ONE_BY_ONE = "ol"


class ConnectionModel(Enum):
    CONNECTION_ORIENTED = "co"
    CONNECTIONLESS = "cl"
    HYBRID = "hybrid"


class Requirement(Enum):
    REQUIRED = "required"
    NOT_REQUIRED = "not_required"
    SELECTABLE = "selectable"


class Support(Enum):
    ALLOWED = "allowed"
    DISALLOWED = "disallowed"
    NOT_CONSIDERED = "not_considered"


class CapabilityViolation(Exception):
    """A request or operation asked a class for something it cannot do."""


@dataclass(frozen=True)
class AllPhotonicOptions:
    """Resolution of the selectable all-photonic features.

    Unselected features behave as NOT_REQUIRED; ``ecc`` also decides whether
    all-photonic operations degrade pairs by eps_res (selected) or eps_op.
    """

    hep: bool = False
    ecc: bool = False
    fgo: bool = False


_R = Requirement.REQUIRED
_N = Requirement.NOT_REQUIRED
_S = Requirement.SELECTABLE
_A = Support.ALLOWED
_D = Support.DISALLOWED
_NC = Support.NOT_CONSIDERED

# Rows and columns are keyed by the members' ``_value_`` strings, which
# hash in C, where a member's ``__hash__`` runs in Python; the tables are
# read for every route admission.
_FEATURES: dict[str, dict[str, Requirement]] = {
    "first": {"HEG": _R, "HEP": _R, "HES": _R, "ECC": _N, "GQM": _R, "FGO": _N},
    "second": {"HEG": _R, "HEP": _N, "HES": _R, "ECC": _R, "GQM": _R, "FGO": _N},
    "third": {"HEG": _N, "HEP": _N, "HES": _N, "ECC": _R, "GQM": _N, "FGO": _R},
    "all_photonic": {"HEG": _R, "HEP": _S, "HES": _R, "ECC": _S, "GQM": _N, "FGO": _S},
}

# link protocols: simultaneous (sl) and one-by-one (ol)
_LINKS: dict[str, dict[str, Support]] = {
    "first": {"sl": _A, "ol": _A},
    "second": {"sl": _A, "ol": _A},
    "third": {"sl": _D, "ol": _A},
    "all_photonic": {"sl": _A, "ol": _NC},
}

# connection models: connection-oriented (co) and connectionless (cl)
_MODELS: dict[str, dict[str, Support]] = {
    "first": {"co": _A, "cl": _A},
    "second": {"co": _A, "cl": _A},
    "third": {"co": _A, "cl": _A},
    "all_photonic": {"co": _A, "cl": _NC},
}


def supports_feature(
    cls: RepeaterClass,
    feature: Feature,
    options: AllPhotonicOptions | None = None,
) -> Requirement:
    """Requirement entry for (class, feature); SELECTABLE resolves via options."""
    entry = _FEATURES[cls._value_][feature._value_]
    if entry is Requirement.SELECTABLE and options is not None:
        selected = getattr(options, feature.value.lower())
        return Requirement.REQUIRED if selected else Requirement.NOT_REQUIRED
    return entry


def supports_link(cls: RepeaterClass, protocol: LinkProtocol) -> Support:
    return _LINKS[cls._value_][protocol._value_]


def supports_model(cls: RepeaterClass, model: ConnectionModel) -> Support:
    if model is ConnectionModel.HYBRID:
        raise ValueError("hybrid decomposes into per-area models; query those")
    return _MODELS[cls._value_][model._value_]


def can_purify(cls: RepeaterClass, options: AllPhotonicOptions | None = None) -> bool:
    return supports_feature(cls, Feature.HEP, options) is Requirement.REQUIRED


def can_swap(cls: RepeaterClass) -> bool:
    return _FEATURES[cls._value_]["HES"] is _R


def validate_request(
    cls: RepeaterClass,
    protocol: LinkProtocol,
    model: ConnectionModel,
    options: AllPhotonicOptions | None = None,
) -> None:
    """Raise CapabilityViolation unless (class, protocol, model) is runnable.

    The one cross rule: connectionless operation builds the channel hop by
    hop, so it requires the one-by-one link protocol.
    """
    link_support = supports_link(cls, protocol)
    if link_support is not Support.ALLOWED:
        raise CapabilityViolation(
            f"{cls.value} repeaters cannot run the "
            f"{'simultaneous' if protocol is LinkProtocol.SIMULTANEOUS else 'one-by-one'}"
            f" link protocol ({link_support.value})"
        )
    model_support = supports_model(cls, model)
    if model_support is not Support.ALLOWED:
        raise CapabilityViolation(
            f"{cls.value} repeaters cannot serve {model.value} requests "
            f"({model_support.value})"
        )
    if (
        model is ConnectionModel.CONNECTIONLESS
        and protocol is not LinkProtocol.ONE_BY_ONE
    ):
        raise CapabilityViolation(
            "connectionless delivery extends the channel hop by hop and "
            "requires the one-by-one link protocol"
        )


def matrix_rows() -> list[tuple[str, list[str]]]:
    """The full matrix as (class name, ten cell strings) rows for display.

    Cells use R / - / S for feature requirements and A / D / NC for link
    and model support.
    """
    req_sym = {_R: "R", _N: "-", _S: "S"}
    sup_sym = {_A: "A", _D: "D", _NC: "NC"}
    rows = []
    for cls in RepeaterClass:
        cells = [req_sym[supports_feature(cls, f)] for f in Feature]
        cells.append(sup_sym[supports_link(cls, LinkProtocol.SIMULTANEOUS)])
        cells.append(sup_sym[supports_link(cls, LinkProtocol.ONE_BY_ONE)])
        cells.append(sup_sym[supports_model(cls, ConnectionModel.CONNECTION_ORIENTED)])
        cells.append(sup_sym[supports_model(cls, ConnectionModel.CONNECTIONLESS)])
        rows.append((cls.value, cells))
    return rows


MATRIX_COLUMNS = ("HEG", "HEP", "HES", "ECC", "GQM", "FGO", "SL", "OL", "CO", "CL")
