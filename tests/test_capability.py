import pytest

from qrnet import (
    AllPhotonicOptions,
    CapabilityViolation,
    ConnectionModel,
    LinkProtocol,
    RepeaterClass,
    matrix_rows,
    supports_link,
    supports_model,
    validate_request,
)
from qrnet.capability import MATRIX_COLUMNS, Support, can_purify, can_swap

# the authoritative 4 x 10 capability table, row order fixed
EXPECTED = {
    "first": ["R", "R", "R", "-", "R", "-", "A", "A", "A", "A"],
    "second": ["R", "-", "R", "R", "R", "-", "A", "A", "A", "A"],
    "third": ["-", "-", "-", "R", "-", "R", "D", "A", "A", "A"],
    "all_photonic": ["R", "S", "R", "S", "-", "S", "A", "NC", "A", "NC"],
}


def test_matrix_exact():
    rows = matrix_rows()
    assert [name for name, _ in rows] == list(EXPECTED)
    for name, cells in rows:
        assert cells == EXPECTED[name], name
    assert MATRIX_COLUMNS == ("HEG", "HEP", "HES", "ECC", "GQM", "FGO", "SL", "OL", "CO", "CL")


def test_matrix_notable_cells():
    rows = dict(matrix_rows())
    assert rows["third"][MATRIX_COLUMNS.index("SL")] == "D"
    assert rows["all_photonic"][MATRIX_COLUMNS.index("OL")] == "NC"
    assert rows["all_photonic"][MATRIX_COLUMNS.index("CL")] == "NC"
    assert rows["all_photonic"].count("S") == 3


def test_link_support():
    ok = Support.ALLOWED
    assert supports_link(RepeaterClass.FIRST, LinkProtocol.SIMULTANEOUS) is ok
    assert supports_link(RepeaterClass.FIRST, LinkProtocol.ONE_BY_ONE) is ok
    assert supports_link(RepeaterClass.THIRD, LinkProtocol.SIMULTANEOUS) is Support.DISALLOWED
    assert supports_link(RepeaterClass.THIRD, LinkProtocol.ONE_BY_ONE) is ok
    assert supports_link(RepeaterClass.ALL_PHOTONIC, LinkProtocol.SIMULTANEOUS) is ok
    assert (supports_link(RepeaterClass.ALL_PHOTONIC, LinkProtocol.ONE_BY_ONE)
            is Support.NOT_CONSIDERED)


def test_model_support():
    for cls in RepeaterClass:
        assert supports_model(cls, ConnectionModel.CONNECTION_ORIENTED) is Support.ALLOWED
    assert (supports_model(RepeaterClass.ALL_PHOTONIC, ConnectionModel.CONNECTIONLESS)
            is Support.NOT_CONSIDERED)
    assert supports_model(RepeaterClass.SECOND, ConnectionModel.CONNECTIONLESS) is Support.ALLOWED


def test_hybrid_is_not_a_single_model_query():
    with pytest.raises(ValueError):
        supports_model(RepeaterClass.FIRST, ConnectionModel.HYBRID)


def test_validate_request_happy_paths():
    validate_request(
        RepeaterClass.FIRST, LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTION_ORIENTED
    )
    validate_request(
        RepeaterClass.THIRD, LinkProtocol.ONE_BY_ONE, ConnectionModel.CONNECTIONLESS
    )
    validate_request(
        RepeaterClass.ALL_PHOTONIC,
        LinkProtocol.SIMULTANEOUS,
        ConnectionModel.CONNECTION_ORIENTED,
    )


def test_validate_request_rejections():
    # the message names the protocol that was asked for
    with pytest.raises(
        CapabilityViolation,
        match=r"^third repeaters cannot run the simultaneous link protocol \(disallowed\)$",
    ):
        validate_request(
            RepeaterClass.THIRD, LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTION_ORIENTED
        )
    with pytest.raises(
        CapabilityViolation,
        match=r"^all_photonic repeaters cannot run the one-by-one link protocol"
        r" \(not_considered\)$",
    ):
        validate_request(
            RepeaterClass.ALL_PHOTONIC, LinkProtocol.ONE_BY_ONE, ConnectionModel.CONNECTION_ORIENTED
        )
    with pytest.raises(CapabilityViolation):
        validate_request(
            RepeaterClass.ALL_PHOTONIC, LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTIONLESS
        )
    # connectionless extends hop by hop, so a simultaneous link cannot drive it
    with pytest.raises(CapabilityViolation):
        validate_request(
            RepeaterClass.FIRST, LinkProtocol.SIMULTANEOUS, ConnectionModel.CONNECTIONLESS
        )


def test_purify_and_swap_capability():
    assert can_purify(RepeaterClass.FIRST, None)
    assert not can_purify(RepeaterClass.SECOND, None)
    assert not can_purify(RepeaterClass.THIRD, None)
    assert not can_purify(RepeaterClass.ALL_PHOTONIC, None)
    assert can_purify(RepeaterClass.ALL_PHOTONIC, AllPhotonicOptions(hep=True))
    assert can_swap(RepeaterClass.FIRST)
    assert can_swap(RepeaterClass.SECOND)
    assert not can_swap(RepeaterClass.THIRD)
    assert can_swap(RepeaterClass.ALL_PHOTONIC)
