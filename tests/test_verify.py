import pytest

from monotri import InvalidInputError, verify
from monotri.verify import IDENTITIES

ALL_IDS = sorted(IDENTITIES)


@pytest.mark.parametrize("identity_id", ALL_IDS)
def test_identity_verifies_at_defaults(identity_id):
    report = verify(identity_id)
    assert report.status == "Verified", report.details
    assert report.details, "an executed identity must carry detail rows"
    assert all(e == a for _, e, a in report.details)
    assert report.elapsed_ms >= 0


def test_unknown_identity():
    with pytest.raises(InvalidInputError):
        verify("fermat")


def test_unknown_parameter():
    with pytest.raises(InvalidInputError):
        verify("table", {"q_max": 3})


@pytest.mark.parametrize("value", [2.7, 3.0, "3", "x", None, True])
def test_non_integer_parameter_rejected(value):
    # a float is not truncated and a string is not parsed: only int is a size
    with pytest.raises(InvalidInputError, match="n_max"):
        verify("theorem2", {"n_max": value})


def test_out_of_range_parameters_skip():
    report = verify("table", {"n_max": 19})
    assert report.status == "Skipped"
    assert report.reason and "n_max" in report.reason
    assert report.details == ()


@pytest.mark.parametrize("identity_id", ALL_IDS)
def test_run_without_checks_is_skipped(identity_id):
    # 0, 1 and 2 lie inside every parameter's range; at 0 most identities
    # have nothing to check, which verifies nothing, and no run raises
    for key in IDENTITIES[identity_id].defaults:
        for value in (0, 1, 2):
            report = verify(identity_id, {key: value})
            if report.details:
                assert report.status == "Verified", (key, value)
            else:
                assert report.status == "Skipped", (key, value)
                assert report.reason == "no checks at these parameters"


def test_lemma2_is_seed_deterministic():
    a = verify("lemma2", {"seed": 42})
    b = verify("lemma2", {"seed": 42})
    assert a.details == b.details
    c = verify("lemma2", {"seed": 43})
    assert a.details != c.details
    assert a.status == c.status == "Verified"


def test_table_reports_reference_values():
    report = verify("table", {"n_max": 9})
    expected = {-1, 3, -26, 646, 0}
    assert {e for _, e, _ in report.details} == expected


def test_conjecture_small():
    report = verify("conjecture", {"m_max": 3})
    assert report.status == "Verified"
    values = [a for _, _, a in report.details]
    assert values == [-1, 3, -26]


def test_verified_iff_details_agree():
    for identity_id in ("reciprocity", "wni", "behrend"):
        report = verify(identity_id)
        assert (report.status == "Verified") == all(
            e == a for _, e, a in report.details
        )
