import importlib
from fractions import Fraction
from itertools import product

import pytest

from monotri import InvalidInputError, enumeration, verify
from monotri.core import has_triple
from monotri.verify import IDENTITIES

# the package namespace rebinds ``verify`` to the function; take the module
verify_mod = importlib.import_module("monotri.verify")

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


@pytest.mark.parametrize("params", [[("n_max", 3)], (), "n_max=3"])
def test_params_must_be_a_dict(params):
    with pytest.raises(InvalidInputError, match="params must be a dict"):
        verify("table", params)


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


@pytest.mark.parametrize("max_len, hi", [(2, 1), (3, 3), (4, 4), (5, 6)])
def test_lemma2_row_law_matches_rejection_sampler(max_len, hi):
    # the rejection sampler: m uniform in 2..max_len, m uniform entries from
    # 1..hi, sorted, drawn again on a triple; its law is the law of the
    # sorted draw conditioned on no triple
    law = {}
    for m in range(2, max_len + 1):
        p = Fraction(1, (max_len - 1) * hi**m)
        for entries in product(range(1, hi + 1), repeat=m):
            row = tuple(sorted(entries, reverse=True))
            if not has_triple(row):
                law[row] = law.get(row, 0) + p
    accepted = sum(law.values())
    rows, weights = verify_mod._lemma2_rows(max_len, hi)
    assert len(set(rows)) == len(rows)
    total = sum(weights)
    assert {row: Fraction(w, total) for row, w in zip(rows, weights)} == {
        row: p / accepted for row, p in law.items()
    }
    for row in rows:
        assert list(row) == sorted(row, reverse=True) and not has_triple(row)


def test_lemma2_checks_both_sides_of_every_sample(monkeypatch):
    true_operator = verify_mod.sum_operator
    monkeypatch.setattr(verify_mod, "sum_operator",
                        lambda poly, k, variant: true_operator(poly, k, variant) + 1)
    report = verify("lemma2")
    assert report.status == "Failed"
    assert report.details and all(e != a for _, e, a in report.details)
    monkeypatch.undo()

    true_predecessors = enumeration.predecessors
    monkeypatch.setattr(enumeration, "predecessors",
                        lambda k, cls: list(true_predecessors(k, cls))[:-1])
    assert verify("lemma2").status == "Failed"


def test_lemma2_at_its_caps():
    report = verify("lemma2", {"samples": 10000, "max_len": 5, "max_entry": 6})
    assert report.status == "Verified"
    assert len(report.details) == 10000
    assert report.elapsed_ms < 2000
    report = verify("lemma2", {"samples": 0})
    assert report.status == "Skipped"
    assert report.reason == "no checks at these parameters"


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
