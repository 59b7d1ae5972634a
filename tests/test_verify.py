import json

import numpy as np
import pytest

from support import reading_diagnostic

from spinphase.errors import InconsistentClassification
from spinphase.model import ModelParams
from spinphase.verify import (
    EQUATION_IDS,
    TOLERANCES,
    VerifyItem,
    VerifyReport,
    _check_consistency,
    _value_to_jsonable,
    random_generic_params,
    report_table,
    report_to_dict,
    verify_grid,
    verify_point,
)

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)

# Golden classification ledger at the flagship point, produced by the oracle
# on the first run and frozen here.  The oracle is the provenance: nothing in
# this table was asserted in advance except the two relations required to be
# exact (delta2_Eq18 and propagator_Eq14_ode).
GOLDEN_CLASSIFICATIONS = {
    "U11_Eq15": "conjugate",
    "U12_Eq16": "mismatch",
    "delta1_Eq17": "mismatch",
    "delta2_Eq18": "match",
    "Uparallel_Eq19": "mismatch",
    "offdiag_Eq23": "mismatch",
    "diag_Eq24": "mismatch",
    "propagator_Eq14_literal": "conjugate",
    "propagator_Eq14_ode": "match",
}


@pytest.fixture(scope="module")
def flagship_report():
    return verify_point(FLAGSHIP, steps=2048)


class TestVerifyPoint:
    def test_golden_classifications(self, flagship_report):
        got = {it.equation_id: it.classification for it in flagship_report.items}
        assert got == GOLDEN_CLASSIFICATIONS

    def test_summary_counts(self, flagship_report):
        assert flagship_report.summary == {
            "match": 2,
            "conjugate": 2,
            "sign_flip": 0,
            "repaired_match": 0,
            "mismatch": 5,
        }

    def test_items_ordered_by_equation_id(self, flagship_report):
        assert tuple(it.equation_id for it in flagship_report.items) == EQUATION_IDS

    def test_residual_match_biconditional(self, flagship_report):
        for it in flagship_report.items:
            assert (it.classification == "match") == (
                it.residual <= TOLERANCES[it.equation_id]
            )
            assert it.residual >= 0

    def test_zero_coupling_point_matches_offdiagonal_element(self):
        report = verify_point(ModelParams(V=1, muB=0, omega=0.4, beta=1), steps=1024)
        by_id = {it.equation_id: it for it in report.items}
        assert by_id["U12_Eq16"].classification == "match"

    def test_static_field_point(self):
        # without field rotation the two propagator orderings coincide, the
        # stated delta1 is exact, and the stated diagonal phase argument is
        # the definitional one up to the dropped overall minus sign
        report = verify_point(ModelParams(V=1, muB=0.5, omega=0.0, beta=1), steps=1024)
        by_id = {it.equation_id: it.classification for it in report.items}
        assert by_id["propagator_Eq14_literal"] == "match"
        assert by_id["propagator_Eq14_ode"] == "match"
        assert by_id["delta1_Eq17"] == "match"
        assert by_id["offdiag_Eq23"] == "match"
        assert by_id["diag_Eq24"] == "sign_flip"

    def test_rejects_low_step_count(self):
        with pytest.raises(ValueError):
            verify_point(FLAGSHIP, steps=512)


class TestVerifyGrid:
    def test_singleton(self):
        reports = verify_grid([FLAGSHIP], steps=1024)
        assert len(reports) == 1
        assert reports[0].error is None

    def test_degenerate_point_is_marked_and_others_proceed(self):
        degenerate = ModelParams(V=1.0, muB=0.0, omega=1.0, beta=1.0)
        reports = verify_grid([FLAGSHIP, degenerate], steps=1024)
        assert len(reports) == 2
        assert reports[0].error is None
        assert reports[1].error is not None
        assert "DegenerateFrame" in reports[1].error
        assert reports[1].items == ()

    def test_refused_point_is_marked_and_others_proceed(self):
        # Near resonance tau = pi / muB is so long that 1024 steps are past RK4's bound.
        refused = ModelParams(V=1.0, muB=1e-6, omega=1.0, beta=1.0)
        reports = verify_grid([FLAGSHIP, refused], steps=1024)
        assert report_to_dict(reports[0]) == report_to_dict(verify_grid([FLAGSHIP], steps=1024)[0])
        assert reports[1].error.startswith("UnitarityLoss: dt*|H| = ")
        assert reports[1].items == ()

    def test_seeded_grid_uniform_classifications(self):
        reports = verify_grid(random_generic_params(25, seed=7), steps=1024)
        reference = {it.equation_id: it.classification for it in reports[0].items}
        for report in reports[1:]:
            got = {it.equation_id: it.classification for it in report.items}
            assert got == reference
        assert reference == GOLDEN_CLASSIFICATIONS

    def test_classifications_stable_under_step_doubling(self):
        grid = random_generic_params(5, seed=11)
        reports_a = verify_grid(grid, steps=1024)
        reports_b = verify_grid(grid, steps=2048)
        for ra, rb in zip(reports_a, reports_b):
            for ia, ib in zip(ra.items, rb.items):
                assert ia.classification == ib.classification
                if ia.residual > TOLERANCES[ia.equation_id]:
                    # discrepancy-dominated residuals move by at most 10%
                    assert abs(ia.residual - ib.residual) <= 0.10 * ia.residual

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_grid([], steps=1024)

    def test_inconsistency_detection(self):
        def fake_report(classification):
            item = VerifyItem(
                equation_id="U11_Eq15",
                reference_value=1.0,
                oracle_value=1.0,
                classification=classification,
                residual=0.0,
            )
            return VerifyReport(params=FLAGSHIP, items=(item,), summary={})

        with pytest.raises(InconsistentClassification):
            _check_consistency([fake_report("match"), fake_report("conjugate")])


class TestReadingDiagnostic:
    def test_flagship_readings(self):
        assert reading_diagnostic(FLAGSHIP) == {
            "U11_Eq15": ["literal@t0", "literal@tau"],
            "U12_Eq16_repaired": ["literal@tau"],
        }


class TestSerialization:
    def test_report_dict_roundtrips_through_json(self, flagship_report):
        doc = report_to_dict(flagship_report)
        parsed = json.loads(json.dumps(doc))
        assert set(parsed.keys()) == {"params", "items", "summary"}
        assert [it["equation_id"] for it in parsed["items"]] == list(EQUATION_IDS)
        assert parsed["params"]["V"] == 1.0
        for it in parsed["items"]:
            assert set(it.keys()) == {
                "equation_id",
                "reference_value",
                "oracle_value",
                "classification",
                "residual",
            }

    def test_complex_is_a_pair_even_when_real(self):
        assert _value_to_jsonable(0.5 + 0j) == [0.5, 0.0]
        assert _value_to_jsonable(-0.25) == -0.25
        assert _value_to_jsonable(np.eye(2, dtype=complex))[0] == [[1.0, 0.0], [0.0, 0.0]]

    def test_each_field_has_one_form_across_a_grid(self):
        # At seed 7 and 1024 steps one point's off-diagonal oracle value is exactly real.
        def form(value):
            return [form(v) for v in value] if isinstance(value, list) else type(value).__name__

        forms = {}
        for report in verify_grid(random_generic_params(25, 7), steps=1024):
            for it in report_to_dict(report)["items"]:
                for field in ("reference_value", "oracle_value"):
                    forms.setdefault((it["equation_id"], field), set()).add(str(form(it[field])))
        assert {key: kinds for key, kinds in forms.items() if len(kinds) > 1} == {}

    def test_error_report_dict(self):
        report = VerifyReport(params=FLAGSHIP, items=(), summary={}, error="boom")
        doc = report_to_dict(report)
        assert doc["error"] == "boom"

    def test_table_has_one_row_per_equation(self, flagship_report):
        table = report_table(flagship_report)
        lines = table.splitlines()
        assert len(lines) == 1 + len(EQUATION_IDS)
        for eq_id, line in zip(EQUATION_IDS, lines[1:]):
            assert line.startswith(eq_id)


class TestRandomGenericParams:
    def test_deterministic_for_seed(self):
        a = random_generic_params(5, seed=3)
        b = random_generic_params(5, seed=3)
        assert a == b

    def test_ranges(self):
        for p in random_generic_params(50, seed=1):
            assert 0.3 <= p.V <= 2.0
            assert 0.15 <= p.muB <= 1.0
            assert 0.1 <= p.omega <= 2.0
            assert 0.2 <= p.beta <= 3.0
