"""Unit tests for the GDPR auditing use-case (Sec. 7.3.5)."""

import pytest

from paperbench.auditing import audit_leak
from repro.engine.expressions import col
from repro.engine.session import Session
from repro.pebble.query import query_provenance


@pytest.fixture
def leak_report():
    """Audit of a leaked query result over customer records."""
    session = Session()
    customers = [
        {"name": "Lisa", "city": "Stuttgart", "card": "1111", "age": 34},
        {"name": "John", "city": "Berlin", "card": "2222", "age": 51},
        {"name": "Ada", "city": "London", "card": "3333", "age": 36},
    ]
    leaked_query = (
        session.create_dataset(customers, "customers")
        .filter(col("age") < 40)
        .select(col("name"), col("city"))
    )
    execution = leaked_query.execute(capture=True)
    # The whole leaked result is audited: the pattern names every leaked
    # attribute so the backtrace covers the complete exposed subtree.
    provenance = query_provenance(execution, "root{/name, /city}")
    return audit_leak(provenance)


class TestAuditReport:
    def test_affected_customers(self, leak_report):
        assert leak_report.affected_ids("customers") == [1, 3]

    def test_leaked_attributes_precise(self, leak_report):
        assert leak_report.leaked_attributes("customers") == {"name", "city"}

    def test_card_numbers_not_leaked(self, leak_report):
        """Lineage-based auditing would flag ``card`` too (Sec. 7.3.5)."""
        assert "card" not in leak_report.leaked_attributes("customers")

    def test_age_at_risk_of_reconstruction(self, leak_report):
        assert "age" in leak_report.at_risk_attributes("customers")

    def test_overreport_factor(self, leak_report):
        factor = leak_report.lineage_overreport("customers", ["name", "city", "card", "age"])
        assert factor == pytest.approx(2.0)

    def test_render(self, leak_report):
        rendered = leak_report.render()
        assert "leak audit for customers" in rendered
        assert "at risk (accessed): age" in rendered

    def test_empty_report(self):
        session = Session()
        ds = session.create_dataset([{"a": 1}], "in").filter(col("a") == 2)
        provenance = query_provenance(ds.execute(capture=True), "root{/a}")
        report = audit_leak(provenance)
        assert report.affected_ids("in") == []
        assert report.lineage_overreport("in", ["a"]) == 1.0
