"""GDPR auditing with structural provenance (paper Secs. 1 and 7.3.5).

Scenario: an insider ran a query over customer records and leaked its
result.  The auditor replays the query with Pebble's provenance capture,
matches the leaked rows via a tree pattern, and derives

* which customers are affected,
* exactly which of their attributes are reproducible from the leak
  (GDPR-reportable), and
* which attributes were merely *accessed* -- invisible in the leak but at
  risk of reconstruction attacks.

The example also quantifies how much a tuple-level lineage audit would
over-report (every attribute of every affected customer).

Run with::

    python examples/auditing_gdpr.py
"""

import sys
from pathlib import Path

from repro import PebbleSession, col, struct_

# The leaked-result analysis belongs to the paper's evaluation (Sec. 7.3.5).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from paperbench.auditing import audit_leak  # noqa: E402

CUSTOMERS = [
    {
        "customer_id": "c-100",
        "name": "Lisa Paul",
        "contact": {"email": "lisa@example.org", "phone": "+49-711-1"},
        "payment": {"card_number": "4111-1111", "iban": "DE44-0001"},
        "segment": "premium",
        "age": 34,
        "orders": [
            {"order_id": "o-1", "total": 129.90, "items": ["keyboard", "mouse"]},
            {"order_id": "o-2", "total": 19.90, "items": ["cable"]},
        ],
    },
    {
        "customer_id": "c-200",
        "name": "John Miller",
        "contact": {"email": "john@example.org", "phone": "+49-711-2"},
        "payment": {"card_number": "4222-2222", "iban": "DE44-0002"},
        "segment": "basic",
        "age": 51,
        "orders": [{"order_id": "o-3", "total": 999.00, "items": ["laptop"]}],
    },
    {
        "customer_id": "c-300",
        "name": "Lauren Smith",
        "contact": {"email": "lauren@example.org", "phone": "+49-711-3"},
        "payment": {"card_number": "4333-3333", "iban": "DE44-0003"},
        "segment": "premium",
        "age": 29,
        "orders": [],
    },
]


def main() -> None:
    pebble = PebbleSession()

    # The insider's query: premium customers' names, e-mails, and order totals.
    leaked_query = (
        pebble.create_dataset(CUSTOMERS, "customers.json")
        .filter(col("segment") == "premium")
        .flatten("orders", "order", outer=True)
        .select(
            col("name"),
            col("contact.email").alias("email"),
            struct_(order_id=col("order.order_id"), total=col("order.total")).alias("sale"),
        )
    )

    captured = pebble.run(leaked_query)
    print("Leaked result rows:")
    for item in captured.items():
        print(" ", item)

    # Audit the *entire* leaked result: the pattern names every leaked column.
    provenance = captured.backtrace("root{/name, /email, /sale}")
    report = audit_leak(provenance)

    print("\n" + report.render())

    source = "customers.json"
    schema_attributes = ["customer_id", "name", "contact", "payment", "segment", "age", "orders"]
    print("\naffected customers:", report.affected_ids(source))
    print("leaked attributes: ", sorted(report.leaked_attributes(source)))
    print("at-risk (accessed):", sorted(report.at_risk_attributes(source)))
    print(
        "lineage would over-report by a factor of "
        f"{report.lineage_overreport(source, schema_attributes):.1f} "
        "(it marks whole customer tuples, credit cards included)"
    )


if __name__ == "__main__":
    main()
