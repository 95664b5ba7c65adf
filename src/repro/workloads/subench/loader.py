"""subenchmark data loader (TPC-C population rules, scaled down).

``scale`` sets the warehouse count (scale 1.0 = 1 warehouse; the paper used
50 on its physical cluster — README's *Benchmarks* section: the benches
assert the figures' shapes, not absolute numbers).  Within a warehouse the
TPC-C card ratios are preserved at reduced cardinality:
10 districts, ``CUSTOMERS_PER_DISTRICT`` customers each, one initial order
per customer with 5-15 lines, ~30% undelivered (NEW_ORDER backlog), one
stock row per item, and one initial HISTORY row per customer.
"""

from __future__ import annotations

from random import Random

from repro.db import Database

DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 300
# the paper's real-time lowest-price query scans the full item catalogue
# (100k items at TPC-C scale); 20k keeps that query expensive relative to
# point-lookup transactions at our reduced scale
ITEMS = 15_000
UNDELIVERED_FRACTION = 0.30

_LAST_NAMES = ("BAR", "OUGHT", "ABLE", "PRI", "PRES",
               "ESE", "ANTI", "CALLY", "ATION", "EING")


def warehouse_count(scale: float = 1.0) -> int:
    return max(1, round(scale))


def customer_last_name(number: int) -> str:
    """TPC-C's syllable-composed last name for ``number`` in [0, 999]."""
    return (_LAST_NAMES[number // 100]
            + _LAST_NAMES[(number // 10) % 10]
            + _LAST_NAMES[number % 10])


def _address(rng: Random) -> tuple:
    return (
        f"{rng.randint(1, 999)} main st",
        f"suite {rng.randint(1, 99)}",
        f"city{rng.randint(1, 50)}",
        "CA",
        f"{rng.randint(10000, 99999)}0000",
    )


def load(db: Database, rng: Random, scale: float = 1.0) -> dict:
    warehouses = warehouse_count(scale)
    counts = {"warehouse": 0, "district": 0, "customer": 0, "history": 0,
              "orders": 0, "new_order": 0, "order_line": 0, "item": 0,
              "stock": 0}

    items = []
    for i_id in range(1, ITEMS + 1):
        items.append((
            i_id, rng.randint(1, 10_000), f"item_{i_id:06d}",
            round(rng.uniform(1.0, 100.0), 2),
            f"data_{rng.randint(0, 10 ** 8):09d}",
        ))
    db.bulk_load("item", items)
    counts["item"] = len(items)

    history_date = [0.0]  # monotonically unique h_date values

    for w_id in range(1, warehouses + 1):
        db.bulk_load("warehouse", [(
            w_id, f"wh_{w_id}", *_address(rng),
            round(rng.uniform(0.0, 0.2), 4), 300_000.0,
        )])
        counts["warehouse"] += 1

        stock = []
        for i_id in range(1, ITEMS + 1):
            stock.append((
                i_id, w_id, rng.randint(10, 100),
                *(f"dist_{d:02d}_{i_id:06d}"[:24] for d in range(1, 11)),
                0.0, 0, 0, f"stock_{rng.randint(0, 10 ** 8):09d}",
            ))
        db.bulk_load("stock", stock)
        counts["stock"] += len(stock)

        for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            next_o_id = CUSTOMERS_PER_DISTRICT + 1
            db.bulk_load("district", [(
                d_id, w_id, f"dist_{d_id}", *_address(rng),
                round(rng.uniform(0.0, 0.2), 4), 30_000.0, next_o_id,
            )])
            counts["district"] += 1

            customers = []
            history = []
            orders = []
            new_orders = []
            order_lines = []
            for c_id in range(1, CUSTOMERS_PER_DISTRICT + 1):
                last = customer_last_name(
                    c_id - 1 if c_id <= 1000 else rng.randint(0, 999))
                customers.append((
                    c_id, d_id, w_id, f"first{c_id}", "OE", last,
                    *_address(rng), f"{rng.randint(0, 10 ** 15):016d}",
                    0.0, "GC" if rng.random() < 0.9 else "BC",
                    50_000.0, round(rng.uniform(0.0, 0.5), 4),
                    -10.0, 10.0, 1, 0,
                    f"custdata_{rng.randint(0, 10 ** 8):09d}",
                ))
                history_date[0] += 1.0
                history.append((
                    c_id, d_id, w_id, d_id, w_id, history_date[0], 10.0,
                    f"hist_{c_id}",
                ))
                o_id = c_id  # one initial order per customer, shuffled c
                ol_cnt = rng.randint(5, 15)
                delivered = rng.random() >= UNDELIVERED_FRACTION
                orders.append((
                    o_id, d_id, w_id, c_id, float(o_id),
                    rng.randint(1, 10) if delivered else None,
                    ol_cnt, 1,
                ))
                if not delivered:
                    new_orders.append((o_id, d_id, w_id))
                for ol_number in range(1, ol_cnt + 1):
                    i_id = rng.randint(1, ITEMS)
                    order_lines.append((
                        o_id, d_id, w_id, ol_number, i_id, w_id,
                        float(o_id) if delivered else None,
                        5, round(rng.uniform(1.0, 300.0), 2),
                        f"dist_{d_id:02d}_{i_id:06d}"[:24],
                    ))
            db.bulk_load("customer", customers)
            db.bulk_load("history", history)
            db.bulk_load("orders", orders)
            if new_orders:
                db.bulk_load("new_order", new_orders)
            db.bulk_load("order_line", order_lines)
            counts["customer"] += len(customers)
            counts["history"] += len(history)
            counts["orders"] += len(orders)
            counts["new_order"] += len(new_orders)
            counts["order_line"] += len(order_lines)
    return counts
