"""The 22 CH-benCHmark analytical queries, adapted to the stitch schema.

Each query keeps the table-access *footprint* of the original CH-benCHmark
query set (simplified relational bodies, same joins/aggregation shapes):
10 of 22 queries read SUPPLIER (45.4%), 9 read NATION (40.9%) and 3 read
REGION (13.6%) — the exact proportions §III-B2 quotes when showing that
stitch-schema analytics mostly read tables the online transactions never
update.  None of the 22 touches HISTORY, WAREHOUSE or DISTRICT.

CH-benCHmark's queries carry selective predicates (date windows, region
filters); here those become warehouse-slice predicates (``ol_w_id = 1``),
so at multi-warehouse scale the stitch-schema analytics touch only a
fraction of the live data — unlike OLxPBench's reports, which span all of
it.  Supplier joins use CH-benCHmark's computed-key convention
(``su_suppkey = mod(...)``), expressed inline so the planner's computed-key
hash join handles them.
"""

from __future__ import annotations

from repro.workloads.base import TransactionProfile
from repro.workloads.chbench.loader import SUPPLIERS


def make_queries() -> list[TransactionProfile]:

    def q1(session, rng):  # order_line
        # CH Q1 carries a delivery-date predicate; as with the other
        # queries it becomes a warehouse-slice here
        session.execute(
            "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), "
            "AVG(ol_quantity), AVG(ol_amount), COUNT(*) "
            "FROM order_line WHERE ol_w_id = 1 "
            "AND ol_delivery_d IS NOT NULL "
            "GROUP BY ol_number ORDER BY ol_number")

    def q2(session, rng):  # item, supplier, stock, nation, region
        session.execute(
            "SELECT su.su_suppkey, su.su_name, n.n_name, i.i_id, i.i_name "
            "FROM stock s "
            "JOIN supplier su ON su.su_suppkey = s.s_i_id % "
            f"{SUPPLIERS} "
            "JOIN item i ON i.i_id = s.s_i_id "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "JOIN region r ON r.r_regionkey = n.n_regionkey "
            "WHERE r.r_name LIKE 'EUROP%' AND s.s_quantity < 30 "
            "ORDER BY su.su_suppkey LIMIT 100")

    def q3(session, rng):  # customer, new_order, orders, order_line
        session.execute(
            "SELECT ol.ol_o_id, ol.ol_w_id, ol.ol_d_id, "
            "SUM(ol.ol_amount) AS revenue "
            "FROM customer c "
            "JOIN orders o ON o.o_w_id = c.c_w_id AND o.o_d_id = c.c_d_id "
            "AND o.o_c_id = c.c_id "
            "JOIN new_order no ON no.no_w_id = o.o_w_id "
            "AND no.no_d_id = o.o_d_id AND no.no_o_id = o.o_id "
            "JOIN order_line ol ON ol.ol_w_id = o.o_w_id "
            "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
            "WHERE c.c_state LIKE 'C%' AND ol.ol_w_id = 1 "
            "GROUP BY ol.ol_o_id, ol.ol_w_id, ol.ol_d_id "
            "ORDER BY revenue DESC LIMIT 10")

    def q4(session, rng):  # orders, order_line
        session.execute(
            "SELECT o.o_ol_cnt, COUNT(*) FROM orders o "
            "WHERE o.o_w_id = 1 AND o.o_id IN (SELECT ol_o_id FROM order_line "
            "WHERE ol_w_id = 1 AND ol_delivery_d IS NULL) "
            "GROUP BY o.o_ol_cnt ORDER BY o.o_ol_cnt")

    def q5(session, rng):  # customer, orders, order_line, stock, supplier, nation, region
        session.execute(
            "SELECT n.n_name, SUM(ol.ol_amount) AS revenue "
            "FROM orders o "
            "JOIN order_line ol ON ol.ol_w_id = o.o_w_id "
            "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
            "JOIN stock s ON s.s_w_id = ol.ol_supply_w_id "
            "AND s.s_i_id = ol.ol_i_id "
            f"JOIN supplier su ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "JOIN region r ON r.r_regionkey = n.n_regionkey "
            "JOIN customer c ON c.c_w_id = o.o_w_id "
            "AND c.c_d_id = o.o_d_id AND c.c_id = o.o_c_id "
            "WHERE r.r_name = 'EUROPE' AND o.o_w_id = ? AND ol.ol_w_id = 1 "
            "GROUP BY n.n_name ORDER BY revenue DESC", (1,))

    def q6(session, rng):  # order_line
        session.execute(
            "SELECT SUM(ol_amount) AS revenue FROM order_line "
            "WHERE ol_w_id = 1 AND ol_quantity BETWEEN 1 AND 10 "
            "AND ol_delivery_d IS NOT NULL")

    def q7(session, rng):  # supplier, stock, order_line, orders, customer, nation
        session.execute(
            "SELECT su.su_nationkey AS supp_nation, n.n_name, "
            "SUM(ol.ol_amount) AS revenue "
            "FROM order_line ol "
            "JOIN orders o ON o.o_w_id = ol.ol_w_id "
            "AND o.o_d_id = ol.ol_d_id AND o.o_id = ol.ol_o_id "
            "JOIN customer c ON c.c_w_id = o.o_w_id "
            "AND c.c_d_id = o.o_d_id AND c.c_id = o.o_c_id "
            "JOIN stock s ON s.s_w_id = ol.ol_supply_w_id "
            "AND s.s_i_id = ol.ol_i_id "
            f"JOIN supplier su ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "WHERE ol.ol_w_id = ? AND ol.ol_d_id <= 3 "
            "GROUP BY su.su_nationkey, n.n_name ORDER BY revenue DESC",
            (1,))

    def q8(session, rng):  # item, supplier, stock, order_line, orders, customer, nation, region
        session.execute(
            "SELECT n.n_name, SUM(ol.ol_amount) AS volume "
            "FROM order_line ol "
            "JOIN item i ON i.i_id = ol.ol_i_id "
            "JOIN orders o ON o.o_w_id = ol.ol_w_id "
            "AND o.o_d_id = ol.ol_d_id AND o.o_id = ol.ol_o_id "
            "JOIN customer c ON c.c_w_id = o.o_w_id "
            "AND c.c_d_id = o.o_d_id AND c.c_id = o.o_c_id "
            "JOIN stock s ON s.s_w_id = ol.ol_supply_w_id "
            "AND s.s_i_id = ol.ol_i_id "
            f"JOIN supplier su ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "JOIN region r ON r.r_regionkey = n.n_regionkey "
            "WHERE i.i_price < 50 AND ol.ol_w_id = 1 AND ol.ol_d_id <= 2 "
            "GROUP BY n.n_name ORDER BY volume DESC LIMIT 10")

    def q9(session, rng):  # item, stock, supplier, order_line, orders, nation
        session.execute(
            "SELECT n.n_name, SUM(ol.ol_amount) AS profit "
            "FROM order_line ol "
            "JOIN item i ON i.i_id = ol.ol_i_id "
            "JOIN orders o ON o.o_w_id = ol.ol_w_id "
            "AND o.o_d_id = ol.ol_d_id AND o.o_id = ol.ol_o_id "
            "JOIN stock s ON s.s_w_id = ol.ol_supply_w_id "
            "AND s.s_i_id = ol.ol_i_id "
            f"JOIN supplier su ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "WHERE i.i_data LIKE '%0%' AND ol.ol_w_id = 1 AND ol.ol_d_id <= 2 "
            "GROUP BY n.n_name ORDER BY profit DESC LIMIT 10")

    def q10(session, rng):  # customer, orders, order_line, nation
        session.execute(
            "SELECT c.c_id, c.c_last, SUM(ol.ol_amount) AS revenue, "
            "n.n_name "
            "FROM customer c "
            "JOIN orders o ON o.o_w_id = c.c_w_id "
            "AND o.o_d_id = c.c_d_id AND o.o_c_id = c.c_id "
            "JOIN order_line ol ON ol.ol_w_id = o.o_w_id "
            "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
            f"JOIN nation n ON n.n_nationkey = c.c_id % 25 "
            "WHERE c.c_w_id = ? AND ol.ol_w_id = 1 AND o.o_carrier_id IS NULL "
            "GROUP BY c.c_id, c.c_last, n.n_name "
            "ORDER BY revenue DESC LIMIT 20", (1,))

    def q11(session, rng):  # stock, supplier, nation
        session.execute(
            "SELECT s.s_i_id, SUM(s.s_order_cnt) AS ordercount "
            "FROM stock s "
            f"JOIN supplier su ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "WHERE n.n_name = 'nation_07' "
            "GROUP BY s.s_i_id ORDER BY ordercount DESC LIMIT 20")

    def q12(session, rng):  # orders, order_line
        session.execute(
            "SELECT o.o_ol_cnt, "
            "SUM(CASE WHEN o.o_carrier_id IS NULL THEN 1 ELSE 0 END) "
            "AS pending, COUNT(*) AS total "
            "FROM orders o "
            "JOIN order_line ol ON ol.ol_w_id = o.o_w_id "
            "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
            "WHERE ol.ol_number = 1 AND o.o_w_id = ? AND ol.ol_w_id = 1 "
            "GROUP BY o.o_ol_cnt ORDER BY o.o_ol_cnt", (1,))

    def q13(session, rng):  # customer, orders
        session.execute(
            "SELECT c.c_id, COUNT(*) AS order_count FROM customer c "
            "JOIN orders o ON o.o_w_id = c.c_w_id "
            "AND o.o_d_id = c.c_d_id AND o.o_c_id = c.c_id "
            "WHERE c.c_w_id = ? GROUP BY c.c_id "
            "ORDER BY order_count DESC LIMIT 20", (1,))

    def q14(session, rng):  # order_line, item
        session.execute(
            "SELECT SUM(CASE WHEN i.i_data LIKE 'PR%' THEN ol.ol_amount "
            "ELSE 0 END) AS promo, SUM(ol.ol_amount) AS total "
            "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
            "WHERE ol.ol_w_id = 1 AND ol.ol_delivery_d IS NOT NULL")

    def q15(session, rng):  # order_line, supplier
        session.execute(
            "SELECT su.su_suppkey, su.su_name, "
            "SUM(ol.ol_amount) AS total_revenue "
            "FROM order_line ol "
            f"JOIN supplier su ON su.su_suppkey = ol.ol_i_id % {SUPPLIERS} "
            "WHERE ol.ol_w_id = 1 "
            "GROUP BY su.su_suppkey, su.su_name "
            "ORDER BY total_revenue DESC LIMIT 10")

    def q16(session, rng):  # item, supplier, stock
        session.execute(
            "SELECT i.i_name, COUNT(DISTINCT su.su_suppkey) AS supplier_cnt "
            "FROM stock s "
            "JOIN item i ON i.i_id = s.s_i_id "
            f"JOIN supplier su ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "WHERE i.i_data NOT LIKE 'zz%' AND s.s_quantity > 50 "
            "GROUP BY i.i_name ORDER BY supplier_cnt DESC LIMIT 20")

    def q17(session, rng):  # order_line, item
        session.execute(
            "SELECT SUM(ol.ol_amount) / 2.0 AS avg_yearly "
            "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
            "WHERE i.i_data LIKE '%a%' AND ol.ol_w_id = 1 AND ol.ol_quantity < "
            "(SELECT AVG(ol_quantity) FROM order_line WHERE ol_w_id = 1)")

    def q18(session, rng):  # customer, orders, order_line
        session.execute(
            "SELECT c.c_last, c.c_id, o.o_id, SUM(ol.ol_amount) AS spend "
            "FROM customer c "
            "JOIN orders o ON o.o_w_id = c.c_w_id "
            "AND o.o_d_id = c.c_d_id AND o.o_c_id = c.c_id "
            "JOIN order_line ol ON ol.ol_w_id = o.o_w_id "
            "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
            "WHERE c.c_w_id = ? AND ol.ol_w_id = 1 "
            "GROUP BY c.c_last, c.c_id, o.o_id "
            "HAVING SUM(ol.ol_amount) > 1500 "
            "ORDER BY spend DESC LIMIT 10", (1,))

    def q19(session, rng):  # order_line, item
        session.execute(
            "SELECT SUM(ol.ol_amount) AS revenue "
            "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
            "WHERE i.i_price BETWEEN 10 AND 60 AND ol.ol_w_id = 1 "
            "AND ol.ol_quantity BETWEEN 1 AND 8")

    def q20(session, rng):  # supplier, nation, order_line, item, stock
        session.execute(
            "SELECT su.su_name, su.su_address FROM supplier su "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "WHERE n.n_name = 'nation_03' AND su.su_suppkey IN "
            f"(SELECT s_i_id % {SUPPLIERS} FROM stock "
            "WHERE s_i_id IN (SELECT i_id FROM item WHERE i_data LIKE 'c%') "
            "AND s_quantity > 40) "
            "ORDER BY su.su_name LIMIT 20")

    def q21(session, rng):  # supplier, order_line, orders, stock, nation
        session.execute(
            "SELECT su.su_name, COUNT(*) AS numwait "
            "FROM supplier su "
            f"JOIN stock s ON su.su_suppkey = s.s_i_id % {SUPPLIERS} "
            "JOIN order_line ol ON ol.ol_i_id = s.s_i_id "
            "AND ol.ol_supply_w_id = s.s_w_id "
            "JOIN orders o ON o.o_w_id = ol.ol_w_id "
            "AND o.o_d_id = ol.ol_d_id AND o.o_id = ol.ol_o_id "
            "JOIN nation n ON n.n_nationkey = su.su_nationkey "
            "WHERE ol.ol_delivery_d IS NULL AND ol.ol_w_id = 1 "
            "AND ol.ol_d_id <= 2 "
            "GROUP BY su.su_name ORDER BY numwait DESC LIMIT 10")

    def q22(session, rng):  # customer, orders
        session.execute(
            "SELECT c.c_state, COUNT(*) AS numcust, "
            "SUM(c.c_balance) AS totacctbal "
            "FROM customer c "
            "WHERE c.c_balance > 0 AND c.c_w_id = ? AND c.c_id NOT IN "
            "(SELECT o_c_id FROM orders WHERE o_carrier_id IS NULL) "
            "GROUP BY c.c_state ORDER BY c.c_state", (1,))

    programs = [q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13,
                q14, q15, q16, q17, q18, q19, q20, q21, q22]
    return [
        TransactionProfile(f"Q{i + 1}", program, kind="olap", read_only=True)
        for i, program in enumerate(programs)
    ]


# table-access footprint of each query: the data behind the tests of the
# stitch schema's query coverage (paper §III-B2)
QUERY_TABLES = {
    "Q1": {"order_line"},
    "Q2": {"item", "supplier", "stock", "nation", "region"},
    "Q3": {"customer", "new_order", "orders", "order_line"},
    "Q4": {"orders", "order_line"},
    "Q5": {"customer", "orders", "order_line", "stock", "supplier",
           "nation", "region"},
    "Q6": {"order_line"},
    "Q7": {"supplier", "stock", "order_line", "orders", "customer",
           "nation"},
    "Q8": {"item", "supplier", "stock", "order_line", "orders", "customer",
           "nation", "region"},
    "Q9": {"item", "stock", "supplier", "order_line", "orders", "nation"},
    "Q10": {"customer", "orders", "order_line", "nation"},
    "Q11": {"stock", "supplier", "nation"},
    "Q12": {"orders", "order_line"},
    "Q13": {"customer", "orders"},
    "Q14": {"order_line", "item"},
    "Q15": {"order_line", "supplier"},
    "Q16": {"item", "supplier", "stock"},
    "Q17": {"order_line", "item"},
    "Q18": {"customer", "orders", "order_line"},
    "Q19": {"order_line", "item"},
    "Q20": {"supplier", "nation", "item", "stock"},
    "Q21": {"supplier", "order_line", "orders", "stock", "nation"},
    "Q22": {"customer", "orders"},
}
