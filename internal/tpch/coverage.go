package tpch

import (
	"fmt"
	"strings"
)

// This file completes the TPC-H inventory: the nine queries outside both
// the ten study tasks and the five nested exemplars in excluded.go, plus
// the Coverage map the README's matrix and the differential harness are
// built from. Every one of the 22 queries now runs end-to-end — through
// the algebra for the study's expressible subset, through the SQL
// substrate alone for the rest — with the excluding feature documented on
// each entry.
//
// CASE expressions are spelled with the expression language's IF(cond,
// then, else); constants are scaled for the small default dataset as in
// excluded.go.

// remainingQueries are the TPC-H queries the study dropped that excluded.go
// does not carry. Together with the tasks and the nested exemplars they
// bring the repository to all 22 queries.
func remainingQueries() []ExcludedQuery {
	return []ExcludedQuery{
		{
			TpchQuery: "Q2", Name: "minimum-cost-supplier",
			Why: "correlated scalar subquery (per-part minimum cost)",
			SQL: "SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr FROM part " +
				"JOIN partsupp ON p_partkey = ps_partkey JOIN supplier ON s_suppkey = ps_suppkey " +
				"JOIN nation ON s_nationkey = n_nationkey JOIN region ON n_regionkey = r_regionkey " +
				"WHERE p_size <= 15 AND p_type LIKE '%BRASS' AND r_name = 'EUROPE' " +
				"AND ps_supplycost = (SELECT MIN(i.ps_supplycost) FROM partsupp AS i " +
				"JOIN supplier AS s2 ON i.ps_suppkey = s2.s_suppkey " +
				"JOIN nation AS n2 ON s2.s_nationkey = n2.n_nationkey " +
				"JOIN region AS r2 ON n2.n_regionkey = r2.r_regionkey " +
				"WHERE i.ps_partkey = p_partkey AND r2.r_name = 'EUROPE') " +
				"ORDER BY s_acctbal DESC, n_name, s_name, p_partkey LIMIT 100",
		},
		{
			TpchQuery: "Q8", Name: "national-market-share",
			Why: "CASE (conditional aggregation, spelled IF here)",
			SQL: "SELECT o_year, SUM(IF(nation = 'BRAZIL', volume, 0.0)) / SUM(volume) AS mkt_share " +
				"FROM (SELECT YEAR(o_orderdate) AS o_year, l_extendedprice * (1 - l_discount) AS volume, " +
				"n2.n_name AS nation FROM part JOIN lineitem ON p_partkey = l_partkey " +
				"JOIN supplier ON s_suppkey = l_suppkey JOIN orders ON l_orderkey = o_orderkey " +
				"JOIN customer ON o_custkey = c_custkey JOIN nation AS n1 ON c_nationkey = n1.n_nationkey " +
				"JOIN region ON n1.n_regionkey = r_regionkey JOIN nation AS n2 ON s_nationkey = n2.n_nationkey " +
				"WHERE r_name = 'AMERICA' AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' " +
				"AND p_type LIKE '%ANODIZED%') AS all_nations " +
				"GROUP BY o_year ORDER BY o_year",
		},
		{
			TpchQuery: "Q12", Name: "shipping-modes-priority",
			Why: "CASE (conditional aggregation, spelled IF here)",
			SQL: "SELECT l_shipmode, " +
				"SUM(IF(o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH', 1, 0)) AS high_line_count, " +
				"SUM(IF(o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH', 1, 0)) AS low_line_count " +
				"FROM orders JOIN lineitem ON o_orderkey = l_orderkey " +
				"WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate " +
				"AND l_shipdate < l_commitdate AND l_receiptdate >= DATE '1994-01-01' " +
				"AND l_receiptdate < DATE '1995-01-01' GROUP BY l_shipmode ORDER BY l_shipmode",
		},
		{
			TpchQuery: "Q13", Name: "customer-distribution",
			Why: "LEFT OUTER JOIN (emulated with a correlated COUNT subquery)",
			SQL: "SELECT c_count, COUNT(*) AS custdist FROM (SELECT c_custkey, " +
				"(SELECT COUNT(o.o_orderkey) FROM orders AS o WHERE o.o_custkey = c_custkey " +
				"AND o.o_comment NOT LIKE '%special%requests%') AS c_count FROM customer) AS c_orders " +
				"GROUP BY c_count ORDER BY custdist DESC, c_count DESC",
		},
		{
			TpchQuery: "Q14", Name: "promotion-effect",
			Why: "CASE (conditional aggregation, spelled IF here)",
			SQL: "SELECT 100.0 * SUM(IF(p_type LIKE 'PROMO%', l_extendedprice * (1 - l_discount), 0.0)) / " +
				"SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue " +
				"FROM lineitem JOIN part ON l_partkey = p_partkey " +
				"WHERE l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'",
		},
		{
			TpchQuery: "Q15", Name: "top-supplier",
			Why: "view + scalar max (expressed with a window: MAX() OVER ())",
			SQL: "SELECT s_suppkey, s_name, s_address, s_phone, total_revenue FROM supplier JOIN " +
				"(SELECT supplier_no, total_revenue, MAX(total_revenue) OVER () AS max_revenue FROM " +
				"(SELECT l_suppkey AS supplier_no, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue " +
				"FROM lineitem WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01' " +
				"GROUP BY l_suppkey) AS r) AS w ON s_suppkey = supplier_no " +
				"WHERE total_revenue = max_revenue ORDER BY s_suppkey",
		},
		{
			TpchQuery: "Q16", Name: "parts-supplier-relationship",
			Why: "NOT IN subquery",
			SQL: "SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt " +
				"FROM partsupp JOIN part ON p_partkey = ps_partkey " +
				"WHERE p_brand <> 'Brand#45' AND p_type NOT LIKE 'MEDIUM POLISHED%' " +
				"AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9) " +
				"AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_comment LIKE '%Customer%Complaints%') " +
				"GROUP BY p_brand, p_type, p_size ORDER BY supplier_cnt DESC, p_brand, p_type, p_size",
		},
		{
			TpchQuery: "Q20", Name: "potential-part-promotion",
			Why: "doubly nested IN with a correlated half-stock threshold",
			SQL: "SELECT s_name, s_address FROM supplier JOIN nation ON s_nationkey = n_nationkey " +
				"WHERE n_name = 'CANADA' AND s_suppkey IN (SELECT ps_suppkey FROM partsupp " +
				"WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%') " +
				"AND ps_availqty > (SELECT 0.5 * SUM(l.l_quantity) FROM lineitem AS l " +
				"WHERE l.l_partkey = ps_partkey AND l.l_suppkey = ps_suppkey " +
				"AND l.l_shipdate >= DATE '1994-01-01' AND l.l_shipdate < DATE '1995-01-01')) " +
				"ORDER BY s_name",
		},
		{
			TpchQuery: "Q21", Name: "suppliers-who-kept-orders-waiting",
			Why: "EXISTS and NOT EXISTS over a second lineitem scan",
			SQL: "SELECT s_name, COUNT(*) AS numwait FROM supplier " +
				"JOIN lineitem ON s_suppkey = l_suppkey JOIN orders ON o_orderkey = l_orderkey " +
				"JOIN nation ON s_nationkey = n_nationkey " +
				"WHERE o_orderstatus = 'F' AND l_receiptdate > l_commitdate AND n_name = 'SAUDI ARABIA' " +
				"AND EXISTS (SELECT i.l_orderkey FROM lineitem AS i WHERE i.l_orderkey = lineitem.l_orderkey " +
				"AND i.l_suppkey <> lineitem.l_suppkey) " +
				"AND NOT EXISTS (SELECT j.l_orderkey FROM lineitem AS j WHERE j.l_orderkey = lineitem.l_orderkey " +
				"AND j.l_suppkey <> lineitem.l_suppkey AND j.l_receiptdate > j.l_commitdate) " +
				"GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 100",
		},
	}
}

// CoverageMode classifies how a TPC-H query runs in this repository.
type CoverageMode string

// Coverage modes.
const (
	ModeAlgebra   CoverageMode = "algebra"   // direct-manipulation program, differentially checked against SQL
	ModeFlattened CoverageMode = "flattened" // algebra on the study's flattened variant; original nested form is SQL-only
	ModeSQLOnly   CoverageMode = "sql"       // outside the algebra's expressiveness; SQL substrate only
)

// QueryCoverage is one row of the 22-query matrix.
type QueryCoverage struct {
	Query string // "Q1" .. "Q22"
	Mode  CoverageMode
	Via   string // the task or exemplar name that runs it
	Why   string // for non-algebra modes, the excluding feature
}

// Coverage enumerates all 22 TPC-H queries with how each is exercised. The
// harness test asserts every entry resolves to a runnable task or query.
func Coverage() []QueryCoverage {
	byQuery := map[string]QueryCoverage{}
	for _, task := range Tasks() {
		q := task.TpchQuery
		mode := ModeAlgebra
		if strings.HasSuffix(q, "′") { // the prime marks a study flattening
			q = strings.TrimSuffix(q, "′")
			mode = ModeFlattened
		}
		byQuery[q] = QueryCoverage{Query: q, Mode: mode, Via: "task " + task.Name}
	}
	for _, eq := range ExcludedQueries() {
		if prev, ok := byQuery[eq.TpchQuery]; ok {
			// Flattened in the study: keep the algebra entry, note the
			// nested original rides along as SQL.
			prev.Why = eq.Why
			byQuery[eq.TpchQuery] = prev
			continue
		}
		byQuery[eq.TpchQuery] = QueryCoverage{
			Query: eq.TpchQuery, Mode: ModeSQLOnly, Via: eq.Name, Why: eq.Why}
	}
	out := make([]QueryCoverage, 0, 22)
	for i := 1; i <= 22; i++ {
		q := fmt.Sprintf("Q%d", i)
		if c, ok := byQuery[q]; ok {
			out = append(out, c)
		} else {
			out = append(out, QueryCoverage{Query: q})
		}
	}
	return out
}
