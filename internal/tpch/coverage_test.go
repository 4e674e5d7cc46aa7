package tpch

import (
	"hash/fnv"
	"math"
	"testing"
)

// TestCoverageAll22 pins the coverage matrix: every TPC-H query is present,
// classified, and backed by a runnable task or exemplar.
func TestCoverageAll22(t *testing.T) {
	cov := Coverage()
	if len(cov) != 22 {
		t.Fatalf("coverage has %d entries, want 22", len(cov))
	}
	counts := map[CoverageMode]int{}
	for _, c := range cov {
		if c.Mode == "" || c.Via == "" {
			t.Errorf("%s has no runnable backing: %+v", c.Query, c)
			continue
		}
		counts[c.Mode]++
		if c.Mode != ModeAlgebra && c.Why == "" {
			t.Errorf("%s is %s but records no excluding feature", c.Query, c.Mode)
		}
	}
	// The study expressed 10 of 22: eight verbatim, two flattened.
	if counts[ModeAlgebra] != 8 || counts[ModeFlattened] != 2 || counts[ModeSQLOnly] != 12 {
		t.Fatalf("mode counts algebra/flattened/sql = %d/%d/%d, want 8/2/12",
			counts[ModeAlgebra], counts[ModeFlattened], counts[ModeSQLOnly])
	}
}

func queryByName(t *testing.T, name string) ExcludedQuery {
	t.Helper()
	for _, eq := range ExcludedQueries() {
		if eq.Name == name {
			return eq
		}
	}
	t.Fatalf("no excluded query named %q", name)
	return ExcludedQuery{}
}

// TestQ15WindowAgreesWithScalarSubquery runs the windowed Q15 and an
// equivalent scalar-subquery formulation and requires identical results —
// a differential check of the MAX() OVER () whole-partition path against
// the independent nested-query evaluator.
func TestQ15WindowAgreesWithScalarSubquery(t *testing.T) {
	db := setup(t)
	windowed, err := db.Query(queryByName(t, "top-supplier").SQL)
	if err != nil {
		t.Fatal(err)
	}
	const revenue = "SELECT l_suppkey AS supplier_no, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue " +
		"FROM lineitem WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01' GROUP BY l_suppkey"
	scalar, err := db.Query("SELECT s_suppkey, s_name, s_address, s_phone, total_revenue FROM supplier JOIN (" +
		revenue + ") AS r ON s_suppkey = supplier_no WHERE total_revenue = " +
		"(SELECT MAX(r2.total_revenue) FROM (" + revenue + ") AS r2) ORDER BY s_suppkey")
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Len() == 0 {
		t.Fatal("Q15 returned no top supplier")
	}
	if windowed.String() != scalar.String() {
		t.Fatalf("windowed and scalar Q15 diverge:\n%s\nvs\n%s", windowed, scalar)
	}
}

// TestQ12ConditionalCountsSumToTotal cross-checks the IF-based conditional
// aggregation: high + low per ship mode must equal a plain COUNT.
func TestQ12ConditionalCountsSumToTotal(t *testing.T) {
	db := setup(t)
	got, err := db.Query(queryByName(t, "shipping-modes-priority").SQL)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := db.Query("SELECT l_shipmode, COUNT(*) AS n FROM orders JOIN lineitem ON o_orderkey = l_orderkey " +
		"WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate " +
		"AND l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01' " +
		"GROUP BY l_shipmode ORDER BY l_shipmode")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.Len() != totals.Len() {
		t.Fatalf("Q12 rows = %d, reference rows = %d", got.Len(), totals.Len())
	}
	for i, row := range got.TupleRows() {
		if sum := row[1].Int() + row[2].Int(); sum != totals.TupleRows()[i][1].Int() {
			t.Fatalf("%v: high %v + low %v != total %v", row[0], row[1], row[2], totals.TupleRows()[i][1])
		}
	}
}

// TestQ13DistributionCoversAllCustomers: the order-count distribution must
// account for every customer exactly once (the LEFT JOIN emulation keeps
// zero-order customers).
func TestQ13DistributionCoversAllCustomers(t *testing.T) {
	db := setup(t)
	got, err := db.Query(queryByName(t, "customer-distribution").SQL)
	if err != nil {
		t.Fatal(err)
	}
	customer, _ := db.Table("customer")
	var total int64
	for _, row := range got.TupleRows() {
		total += row[1].Int()
	}
	// An inner-join formulation would lose zero-order customers; the
	// correlated-COUNT emulation must account for every customer exactly
	// once. (At 10 orders per customer the zero bucket is usually empty,
	// but the identity still only holds with outer-join semantics.)
	if total != int64(customer.Len()) {
		t.Fatalf("distribution covers %d customers, table has %d", total, customer.Len())
	}
}

// TestQ14PromoShareBounded: the promotion share is a percentage.
func TestQ14PromoShareBounded(t *testing.T) {
	db := setup(t)
	got, err := db.Query(queryByName(t, "promotion-effect").SQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("Q14 rows = %d, want 1", got.Len())
	}
	share := got.TupleRows()[0][0].Float()
	if math.IsNaN(share) || share < 0 || share > 100 {
		t.Fatalf("promo_revenue = %v, want within [0, 100]", share)
	}
}

// TestQ2MinimumCostIsMinimum recomputes the per-part minimum supply cost in
// Go and checks every returned supplier matches it.
func TestQ2MinimumCostIsMinimum(t *testing.T) {
	db := setup(t)
	full, err := db.Query("SELECT p_partkey, ps_supplycost FROM part JOIN partsupp ON p_partkey = ps_partkey " +
		"JOIN supplier ON s_suppkey = ps_suppkey JOIN nation ON s_nationkey = n_nationkey " +
		"JOIN region ON n_regionkey = r_regionkey WHERE p_size <= 15 AND p_type LIKE '%BRASS' AND r_name = 'EUROPE'")
	if err != nil {
		t.Fatal(err)
	}
	minCost := map[int64]float64{}
	for _, row := range full.TupleRows() {
		k, c := row[0].Int(), row[1].Float()
		if prev, ok := minCost[k]; !ok || c < prev {
			minCost[k] = c
		}
	}
	got, err := db.Query(queryByName(t, "minimum-cost-supplier").SQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("Q2 returned no suppliers at the default scale")
	}
	// Re-query with the cost exposed to verify the minimum property.
	check, err := db.Query("SELECT p_partkey, ps_supplycost FROM part JOIN partsupp ON p_partkey = ps_partkey " +
		"JOIN supplier ON s_suppkey = ps_suppkey JOIN nation ON s_nationkey = n_nationkey " +
		"JOIN region ON n_regionkey = r_regionkey WHERE p_size <= 15 AND p_type LIKE '%BRASS' AND r_name = 'EUROPE' " +
		"AND ps_supplycost = (SELECT MIN(i.ps_supplycost) FROM partsupp AS i " +
		"JOIN supplier AS s2 ON i.ps_suppkey = s2.s_suppkey JOIN nation AS n2 ON s2.s_nationkey = n2.n_nationkey " +
		"JOIN region AS r2 ON n2.n_regionkey = r2.r_regionkey WHERE i.ps_partkey = p_partkey AND r2.r_name = 'EUROPE')")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range check.TupleRows() {
		if row[1].Float() != minCost[row[0].Int()] {
			t.Fatalf("part %v cost %v is not the regional minimum %v",
				row[0], row[1], minCost[row[0].Int()])
		}
	}
}

// TestQ8MarketShareBounded: each yearly market share is a fraction.
func TestQ8MarketShareBounded(t *testing.T) {
	db := setup(t)
	got, err := db.Query(queryByName(t, "national-market-share").SQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("Q8 returned no years at the default scale")
	}
	for _, row := range got.TupleRows() {
		s := row[1].Float()
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("year %v market share %v out of [0, 1]", row[0], s)
		}
	}
}

// golden pins {rows, fnv64a(table)} for each study task at the default
// fixed-seed dataset (ScaleFactor 0.002, Seed 19920101). Any change to the
// generator, the algebra pipeline, or the kernels that shifts a single cell
// shows up here.
var golden = map[int]struct {
	rows int
	hash uint64
}{
	1:  {rows: 4, hash: 0x511ada1196cf0051},
	2:  {rows: 24, hash: 0xd1d500413b12fb25},
	3:  {rows: 4, hash: 0x03ed25577996e850},
	4:  {rows: 1, hash: 0x8b020ad9def93967},
	5:  {rows: 3, hash: 0x050049bc80f6c3a7},
	6:  {rows: 67, hash: 0xa32b4004bb0aaea7},
	7:  {rows: 81, hash: 0xf6ec6b1b093a030e},
	8:  {rows: 1, hash: 0x265c6763de014bac},
	9:  {rows: 79, hash: 0xefedb242128b64e2},
	10: {rows: 663, hash: 0x8b4aef0c200fbaba},
}

// TestTasksGoldenAnswers is the regression gate over the ten study tasks:
// each algebra program's collapsed group/aggregate table must hash to the
// recorded golden value on the fixed-seed dataset.
func TestTasksGoldenAnswers(t *testing.T) {
	db := setup(t)
	for _, task := range Tasks() {
		task := task
		t.Run(task.Name, func(t *testing.T) {
			want, ok := golden[task.ID]
			if !ok {
				t.Fatalf("no golden recorded for task %d", task.ID)
			}
			sheet, err := task.Run(db)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sheet.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			var cols []string
			cols = append(cols, task.GroupCols...)
			for _, st := range task.Steps {
				if st.Kind == StepAggregate {
					cols = append(cols, st.As)
				}
			}
			got := collapse(t, res.Table, cols)
			if got.Len() != want.rows {
				t.Fatalf("rows = %d, want %d", got.Len(), want.rows)
			}
			h := fnv.New64a()
			h.Write([]byte(got.String()))
			if sum := h.Sum64(); sum != want.hash {
				t.Fatalf("table hash = 0x%016x, want 0x%016x — the task's answer drifted:\n%s",
					sum, want.hash, got.String())
			}
		})
	}
}
