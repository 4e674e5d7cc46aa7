// Package tpch implements a deterministic dbgen-style generator for the
// TPC-H schema, the pre-joined views the paper's user study predefined
// ("we predefined views for queries involving many joins so that users
// always query a single table", Sec. VII-A1), and the ten single-block
// query tasks derived from the benchmark that the study used.
//
// The generator substitutes for the official dbgen tool and its 31 MB
// demonstration dataset (DESIGN.md §2): same schema, same value families in
// every attribute the tasks touch, seeded PRNG so all runs are identical.
package tpch

import (
	"fmt"
	"math/rand"
	"time"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Tables bundles the eight generated TPC-H base relations.
type Tables struct {
	Region, Nation, Supplier, Customer *relation.Relation
	Part, PartSupp, Orders, LineItem   *relation.Relation
}

// All returns the tables in dependency order.
func (t *Tables) All() []*relation.Relation {
	return []*relation.Relation{
		t.Region, t.Nation, t.Supplier, t.Customer,
		t.Part, t.PartSupp, t.Orders, t.LineItem,
	}
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationSpec maps the 25 spec nations to their region keys.
var nationSpec = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	containers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
		"MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG"}
	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	nameNoun = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "chartreuse",
		"chiffon", "chocolate", "coral", "cornflower", "cream", "cyan", "dark",
		"deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted",
		"gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot",
		"indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light",
		"lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
		"mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy",
		"seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel",
		"tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"}
	commentWords = []string{"carefully", "quickly", "furiously", "slyly", "blithely",
		"deposits", "requests", "packages", "accounts", "instructions", "theodolites",
		"pinto", "beans", "foxes", "ideas", "dependencies", "platelets", "sleep",
		"haggle", "nag", "wake", "cajole", "boost", "integrate", "detect"}
)

const day = int64(1)

func dateDays(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

var (
	startDate = dateDays(1992, time.January, 1)
	endDate   = dateDays(1998, time.December, 31)
)

// Config controls generation volume.
type Config struct {
	// ScaleFactor matches TPC-H SF; the study dataset is ~SF 0.004.
	ScaleFactor float64
	// Seed fixes the PRNG; identical configs generate identical data.
	Seed int64
}

// DefaultConfig generates a dataset small enough for interactive tests yet
// large enough for every task to return non-trivial results.
func DefaultConfig() Config { return Config{ScaleFactor: 0.002, Seed: 19920101} }

func scale(sf float64, base int) int {
	n := int(sf * float64(base))
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds all eight tables.
func Generate(cfg Config) *Tables {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = DefaultConfig().ScaleFactor
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Tables{}
	t.Region = genRegion()
	t.Nation = genNation()
	nSupp := scale(cfg.ScaleFactor, 10000)
	nCust := scale(cfg.ScaleFactor, 150000)
	nPart := scale(cfg.ScaleFactor, 200000)
	nOrders := scale(cfg.ScaleFactor, 1500000)
	t.Supplier = genSupplier(rng, nSupp)
	t.Customer = genCustomer(rng, nCust)
	t.Part = genPart(rng, nPart)
	t.PartSupp = genPartSupp(rng, nPart, nSupp)
	t.Orders, t.LineItem = genOrdersLineItem(rng, nOrders, nCust, nPart, nSupp)
	return t
}

func comment(rng *rand.Rand) value.Value {
	n := 3 + rng.Intn(5)
	out := make([]byte, 0, 48)
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, commentWords[rng.Intn(len(commentWords))]...)
	}
	return value.NewString(string(out))
}

func genRegion() *relation.Relation {
	r := relation.New("region", relation.Schema{
		{Name: "r_regionkey", Kind: value.KindInt},
		{Name: "r_name", Kind: value.KindString},
		{Name: "r_comment", Kind: value.KindString},
	})
	for i, n := range regionNames {
		r.MustAppend(value.NewInt(int64(i)), value.NewString(n),
			value.NewString("region "+n))
	}
	return r
}

func genNation() *relation.Relation {
	r := relation.New("nation", relation.Schema{
		{Name: "n_nationkey", Kind: value.KindInt},
		{Name: "n_name", Kind: value.KindString},
		{Name: "n_regionkey", Kind: value.KindInt},
		{Name: "n_comment", Kind: value.KindString},
	})
	for i, n := range nationSpec {
		r.MustAppend(value.NewInt(int64(i)), value.NewString(n.name),
			value.NewInt(n.region), value.NewString("nation "+n.name))
	}
	return r
}

func genSupplier(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("supplier", relation.Schema{
		{Name: "s_suppkey", Kind: value.KindInt},
		{Name: "s_name", Kind: value.KindString},
		{Name: "s_address", Kind: value.KindString},
		{Name: "s_nationkey", Kind: value.KindInt},
		{Name: "s_phone", Kind: value.KindString},
		{Name: "s_acctbal", Kind: value.KindFloat},
		{Name: "s_comment", Kind: value.KindString},
	})
	for i := 1; i <= n; i++ {
		// Round-robin nation assignment guarantees every nation has
		// suppliers even at tiny scale factors, so the nation-filtered
		// study tasks (Q5, Q7, Q11′) stay non-degenerate.
		nation := int64((i - 1) % 25)
		r.MustAppend(
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("Supplier#%09d", i)),
			value.NewString(fmt.Sprintf("addr-%d", rng.Intn(10000))),
			value.NewInt(nation),
			value.NewString(phone(rng, nation)),
			value.NewFloat(float64(rng.Intn(1099800)-99999)/100),
			comment(rng),
		)
	}
	return r
}

func phone(rng *rand.Rand, nation int64) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", 10+nation, rng.Intn(900)+100,
		rng.Intn(900)+100, rng.Intn(9000)+1000)
}

func genCustomer(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("customer", relation.Schema{
		{Name: "c_custkey", Kind: value.KindInt},
		{Name: "c_name", Kind: value.KindString},
		{Name: "c_address", Kind: value.KindString},
		{Name: "c_nationkey", Kind: value.KindInt},
		{Name: "c_phone", Kind: value.KindString},
		{Name: "c_acctbal", Kind: value.KindFloat},
		{Name: "c_mktsegment", Kind: value.KindString},
		{Name: "c_comment", Kind: value.KindString},
	})
	for i := 1; i <= n; i++ {
		nation := int64(rng.Intn(25))
		r.MustAppend(
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("Customer#%09d", i)),
			value.NewString(fmt.Sprintf("addr-%d", rng.Intn(10000))),
			value.NewInt(nation),
			value.NewString(phone(rng, nation)),
			value.NewFloat(float64(rng.Intn(1099800)-99999)/100),
			value.NewString(segments[rng.Intn(len(segments))]),
			comment(rng),
		)
	}
	return r
}

func genPart(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("part", relation.Schema{
		{Name: "p_partkey", Kind: value.KindInt},
		{Name: "p_name", Kind: value.KindString},
		{Name: "p_mfgr", Kind: value.KindString},
		{Name: "p_brand", Kind: value.KindString},
		{Name: "p_type", Kind: value.KindString},
		{Name: "p_size", Kind: value.KindInt},
		{Name: "p_container", Kind: value.KindString},
		{Name: "p_retailprice", Kind: value.KindFloat},
		{Name: "p_comment", Kind: value.KindString},
	})
	for i := 1; i <= n; i++ {
		mfgr := rng.Intn(5) + 1
		brand := mfgr*10 + rng.Intn(5) + 1
		name := nameNoun[rng.Intn(len(nameNoun))] + " " + nameNoun[rng.Intn(len(nameNoun))] + " " +
			nameNoun[rng.Intn(len(nameNoun))]
		ptype := typeSyl1[rng.Intn(len(typeSyl1))] + " " + typeSyl2[rng.Intn(len(typeSyl2))] + " " +
			typeSyl3[rng.Intn(len(typeSyl3))]
		r.MustAppend(
			value.NewInt(int64(i)),
			value.NewString(name),
			value.NewString(fmt.Sprintf("Manufacturer#%d", mfgr)),
			value.NewString(fmt.Sprintf("Brand#%d", brand)),
			value.NewString(ptype),
			value.NewInt(int64(rng.Intn(50)+1)),
			value.NewString(containers[rng.Intn(len(containers))]),
			value.NewFloat(float64(90000+(i%200)*100+rng.Intn(1000))/100),
			comment(rng),
		)
	}
	return r
}

func genPartSupp(rng *rand.Rand, nPart, nSupp int) *relation.Relation {
	r := relation.New("partsupp", relation.Schema{
		{Name: "ps_partkey", Kind: value.KindInt},
		{Name: "ps_suppkey", Kind: value.KindInt},
		{Name: "ps_availqty", Kind: value.KindInt},
		{Name: "ps_supplycost", Kind: value.KindFloat},
		{Name: "ps_comment", Kind: value.KindString},
	})
	for p := 1; p <= nPart; p++ {
		for j := 0; j < 4; j++ {
			supp := (p+j*(nSupp/4+1))%nSupp + 1
			r.MustAppend(
				value.NewInt(int64(p)),
				value.NewInt(int64(supp)),
				value.NewInt(int64(rng.Intn(9999)+1)),
				value.NewFloat(float64(rng.Intn(99900)+100)/100),
				comment(rng),
			)
		}
	}
	return r
}

func genOrdersLineItem(rng *rand.Rand, nOrders, nCust, nPart, nSupp int) (*relation.Relation, *relation.Relation) {
	orders := relation.New("orders", relation.Schema{
		{Name: "o_orderkey", Kind: value.KindInt},
		{Name: "o_custkey", Kind: value.KindInt},
		{Name: "o_orderstatus", Kind: value.KindString},
		{Name: "o_totalprice", Kind: value.KindFloat},
		{Name: "o_orderdate", Kind: value.KindDate},
		{Name: "o_orderpriority", Kind: value.KindString},
		{Name: "o_clerk", Kind: value.KindString},
		{Name: "o_shippriority", Kind: value.KindInt},
		{Name: "o_comment", Kind: value.KindString},
	})
	lineitem := relation.New("lineitem", relation.Schema{
		{Name: "l_orderkey", Kind: value.KindInt},
		{Name: "l_partkey", Kind: value.KindInt},
		{Name: "l_suppkey", Kind: value.KindInt},
		{Name: "l_linenumber", Kind: value.KindInt},
		{Name: "l_quantity", Kind: value.KindInt},
		{Name: "l_extendedprice", Kind: value.KindFloat},
		{Name: "l_discount", Kind: value.KindFloat},
		{Name: "l_tax", Kind: value.KindFloat},
		{Name: "l_returnflag", Kind: value.KindString},
		{Name: "l_linestatus", Kind: value.KindString},
		{Name: "l_shipdate", Kind: value.KindDate},
		{Name: "l_commitdate", Kind: value.KindDate},
		{Name: "l_receiptdate", Kind: value.KindDate},
		{Name: "l_shipinstruct", Kind: value.KindString},
		{Name: "l_shipmode", Kind: value.KindString},
		{Name: "l_comment", Kind: value.KindString},
	})
	currentDate := dateDays(1995, time.June, 17)
	for o := 1; o <= nOrders; o++ {
		odate := startDate + int64(rng.Intn(int(endDate-startDate-151*day)))
		nLines := rng.Intn(7) + 1
		total := 0.0
		status := "O"
		allShipped := true
		for ln := 1; ln <= nLines; ln++ {
			qty := int64(rng.Intn(50) + 1)
			partkey := int64(rng.Intn(nPart) + 1)
			// Extended price follows the spec shape: qty × part price.
			price := float64(qty) * (900 + float64(partkey%200) + float64(rng.Intn(100))/100)
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := odate + int64(rng.Intn(121)+1)
			commit := odate + int64(rng.Intn(91)+30)
			receipt := ship + int64(rng.Intn(30)+1)
			rf := "N"
			if receipt <= currentDate {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "O"
			if ship <= currentDate {
				ls = "F"
			} else {
				allShipped = false
			}
			total += price * (1 + tax) * (1 - disc)
			lineitem.MustAppend(
				value.NewInt(int64(o)),
				value.NewInt(partkey),
				value.NewInt(int64(rng.Intn(nSupp)+1)),
				value.NewInt(int64(ln)),
				value.NewInt(qty),
				value.NewFloat(price),
				value.NewFloat(disc),
				value.NewFloat(tax),
				value.NewString(rf),
				value.NewString(ls),
				value.NewDateDays(ship),
				value.NewDateDays(commit),
				value.NewDateDays(receipt),
				value.NewString(instructs[rng.Intn(len(instructs))]),
				value.NewString(shipModes[rng.Intn(len(shipModes))]),
				comment(rng),
			)
		}
		if allShipped {
			status = "F"
		}
		orders.MustAppend(
			value.NewInt(int64(o)),
			value.NewInt(int64(rng.Intn(nCust)+1)),
			value.NewString(status),
			value.NewFloat(total),
			value.NewDateDays(odate),
			value.NewString(priorities[rng.Intn(len(priorities))]),
			value.NewString(fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1)),
			value.NewInt(0),
			comment(rng),
		)
	}
	return orders, lineitem
}
