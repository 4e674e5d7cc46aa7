package sql_test

import (
	"fmt"
	"log"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/sql"
)

// Example runs a grouped, filtered query against an in-memory table.
func Example() {
	db := sql.NewDB()
	db.Register(dataset.UsedCars())
	res, err := db.Query(
		"SELECT Model, COUNT(*) AS n, MIN(Price) AS cheapest FROM cars " +
			"WHERE Year >= 2005 GROUP BY Model ORDER BY Model")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.TupleRows() {
		fmt.Printf("%v: %v cars, cheapest %v\n", row[0], row[1], row[2])
	}
	// Output:
	// Civic: 3 cars, cheapest 13500
	// Jetta: 6 cars, cheapest 14500
}

// Example_correlatedSubquery runs the nested form of the paper's Fig. 2
// query — expressible here, not in the spreadsheet algebra.
func Example_correlatedSubquery() {
	db := sql.NewDB()
	db.Register(dataset.UsedCars())
	res, err := db.Query(
		"SELECT c.ID FROM cars c WHERE c.Price < " +
			"(SELECT AVG(b.Price) FROM cars b WHERE b.Model = c.Model) ORDER BY c.ID")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.TupleRows() {
		fmt.Println(row[0])
	}
	// Output:
	// 132
	// 304
	// 872
	// 901
}
