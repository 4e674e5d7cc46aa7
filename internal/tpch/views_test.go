package tpch

import (
	"hash/fnv"
	"testing"
)

// TestViewsGolden pins every study view's contents at the default scale:
// its row count and an fnv64a hash over each cell's kind and text, in row
// order. The task answers pin only what the tasks read; this catches a
// changed column no task reads, or a changed row order no answer depends on.
func TestViewsGolden(t *testing.T) {
	want := map[string]struct {
		rows int
		hash uint64
	}{
		"v_shipping_priority": {11912, 0xea8b31ecd7095da5},
		"v_local_volume":      {481, 0x814c80dbfa9f03d},
		"v_volume_shipping":   {11912, 0xdf684e4b92734b0c},
		"v_profit":            {2312, 0x8e2d9bd94802f15e},
		"v_returned_items":    {11912, 0xe2f90563693b59b0},
		"v_part_revenue":      {11912, 0xdd45e27ac76bdeb2},
		"v_stock":             {1600, 0x10a3b9e278e71920},
		"v_large_orders":      {11912, 0x7ecb6e21d6496d05},
	}
	db := setup(t)
	seen := map[string]bool{}
	for _, task := range Tasks() {
		if task.ViewSQL == "" || seen[task.ViewName] {
			continue
		}
		seen[task.ViewName] = true
		v, ok := db.Table(task.ViewName)
		if !ok {
			t.Fatalf("view %s missing", task.ViewName)
		}
		h := fnv.New64a()
		for _, row := range v.TupleRange(0, v.Len()) {
			for _, c := range row {
				h.Write([]byte(c.Kind().String()))
				h.Write([]byte{0})
				h.Write([]byte(c.String()))
				h.Write([]byte{0})
			}
		}
		got := struct {
			rows int
			hash uint64
		}{v.Len(), h.Sum64()}
		if w, ok := want[task.ViewName]; !ok || got != w {
			t.Errorf("view %s = {%d rows, %#x}, want {%d, %#x}", task.ViewName, got.rows, got.hash, w.rows, w.hash)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%d views, want %d", len(seen), len(want))
	}
}

// TestViewsBuildColumnOnly: building the views boxes none of their cells —
// every column of each view is typed, none a Boxed column.
func TestViewsBuildColumnOnly(t *testing.T) {
	db := BuildDB(Generate(DefaultConfig()))
	if err := BuildViews(db); err != nil {
		t.Fatal(err)
	}
	for _, task := range Tasks() {
		if task.ViewSQL == "" {
			continue
		}
		v, _ := db.Table(task.ViewName)
		for j, c := range v.Columns() {
			if c.Boxed != nil {
				t.Errorf("view %s: column %s is boxed", task.ViewName, v.Schema[j].Name)
			}
		}
	}
}
