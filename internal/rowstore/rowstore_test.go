package rowstore

import (
	"fmt"
	"testing"

	"hana/internal/value"
)

func newTbl() *Table {
	return NewTable(value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "name", Kind: value.KindVarchar},
	))
}

// Row ids are append positions; a duplicate key is stored like any other
// row, since keys are the engine's to check.
func TestAppendGet(t *testing.T) {
	tbl := newTbl()
	for i := 0; i < 50; i++ {
		id, err := tbl.Append(value.Row{value.NewInt(int64(i % 40)), value.NewString(fmt.Sprintf("n%d", i))})
		if err != nil || id != i {
			t.Fatalf("append %d: id %d, %v", i, id, err)
		}
	}
	row, err := tbl.Get(43)
	if err != nil || row[0].Int() != 3 || row[1].String() != "n43" {
		t.Fatalf("get: %v %v", row, err)
	}
}

func TestScan(t *testing.T) {
	tbl := newTbl()
	for i := 0; i < 10; i++ {
		_, _ = tbl.Append(value.Row{value.NewInt(int64(i)), value.NewString("x")})
	}
	n := 0
	tbl.ScanRange(0, tbl.NumRows(), func(id int, row value.Row) bool { n++; return true })
	if n != 10 {
		t.Fatalf("scanned %d", n)
	}
	var ids []int
	tbl.ScanRange(3, 20, func(id int, row value.Row) bool { ids = append(ids, id); return id < 5 })
	if fmt.Sprint(ids) != "[3 4 5]" {
		t.Fatalf("ScanRange visited %v", ids)
	}
}

func TestAppendClonesRow(t *testing.T) {
	tbl := newTbl()
	row := value.Row{value.NewInt(1), value.NewString("a")}
	_, _ = tbl.Append(row)
	row[1] = value.NewString("mutated")
	got, _ := tbl.Get(0)
	if got[1].String() != "a" {
		t.Fatal("table must not alias caller's row")
	}
}

func TestMemSizeGrowsPerRow(t *testing.T) {
	tbl := newTbl()
	_, _ = tbl.Append(value.Row{value.NewInt(1), value.NewString("abcdefgh")})
	one := tbl.MemSize()
	for i := 0; i < 99; i++ {
		_, _ = tbl.Append(value.Row{value.NewInt(int64(i)), value.NewString("abcdefgh")})
	}
	if tbl.MemSize() != 100*one {
		t.Fatalf("row store size must be linear: 1=%d 100=%d", one, tbl.MemSize())
	}
}

func TestArityErrors(t *testing.T) {
	tbl := newTbl()
	if _, err := tbl.Append(value.Row{value.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch append")
	}
	if _, err := tbl.Get(-1); err == nil {
		t.Fatal("negative id")
	}
}
