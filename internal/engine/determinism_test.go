package engine

import (
	"fmt"
	"strings"
	"testing"
)

// With fixed inputs, plan text and catalog listings must be byte-identical
// run after run, never a function of Go's randomized map iteration order.
// These tests are the only guard of that (there is no static check): each
// repeats 50 times — enough iterations that a map-order dependence (which
// reshuffles per range statement) would virtually always surface.

const determinismRuns = 50

// TestFederatedPlanDeterministic runs the planner's full federated
// strategy enumeration (remote ship vs semijoin vs relocation) on the same
// query 50 times and requires the chosen plan text to be stable.
func TestFederatedPlanDeterministic(t *testing.T) {
	e, _ := newFederatedSetup(t)
	q := `SELECT n_name, COUNT(*) FROM nation, V_CUSTOMER
		WHERE n_nationkey = c_nationkey AND n_name = 'BRAZIL' GROUP BY n_name`
	first := exec1(t, e, q)
	if first.Plan == "" {
		t.Fatal("no plan text")
	}
	for i := 1; i < determinismRuns; i++ {
		res := exec1(t, e, q)
		if res.Plan != first.Plan {
			t.Fatalf("plan changed on run %d:\nfirst:\n%s\nnow:\n%s", i, first.Plan, res.Plan)
		}
		if fmt.Sprint(res.Rows) != fmt.Sprint(first.Rows) {
			t.Fatalf("rows changed on run %d: %v vs %v", i, res.Rows, first.Rows)
		}
	}
}

// TestRemoteShipPlanDeterministic does the same for the whole-query
// shipping path, whose remote SQL text is assembled by the fed package.
func TestRemoteShipPlanDeterministic(t *testing.T) {
	e, _ := newFederatedSetup(t)
	q := `SELECT c_name FROM V_CUSTOMER WHERE c_mktsegment = 'HOUSEHOLD'`
	first := exec1(t, e, q)
	if !strings.Contains(first.Plan, "Remote Query [HIVE1]") {
		t.Fatalf("expected remote ship, plan:\n%s", first.Plan)
	}
	for i := 1; i < determinismRuns; i++ {
		if res := exec1(t, e, q); res.Plan != first.Plan {
			t.Fatalf("plan changed on run %d:\nfirst:\n%s\nnow:\n%s", i, first.Plan, res.Plan)
		}
	}
}

// TestSystemListingsDeterministic creates tables in deliberately unsorted
// name order and requires M_TABLES() / M_REMOTE_SOURCES() — without any
// ORDER BY — to return an identical, name-sorted listing on every run.
func TestSystemListingsDeterministic(t *testing.T) {
	e, _ := newFederatedSetup(t)
	for _, ddl := range []string{
		`CREATE TABLE zeta (a BIGINT)`,
		`CREATE TABLE alpha (a BIGINT)`,
		`CREATE TABLE midway (a BIGINT)`,
	} {
		exec1(t, e, ddl)
	}
	firstTables := exec1(t, e, `SELECT table_name, placement, row_count FROM M_TABLES()`)
	var names []string
	for _, r := range firstTables.Rows {
		names = append(names, r[0].String())
	}
	if !isSorted(names) {
		t.Fatalf("M_TABLES not name-sorted: %v", names)
	}
	firstSources := exec1(t, e, `SELECT source_name, adapter, capabilities FROM M_REMOTE_SOURCES()`)
	if len(firstSources.Rows) == 0 {
		t.Fatal("no remote sources listed")
	}
	for i := 1; i < determinismRuns; i++ {
		if res := exec1(t, e, `SELECT table_name, placement, row_count FROM M_TABLES()`); fmt.Sprint(res.Rows) != fmt.Sprint(firstTables.Rows) {
			t.Fatalf("M_TABLES changed on run %d:\n%v\nvs\n%v", i, res.Rows, firstTables.Rows)
		}
		if res := exec1(t, e, `SELECT source_name, adapter, capabilities FROM M_REMOTE_SOURCES()`); fmt.Sprint(res.Rows) != fmt.Sprint(firstSources.Rows) {
			t.Fatalf("M_REMOTE_SOURCES changed on run %d:\n%v\nvs\n%v", i, res.Rows, firstSources.Rows)
		}
	}
}

func isSorted(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i-1] > ss[i] {
			return false
		}
	}
	return true
}
