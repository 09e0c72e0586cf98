package diskstore

import (
	"fmt"
	"sync"
	"testing"

	"hana/internal/value"
)

// TestConcurrentCacheAccess hammers the shared chunk cache from mixed
// get/put/dropTable goroutines. Under `go test -race` this guards the LRU
// list and index map, which every concurrent scan goes through.
func TestConcurrentCacheAccess(t *testing.T) {
	c := newChunkCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			table := fmt.Sprintf("T%d", g%2)
			for i := 0; i < 500; i++ {
				key := cacheKey{table, i % 8, g % 3}
				switch i % 5 {
				case 0:
					c.put(key, &value.Vec{Kind: value.KindInt, Ints: []int64{int64(i)}})
				case 4:
					c.dropTable(table)
				default:
					if v, ok := c.get(key); ok && len(v.Ints) == 0 {
						t.Error("cache returned empty chunk")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentAppendAndScan appends from two goroutines while two more
// scan and one polls NumRows — the reader/writer interleaving the table's
// RWMutex must make safe.
func TestConcurrentAppendAndScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Seed enough rows that scans touch flushed chunks as well.
	var seed []value.Row
	for i := 0; i < 2000; i++ {
		seed = append(seed, mkRow(i))
	}
	if err := tbl.BulkLoad(seed); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				err := tbl.Scan(nil, nil, func(int64, value.Row) bool {
					n++
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				if n < 2000 {
					t.Errorf("scan saw %d rows, want >= 2000", n)
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if tbl.NumRows() < 2000 {
					t.Error("row count went backwards")
					return
				}
			}
		}
	}()

	var writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 250; i++ {
				if err := tbl.Append(mkRow(10000 + g*1000 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := tbl.NumRows(); got != 2500 {
		t.Fatalf("rows = %d, want 2500", got)
	}
}
