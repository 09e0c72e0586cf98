package esp

import (
	"testing"
	"time"

	"hana/internal/hdfs"
	"hana/internal/value"
)

func eventSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "cell_id", Kind: value.KindInt},
		value.Column{Name: "event_type", Kind: value.KindVarchar},
		value.Column{Name: "signal", Kind: value.KindDouble},
	)
}

func ev(cell int64, typ string, sig float64) value.Row {
	return value.Row{value.NewInt(cell), value.NewString(typ), value.NewDouble(sig)}
}

func t0() time.Time { return time.Date(2015, 3, 23, 10, 0, 0, 0, time.UTC) }

func TestStreamAndRowWindow(t *testing.T) {
	p := NewProject()
	if _, err := p.CreateInputStream("network_events", eventSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateInputStream("network_events", eventSchema()); err == nil {
		t.Fatal("duplicate stream must error")
	}
	w, err := p.CreateWindow("recent", `SELECT * FROM network_events KEEP 3 ROWS`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Publish("network_events", ev(int64(i), "CALL_START", 50), t0().Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if w.RawCount() != 3 {
		t.Fatalf("row window retained %d", w.RawCount())
	}
	rows, err := w.Rows(t0().Add(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 || rows.Data[0][0].Int() != 2 {
		t.Fatalf("window rows = %v", rows.Data)
	}
}

func TestTimeWindowEviction(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	w, err := p.CreateWindow("last_minute", `SELECT * FROM s KEEP 1 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Publish("s", ev(1, "A", 1), t0())
	_ = p.Publish("s", ev(2, "A", 1), t0().Add(30*time.Second))
	_ = p.Publish("s", ev(3, "A", 1), t0().Add(90*time.Second))
	// Event at t0 is outside [t+30s, t+90s] horizon.
	rows, _ := w.Rows(t0().Add(90 * time.Second))
	if rows.Len() != 2 {
		t.Fatalf("time eviction: %d rows", rows.Len())
	}
	// Reading later evicts more.
	rows, _ = w.Rows(t0().Add(10 * time.Minute))
	if rows.Len() != 0 {
		t.Fatalf("all rows must expire: %d", rows.Len())
	}
}

func TestFilteredWindow(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	w, err := p.CreateWindow("drops", `SELECT cell_id, signal FROM s WHERE event_type = 'CALL_DROP' KEEP 100 ROWS`)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Publish("s", ev(1, "CALL_START", 80), t0())
	_ = p.Publish("s", ev(1, "CALL_DROP", 20), t0())
	_ = p.Publish("s", ev(2, "CALL_DROP", 10), t0())
	if w.RawCount() != 2 {
		t.Fatalf("filter retained %d", w.RawCount())
	}
	rows, _ := w.Rows(t0())
	if rows.Schema.Len() != 2 {
		t.Fatalf("projection schema = %v", rows.Schema)
	}
}

func TestAggregatedWindow(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	w, err := p.CreateWindow("health", `SELECT cell_id, AVG(signal) avg_signal, COUNT(*) n
		FROM s GROUP BY cell_id KEEP 5 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Publish("s", ev(1, "M", 10), t0())
	_ = p.Publish("s", ev(1, "M", 20), t0().Add(time.Second))
	_ = p.Publish("s", ev(2, "M", 50), t0().Add(2*time.Second))
	rows, err := w.Rows(t0().Add(3 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("groups = %v", rows.Data)
	}
	byCell := map[int64]value.Row{}
	for _, r := range rows.Data {
		byCell[r[0].Int()] = r
	}
	if byCell[1][1].Float() != 15 || byCell[1][2].Int() != 2 {
		t.Fatalf("cell 1 agg = %v", byCell[1])
	}
}

func TestPrefilterForwardSink(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	var forwarded []value.Row
	err := p.SubscribeSink("s", `signal < 30`, SinkFunc(func(rows []value.Row, _ *value.Schema) error {
		for _, r := range rows {
			forwarded = append(forwarded, r.Clone())
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Publish("s", ev(1, "M", 80), t0())
	_ = p.Publish("s", ev(2, "M", 10), t0())
	_ = p.Publish("s", ev(3, "M", 25), t0())
	if len(forwarded) != 2 {
		t.Fatalf("forwarded %d", len(forwarded))
	}
}

func TestESPJoinEnrichment(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("gps", value.NewSchema(
		value.Column{Name: "city_id", Kind: value.KindInt},
		value.Column{Name: "speed", Kind: value.KindDouble},
	))
	refSchema := value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "city_name", Kind: value.KindVarchar},
	)
	_ = p.LoadReferenceTable("cities", refSchema, []value.Row{
		{value.NewInt(1), value.NewString("Brussels")},
		{value.NewInt(2), value.NewString("Walldorf")},
	}, "id")
	out, err := p.CreateEnrichedStream("gps_named", "gps", "cities", "city_id")
	if err != nil {
		t.Fatal(err)
	}
	var got []value.Row
	_ = p.SubscribeSink("gps_named", "", SinkFunc(func(rows []value.Row, _ *value.Schema) error {
		for _, r := range rows {
			got = append(got, r.Clone())
		}
		return nil
	}))
	_ = p.Publish("gps", value.Row{value.NewInt(2), value.NewDouble(88)}, t0())
	_ = p.Publish("gps", value.Row{value.NewInt(9), value.NewDouble(10)}, t0()) // no city match
	if len(got) != 1 || got[0][3].String() != "Walldorf" {
		t.Fatalf("enriched = %v", got)
	}
	if out.Schema().Len() != 4 {
		t.Fatal("enriched schema")
	}
}

func TestPatternDetection(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	var fired int
	pat, err := p.CreatePattern("outage", "s", []string{
		`event_type = 'CALL_DROP'`,
		`event_type = 'CALL_DROP'`,
		`event_type = 'CALL_DROP'`,
	}, time.Minute, func(evs []Event) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	// Three drops within a minute → match.
	_ = p.Publish("s", ev(1, "CALL_DROP", 0), t0())
	_ = p.Publish("s", ev(1, "CALL_START", 0), t0().Add(time.Second))
	_ = p.Publish("s", ev(1, "CALL_DROP", 0), t0().Add(2*time.Second))
	_ = p.Publish("s", ev(1, "CALL_DROP", 0), t0().Add(3*time.Second))
	if fired != 1 || pat.MatchCount() != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Drops spread beyond the window do not match.
	fired = 0
	_ = p.Publish("s", ev(2, "CALL_DROP", 0), t0().Add(10*time.Minute))
	_ = p.Publish("s", ev(2, "CALL_DROP", 0), t0().Add(12*time.Minute))
	_ = p.Publish("s", ev(2, "CALL_DROP", 0), t0().Add(14*time.Minute))
	if fired != 0 {
		t.Fatalf("out-of-window pattern fired %d", fired)
	}
}

func TestForwardAggregatedWindow(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	w, _ := p.CreateWindow("agg", `SELECT cell_id, COUNT(*) n FROM s GROUP BY cell_id KEEP 10 ROWS`)
	_ = p.Publish("s", ev(1, "M", 1), t0())
	_ = p.Publish("s", ev(1, "M", 1), t0())
	var got []value.Row
	err := w.Forward(t0(), SinkFunc(func(rows []value.Row, _ *value.Schema) error {
		got = rows
		return nil
	}))
	if err != nil || len(got) != 1 || got[0][1].Int() != 2 {
		t.Fatalf("forward = %v %v", got, err)
	}
}

func TestPublishErrors(t *testing.T) {
	p := NewProject()
	if err := p.Publish("missing", nil, t0()); err == nil {
		t.Fatal("missing stream")
	}
	_, _ = p.CreateInputStream("s", eventSchema())
	if err := p.Publish("s", value.Row{value.NewInt(1)}, t0()); err == nil {
		t.Fatal("arity mismatch")
	}
	if _, err := p.CreateWindow("w", `SELECT * FROM s`); err == nil {
		t.Fatal("KEEP required")
	}
	if _, err := p.CreateWindow("w", `SELECT * FROM nostream KEEP 1 ROWS`); err == nil {
		t.Fatal("unknown source stream")
	}
	if _, err := p.CreateWindow("w", `SELECT cell_id, MAX(nosuch) FROM s GROUP BY cell_id KEEP 1 ROWS`); err == nil {
		t.Fatal("a column the stream lacks must fail at creation")
	}
}

func TestHDFSArchiveSink(t *testing.T) {
	cluster := newTestCluster()
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	sink := NewHDFSArchiveSink(cluster, "/archive/s", 3)
	if err := p.SubscribeSink("s", "", sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		_ = p.Publish("s", ev(int64(i), "M", float64(i)), t0())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.RowsWritten() != 7 {
		t.Fatalf("written = %d", sink.RowsWritten())
	}
	files := cluster.List("/archive/s")
	if len(files) != 3 { // 3 + 3 + 1 rows
		t.Fatalf("part files = %d", len(files))
	}
	data, err := cluster.ReadFile(files[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != "0\tM\t0\n1\tM\t1\n2\tM\t2\n" {
		t.Fatalf("archive content = %q", got)
	}
}

func newTestCluster() *hdfs.Cluster {
	return hdfs.NewCluster(2, hdfs.WithBlockSize(1<<16), hdfs.WithReplication(1))
}

func TestWindowBufferCompaction(t *testing.T) {
	p := NewProject()
	_, _ = p.CreateInputStream("s", eventSchema())
	w, _ := p.CreateWindow("small", `SELECT * FROM s KEEP 10 ROWS`)
	// Stream far more events than the retention; the internal buffer must
	// stay bounded (amortized compaction) and the content correct.
	for i := 0; i < 100000; i++ {
		_ = p.Publish("s", ev(int64(i), "M", 0), t0().Add(time.Duration(i)*time.Millisecond))
	}
	if w.RawCount() != 10 {
		t.Fatalf("retained = %d", w.RawCount())
	}
	if cap(w.buf) > 4096 {
		t.Fatalf("buffer not compacted: cap = %d", cap(w.buf))
	}
	rows, err := w.Rows(t0().Add(200 * time.Second))
	if err != nil || rows.Len() != 10 {
		t.Fatalf("rows = %d %v", rows.Len(), err)
	}
	if rows.Data[0][0].Int() != 99990 {
		t.Fatalf("oldest retained = %v", rows.Data[0][0])
	}
}
