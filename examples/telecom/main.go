// Telecom: the complex event processing scenario of Figure 8. A mobile
// network emits call events at high volume; the ESP pre-filters and
// pre-aggregates them, forwards aggregates into HANA (time-series style),
// archives the raw feed to HDFS for offline map-reduce analysis, detects
// outage patterns for immediate alerting, and lets a HANA query join the
// live window state (the three §3.2 integration patterns end to end).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"hana/internal/engine"
	"hana/internal/esp"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/obs"
	"hana/internal/timeseries"
	"hana/internal/value"
)

func main() {
	dir, err := os.MkdirTemp("", "hana-telecom-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- components of figure 8 ---
	db := engine.New(engine.Config{ExtendedStorageDir: dir})
	project := esp.NewProject()
	cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(64<<10), hdfs.WithReplication(2))
	mr := mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 8, ReduceSlots: 4})

	must := func(sql string) *engine.Result {
		res, err := db.ExecuteContext(context.Background(), sql)
		if err != nil {
			log.Fatalf("%s -> %v", sql, err)
		}
		return res
	}
	must(`CREATE TABLE network_health (cell_id BIGINT, avg_signal DOUBLE, drops BIGINT)`)
	must(`CREATE TABLE alerts (cell_id BIGINT, message VARCHAR(100))`)

	// Raw event stream from the network sensors.
	eventSchema := value.NewSchema(
		value.Column{Name: "cell_id", Kind: value.KindInt},
		value.Column{Name: "event_type", Kind: value.KindVarchar},
		value.Column{Name: "signal", Kind: value.KindDouble},
	)
	if _, err := project.CreateInputStream("network_events", eventSchema); err != nil {
		log.Fatal(err)
	}

	// Continuous query: per-cell health over a 5-minute window.
	health, err := project.CreateWindow("cell_health", `
		SELECT cell_id, AVG(signal) avg_signal,
		       SUM(CASE WHEN event_type = 'CALL_DROP' THEN 1 ELSE 0 END) drops
		FROM network_events GROUP BY cell_id KEEP 5 MINUTES`)
	if err != nil {
		log.Fatal(err)
	}

	// Integration 1 (forward): raw events are archived to HDFS through the
	// dedicated adapter ("the raw data may be pushed into an existing HDFS
	// using a dedicated adapter").
	archive := esp.NewHDFSArchiveSink(cluster, "/archive/network", 2000)
	if err := project.SubscribeSink("network_events", "", archive); err != nil {
		log.Fatal(err)
	}

	// Pattern: three dropped calls within a minute → immediate alert.
	if _, err := project.CreatePattern("outage", "network_events", []string{
		"event_type = 'CALL_DROP'", "event_type = 'CALL_DROP'", "event_type = 'CALL_DROP'",
	}, time.Minute, func(evs []esp.Event) {
		cell := evs[0].Row[0].Int()
		_, _ = db.ExecuteContext(context.Background(), fmt.Sprintf(
			`INSERT INTO alerts VALUES (%d, 'outage pattern: 3 dropped calls within 1 minute')`, cell))
	}); err != nil {
		log.Fatal(err)
	}

	// Integration 3 (HANA join): expose the live window as a table function.
	if err := db.RegisterView(obs.ViewDef{
		Name: "CELL_HEALTH_WINDOW",
		Columns: []value.Column{
			{Name: "cell_id", Kind: value.KindDouble, Nullable: true},
			{Name: "avg_signal", Kind: value.KindDouble, Nullable: true},
			{Name: "drops", Kind: value.KindDouble, Nullable: true},
		},
		Fill: func(out *value.Rows) error {
			rows, err := health.Rows(time.Now())
			if err != nil {
				return err
			}
			out.Data = append(out.Data, rows.Data...)
			return nil
		},
	}); err != nil {
		log.Fatal(err)
	}

	// --- drive the network ---
	fmt.Println("publishing 5000 network events...")
	rng := rand.New(rand.NewSource(8))
	now := time.Now()
	for i := 0; i < 5000; i++ {
		cell := int64(rng.Intn(8))
		typ := "CALL_START"
		sig := 60 + rng.Float64()*40
		if cell == 3 && rng.Float64() < 0.4 {
			typ = "CALL_DROP" // cell 3 is failing
			sig = 10 + rng.Float64()*20
		} else if rng.Float64() < 0.02 {
			typ = "CALL_DROP"
		}
		ev := value.Row{value.NewInt(cell), value.NewString(typ), value.NewDouble(sig)}
		if err := project.Publish("network_events", ev, now.Add(time.Duration(i)*50*time.Millisecond)); err != nil {
			log.Fatal(err)
		}
	}

	// Forward the aggregated window into HANA (integration 1, aggregated).
	if err := health.Forward(now.Add(5*time.Minute), esp.SinkFunc(
		func(rows []value.Row, _ *value.Schema) error {
			for _, r := range rows {
				_, err := db.ExecuteContext(context.Background(), fmt.Sprintf(`INSERT INTO network_health VALUES (%d, %f, %d)`,
					r[0].Int(), r[1].Float(), r[2].Int()))
				if err != nil {
					return err
				}
			}
			return nil
		})); err != nil {
		log.Fatal(err)
	}

	res := must(`SELECT cell_id, avg_signal, drops FROM network_health ORDER BY drops DESC LIMIT 3`)
	fmt.Println("\nworst cells (forwarded window aggregates in HANA):")
	for _, r := range res.Rows {
		fmt.Printf("  cell %d: avg signal %.1f, %d drops\n", r[0].Int(), r[1].Float(), r[2].Int())
	}

	res = must(`SELECT COUNT(*) FROM alerts WHERE cell_id = 3`)
	fmt.Printf("\nimmediate alerts for failing cell 3: %d\n", res.Rows[0][0].Int())

	// HANA join: relational query over the live window state.
	res = must(`SELECT w.cell_id, w.drops FROM CELL_HEALTH_WINDOW() w WHERE w.drops > 50`)
	fmt.Printf("cells over drop threshold via HANA join on the live window: %d\n", len(res.Rows))

	// --- offline: archive → HDFS → map-reduce analysis ---
	if err := archive.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nraw archive pushed to HDFS (%d rows over %d part files, %d datanodes)\n",
		archive.RowsWritten(), len(cluster.List("/archive/network")), cluster.NumNodes())

	job := &mapreduce.Job{
		Name:   "drop-rate-by-cell",
		Inputs: []string{"/archive/network"},
		Output: "/analytics/drop-rate",
		Map: func(_, line string, emit func(k, v string)) error {
			f := strings.Split(line, "\t")
			if len(f) == 3 {
				drop := "0"
				if f[1] == "CALL_DROP" {
					drop = "1"
				}
				emit(f[0], drop)
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			total, drops := 0, 0
			for _, v := range values {
				total++
				if v == "1" {
					drops++
				}
			}
			emit(key, fmt.Sprintf("%.3f", float64(drops)/float64(total)))
			return nil
		},
		NumReducers: 2,
	}
	if _, err := mr.RunCtx(context.Background(), job); err != nil {
		log.Fatal(err)
	}
	fmt.Println("offline map-reduce drop rates per cell:")
	out, err := hive.ReadText(cluster, "/analytics/drop-rate", value.NewSchema(
		value.Column{Name: "cell", Kind: value.KindInt},
		value.Column{Name: "rate", Kind: value.KindDouble},
	))
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for _, r := range out.Data {
		if r[1].Float() > worst {
			worst = r[1].Float()
		}
		fmt.Printf("  cell %d: %.1f%% drops\n", r[0].Int(), 100*r[1].Float())
	}

	// Correlate two cells' signal over time (time-series analysis of §3.2:
	// "perform correlation analysis between different sensors").
	a := timeseries.New(now, time.Second, timeseries.CompensateLinear)
	b := timeseries.New(now, time.Second, timeseries.CompensateLinear)
	for i := 0; i < 600; i++ {
		base := 70 + 10*rand.New(rand.NewSource(int64(i))).Float64()
		a.Append(base)
		b.Append(base - 5)
	}
	corr, _ := timeseries.Correlate(a, b)
	fmt.Printf("\nsignal correlation between neighboring antennas: %.3f\n", corr)
}
