package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// exactMetrics are the machine-independent counts that must repeat bit
// for bit under one seed.
var exactMetrics = []string{
	"dbq_per_req", "dbq_per_event", "db.queries_per_op", "db.plan_hit_rate",
	"persist.syncs_per_event", "cluster.forwards_per_event",
}

func smallConfig(t *testing.T, w *spec, seed int64) config {
	return config{w: w.small(), seed: seed, seconds: 300 * time.Millisecond, setups: 1, workdir: t.TempDir()}
}

// passing returns a checker for a run's outcome: no error, no failed op,
// no failed check.
func passing(t *testing.T) func(*result, error) *result {
	return func(r *result, err error) *result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || len(r.problems) != 0 {
			t.Fatalf("%d of %d ops failed; problems: %v", r.failed, r.attempted, r.problems)
		}
		return r
	}
}

// TestExactCountsRepeat runs every workload at small size: two traced
// runs under one seed give identical exact counts (and the traced run
// itself checks them against its untraced half), two untraced runs
// give the same dbq_per_op, and a second seed passes every check.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, pass := t.Context(), passing(t)
			a := pass(runTraced(ctx, smallConfig(t, w, 1)))
			b := pass(runTraced(ctx, smallConfig(t, w, 1)))
			for _, name := range exactMetrics {
				if a.values[name] != b.values[name] {
					t.Errorf("%s: %v then %v under one seed", name, a.values[name], b.values[name])
				}
			}
			if w.issuesBatches() && a.values["dbq_per_req"] == 0 {
				t.Error("dbq_per_req is 0 on a batch workload")
			}
			if w.issuesEvents() && a.values["dbq_per_event"] == 0 {
				t.Error("dbq_per_event is 0 on a session workload")
			}
			if w.nodes > 1 && a.values["cluster.forwards_per_event"] != 1 {
				t.Errorf("cluster.forwards_per_event = %v, want exactly 1", a.values["cluster.forwards_per_event"])
			}
			p1 := pass(runPlain(ctx, smallConfig(t, w, 1)))
			p2 := pass(runPlain(ctx, smallConfig(t, w, 1)))
			if p1.values["dbq_per_op"] != p2.values["dbq_per_op"] {
				t.Errorf("dbq_per_op: %v then %v under one seed", p1.values["dbq_per_op"], p2.values["dbq_per_op"])
			}
			pass(runPlain(ctx, smallConfig(t, w, 2)))
		})
	}
}

// TestChainGenHoldsSize checks the session event generator keeps the
// session at its prefilled size and never departs a query twice.
func TestChainGenHoldsSize(t *testing.T) {
	g := newChainGen(rngFor(1, 0, 1), 0, 8, 16)
	live := map[string]bool{}
	for _, q := range g.prefill(16) {
		live[q.ID] = true
	}
	for i := 0; i < 4000; i++ {
		ev := g.next()
		if ev.kind == joinEvent {
			if live[ev.query.ID] {
				t.Fatalf("event %d joins live query %s", i, ev.query.ID)
			}
			live[ev.query.ID] = true
		} else {
			if !live[ev.id] {
				t.Fatalf("event %d departs absent query %s", i, ev.id)
			}
			delete(live, ev.id)
		}
		if d := len(live) - 8*16; d < -1 || d > 1 {
			t.Fatalf("event %d: %d live queries, want 128±1", i, len(live))
		}
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and predictions.json in
// step with the workloads and metrics this program defines.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d defined", len(bf.EndToEnd), len(endToEnd))
	}
	bounds := map[string]float64{}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		bounds[m.Name] = m.Bound
	}
	for name, b := range bounds {
		if b > bounds["setup_s"] {
			t.Errorf("setup_s must have the largest bound; %s has %v > %v", name, b, bounds["setup_s"])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d defined", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	checkPredictions(t)
}

// checkPredictions checks that every layer-to-end-to-end prediction
// names a defined metric and workload.
func checkPredictions(t *testing.T) {
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var preds []struct {
		Layer    string   `json:"layer"`
		Metrics  []string `json:"metrics"`
		NoChange []string `json:"no_change"`
		Moves    []struct {
			Workload string `json:"workload"`
			EndToEnd string `json:"end_to_end"`
			Split    string `json:"split"`
		} `json:"moves"`
	}
	if err := json.Unmarshal(data, &preds); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	isWorkload := func(n string) bool { _, ok := workloadByName(n); return ok }
	covered := map[string]bool{}
	for _, p := range preds {
		for _, m := range p.Metrics {
			if !known[m] {
				t.Errorf("%s: unknown metric %s", p.Layer, m)
			}
			covered[m] = true
		}
		for _, w := range p.NoChange {
			if !isWorkload(w) {
				t.Errorf("%s: unknown workload %s", p.Layer, w)
			}
		}
		for _, mv := range p.Moves {
			if !isWorkload(mv.Workload) || !known[mv.EndToEnd] || (mv.Split != "" && !known[mv.Split]) {
				t.Errorf("%s: bad prediction %+v", p.Layer, mv)
			}
		}
	}
	for _, d := range perLayer {
		if !covered[d.name] {
			t.Errorf("per-layer metric %s has no prediction entry", d.name)
		}
	}
}
