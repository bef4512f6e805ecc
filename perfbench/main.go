// Command perfbench is the repository benchmark. It boots the real
// serving stack in this process — workload generators, client, wire or
// HTTP transport, server (batcher, session registry), admission,
// engine/coord/graph/stream, db, persist and, on one workload, a
// three-node cluster — drives it with two closed-loop clients, each on
// its own connection, checks every output, and prints every metric by
// name and unit.
//
// Usage (from the repository root):
//
//	go -C perfbench build -o ../.bench_build/perfbench/perfbench .
//	.bench_build/perfbench/perfbench --workload batch-bin --seed 1 --seconds 10 --trace 0
//
// or simply python3 perfbench/run.py with the same flags. --trace 0
// prints the end-to-end metrics; --trace 1 runs the workload twice,
// untraced then traced, and prints the per-layer metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Runs have four phases. Setup boots the stack and prefills the
// sessions (repeated several times; setup_s is the median). A warm-up
// pass sends each client's batch pool once and verifies every answer.
// The exact phase runs a fixed prefix of each client's op stream, one
// client after the other, and yields the machine-independent counts
// (DB queries, plan-cache hits, fsyncs, forwards), which repeat bit for
// bit under one seed. The timed phase runs both clients concurrently
// for --seconds and yields the timings. Checks run off the clock.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"entangled/internal/api"
	"entangled/internal/db"
	"entangled/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runBound is the longest a run may take before it counts as wedged.
const runBound = 160 * time.Second

// An untraced run sets the stack up at least setupsPerRun times, and
// keeps setting it up while the setups so far took under setupBudget,
// up to maxSetups; setup_s is the median.
const (
	setupsPerRun = 3
	setupBudget  = 2 * time.Second
	maxSetups    = 15
)

// config is one invocation.
type config struct {
	w           *spec
	seed        int64
	seconds     time.Duration
	setups      int           // least number of setups
	setupBudget time.Duration // set up again while the total is below this
	workdir     string        // scratch directory for durable data
	spans       string        // traced runs write their spans here when set
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := fs.String("workdir", "", "scratch directory for durable data (default: a temporary directory)")
	spans := fs.String("spans", "", "traced runs: write spans as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		setups: setupsPerRun, setupBudget: setupBudget, workdir: dir, spans: *spans}

	// A run that outlives this bound is wedged; fail it rather than hang.
	ctx, cancel := context.WithTimeout(context.Background(), runBound)
	defer cancel()
	var res *result
	if *trace == 0 {
		res, err = runPlain(ctx, cfg)
	} else {
		res, err = runTraced(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d clients=%d nproc=%d GOMAXPROCS=%d go=%s source=%s\n",
		w.name, cfg.seed, cfg.seconds.Seconds(), *trace, numClients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	if res.refused != "" {
		fmt.Fprintf(stderr, "perfbench: %s: refusing to report: %s\n", w.name, res.refused)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out, err := res.json(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	lines             []string
	// refused names an end-to-end figure too thinly sampled to report;
	// the run then prints no result.
	refused string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds a phase's ops and failures to the totals.
func (r *result) count(phases ...phase) {
	for _, ph := range phases {
		r.attempted += ph.ops
		r.failed += ph.failed
		for _, f := range ph.failures {
			r.problem("%s", f)
		}
	}
}

// json renders the contract's last line: every metric of defs, by name
// with its unit.
func (r *result) json(defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, metrics})
}

// measured is one booted stack taken through warm-up, the exact phase
// and a timed phase.
type measured struct {
	warm, exactPh, timed phase
	exact                exactCounts
	mem                  memDelta
}

// drive runs the warm-up, exact and timed phases on a booted stack.
// before and after, when set, bracket the timed phase.
func drive(ctx context.Context, st *stack, d time.Duration, held db.Store, before, after func()) measured {
	var m measured
	m.warm = st.warm(ctx, held)
	m.exactPh, m.exact = st.exact(ctx, held)
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if before != nil {
		before()
	}
	m.timed = st.timed(ctx, d, held)
	if after != nil {
		after()
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	m.mem = memBetween(&m0, &m1, &m2)
	return m
}

// checkEnd runs the end-of-run output checks and the exact-count
// consistency checks shared by both kinds of run.
func checkEnd(ctx context.Context, r *result, st *stack, m measured, held db.Store) {
	r.count(m.warm, m.exactPh, m.timed)
	for _, p := range st.checkSessions(ctx, held) {
		r.problem("%s", p)
	}
	for _, p := range st.checkRecovery(ctx, held) {
		r.problem("%s", p)
	}
	ex := m.exact
	if st.ring != nil && ex.forwards != int64(ex.remoteEvents)+ex.batchForwards {
		r.problem("cluster sent %d forwards in the exact phase, expected %d events + %d batch slices",
			ex.forwards, ex.remoteEvents, ex.batchForwards)
	}
}

// runPlain is an untraced run: the end-to-end metrics.
func runPlain(ctx context.Context, cfg config) (*result, error) {
	r := newResult()
	held := workload.NewStore(1, tableRows, 0)
	var setups []float64
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	// Cheap stacks set up more often, so their median has more samples.
	var spent time.Duration
	for i := 0; i < cfg.setups || (i < maxSetups && spent < cfg.setupBudget); i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing setup %d: %w", i, err)
			}
			os.RemoveAll(st.dir)
		}
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("data-%d", i))
		runtime.GC() // each setup starts from a collected heap
		start := time.Now()
		s, err := boot(ctx, cfg.w, cfg.seed, nil, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
		st = s
	}
	m := drive(ctx, st, cfg.seconds, held, nil, nil)
	checkEnd(ctx, r, st, m, held)

	t := m.timed
	all := distOf(append(append([]int64(nil), t.batchLat...), t.eventLat...))
	if !all.reported {
		r.refused = fmt.Sprintf("p99_us has %d samples beyond it, need %d; run longer", all.beyond99, minBeyond)
	}
	r.set("setup_s", median(setups))
	// About one window per second of the timed phase.
	rates := windowRates(t, max(1, int(t.wall/time.Second)))
	r.set("ops_per_s", midMean(rates))
	r.set("p50_us", all.p50)
	r.set("p99_us", all.p99)
	r.set("dbq_per_op", m.exact.dbqPerOp())
	r.set("allocs_per_op", ratio(float64(m.mem.mallocs), float64(t.ops)))
	r.set("live_heap_mb", float64(m.mem.liveHeap)/(1<<20))

	r.linef("setup: %d setups, median %.4f s, each %v", len(setups), median(setups), fmtSeconds(setups))
	r.linef("timed: %d ops in %.3f s (%d batch calls, %d events), %.1f ops/s, failed %d, fail_ratio %g",
		t.ops, t.wall.Seconds(), t.batchCalls, t.events, float64(t.ops)/t.wall.Seconds(), r.failed, ratio(float64(r.failed), float64(r.attempted)))
	r.lines = append(r.lines, all.line("all ops"))
	r.linef("windows: ops/s in %d equal-count windows %v", len(rates), fmtRates(rates))
	splitLines(r, cfg.w, t)
	exactLine(r, m.exact)
	r.linef("runtime: %.1f allocs/op, live heap %.2f MB", ratio(float64(m.mem.mallocs), float64(t.ops)), float64(m.mem.liveHeap)/(1<<20))
	return r, nil
}

// splitLines reports the timed phase per op type, with sample counts.
func splitLines(r *result, w *spec, t phase) {
	if w.issuesBatches() {
		r.linef("batch: %.1f calls/s, %.1f req/s", float64(t.batchCalls)/t.wall.Seconds(), float64(t.reqs)/t.wall.Seconds())
		r.lines = append(r.lines, distOf(t.batchLat).line("batch calls"))
	}
	if w.issuesEvents() {
		r.linef("events: %.1f events/s", float64(t.events)/t.wall.Seconds())
		r.lines = append(r.lines, distOf(t.eventLat).line("events"))
		if len(t.eventRemoteLat) > 0 {
			r.lines = append(r.lines, distOf(t.eventLocalLat).line("owner-local events"))
			r.lines = append(r.lines, distOf(t.eventRemoteLat).line("forwarded events"))
		}
	}
}

func exactLine(r *result, ex exactCounts) {
	r.linef("exact: %d ops (%d requests, %d events): dbq_per_op %g, dbq_per_req %g, dbq_per_event %g, store queries %d, plan hits %d misses %d, fsyncs %d, forwards %d",
		ex.ops, ex.reqs, ex.events, ex.dbqPerOp(), ratio(float64(ex.batchDBQ), float64(ex.reqs)),
		ratio(float64(ex.eventDBQ), float64(ex.events)), ex.storeQueries, ex.planHits, ex.planMisses, ex.persistSyncs, ex.forwards)
}

// runTraced is a traced run: the workload runs untraced for half of
// --seconds (the baseline for trace.overhead and the source of the
// op-type split and runtime figures), then on a fresh stack with every
// seam wrapped for the other half, then the replay.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	r := newResult()
	held := workload.NewStore(1, tableRows, 0)
	half := cfg.seconds / 2

	stU, err := boot(ctx, cfg.w, cfg.seed, nil, filepath.Join(cfg.workdir, "untraced"))
	if err != nil {
		return nil, fmt.Errorf("untraced setup: %w", err)
	}
	mU := drive(ctx, stU, half, held, nil, nil)
	checkEnd(ctx, r, stU, mU, held)
	if err := stU.close(); err != nil {
		return nil, err
	}

	p := newProbes()
	stT, err := boot(ctx, cfg.w, cfg.seed, p, filepath.Join(cfg.workdir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer stT.close()
	var met0, met1 []api.Metrics
	var probe0, probe1 probeSnap
	var syncs []int64
	var err0, err1 error
	before := func() {
		met0, err0 = stT.scrape()
		probe0 = p.snap()
		p.startSyncSample()
	}
	after := func() {
		syncs = p.takeSyncSample()
		probe1 = p.snap()
		met1, err1 = stT.scrape()
	}
	mT := drive(ctx, stT, half, held, before, after)
	if err := errors.Join(err0, err1); err != nil {
		return nil, err
	}
	rs, err := replay(ctx, stT, p)
	if err != nil {
		return nil, err
	}
	checkEnd(ctx, r, stT, mT, held)
	if cfg.spans != "" {
		if err := p.rec.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	// Traced-run honesty: the wrappers must not change the work done.
	exU, exT := mU.exact, mT.exact
	if err := exU.sameAs(exT); err != nil {
		r.problem("traced exact counts differ from untraced: %v", err)
	}
	if exT.probeQueries != exT.batchDBQ+exT.eventDBQ {
		r.problem("store wrapper counted %d queries, results report %d", exT.probeQueries, exT.batchDBQ+exT.eventDBQ)
	}
	layerMetrics(r, cfg.w, mU, mT, serverBetween(met0, met1), probe1.sub(probe0), syncs, rs)
	r.linef("spans: %d recorded, %d dropped", min(p.rec.n.Load(), maxSpans), p.rec.dropped.Load())
	return r, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midMean is the mean of the middle half of xs (the interquartile
// mean): robust to a few stalled or lucky windows, yet it keeps every
// digit of the measurement.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func fmtRates(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.0f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sourceID names the source the benchmark was built from: the git
// commit when run in a git checkout, else a hash of the Go sources.
func sourceID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", rest)); err == nil {
				return "git:" + strings.TrimSpace(string(id))
			}
			return "git:" + rest
		}
		return "git:" + ref
	}
	return treeHash(".")
}
