package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
)

// opTimeout bounds one client call, so a wedged stack fails the run
// instead of hanging it.
const opTimeout = 20 * time.Second

// clientState is one closed-loop client: its connection and its inputs.
type clientState struct {
	id         int
	c          *client.Client
	httpClient *http.Client // nil on the binary protocol
	pool       []*batchCall
	poolAt     int
	sess       []*sessState
	sessAt     int
	ops        int           // ops issued, which drives the batch/event interleave
	events     []loggedEvent // acknowledged events kept for the replay

	// Filled by the op the client is running; read between phases.
	tally tally
}

// sessState is one session a client owns, with the live set its acks
// imply.
type sessState struct {
	name   string
	h      *client.Session
	gen    *chainGen
	live   map[string]bool
	remote bool // owned by a node other than the entry node
}

// wantResult is the checked outcome of one batch request.
type wantResult struct {
	res *coord.Result // nil when no coordinating set exists
}

func (w *wantResult) dbq() int64 {
	if w == nil || w.res == nil {
		return 0
	}
	return w.res.DBQueries
}

// verified reports whether every request of the call has a checked
// answer.
func (c *batchCall) verified() bool {
	if len(c.want) != len(c.reqs) {
		return false
	}
	for _, w := range c.want {
		if w == nil {
			return false
		}
	}
	return true
}

// tally is what one client observed in one phase.
type tally struct {
	ops, failed        int
	batchCalls, reqs   int
	events             int
	remoteEvents       int
	batchDBQ, eventDBQ int64
	remoteSlices       int
	// Event costs reported by the server (Update.Stats, ElapsedNS).
	elapsedNS                         int64
	dirty, reused, components         int64
	batchLat, eventLat, eventLocalLat []int64
	eventRemoteLat                    []int64
	latNS                             int64   // sum over every op
	ends                              []int64 // completion times, unix ns
	failures                          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds o into t.
func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.batchCalls += o.batchCalls
	t.reqs += o.reqs
	t.events += o.events
	t.remoteEvents += o.remoteEvents
	t.batchDBQ += o.batchDBQ
	t.eventDBQ += o.eventDBQ
	t.remoteSlices += o.remoteSlices
	t.elapsedNS += o.elapsedNS
	t.dirty += o.dirty
	t.reused += o.reused
	t.components += o.components
	t.batchLat = append(t.batchLat, o.batchLat...)
	t.eventLat = append(t.eventLat, o.eventLat...)
	t.eventLocalLat = append(t.eventLocalLat, o.eventLocalLat...)
	t.eventRemoteLat = append(t.eventRemoteLat, o.eventRemoteLat...)
	t.latNS += o.latNS
	t.ends = append(t.ends, o.ends...)
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

// nextIsBatch reports whether the client's next op is a batch call.
func (cs *clientState) nextIsBatch(w *spec) bool {
	switch {
	case !w.issuesEvents():
		return true
	case !w.issuesBatches():
		return false
	}
	return cs.ops%(w.eventsPerBatch+1) == w.eventsPerBatch
}

// step runs the client's next op, timing only the call; the output
// check runs after the clock stops. held is the benchmark's own copy of
// the store, against which first-seen results are verified.
func (cs *clientState) step(ctx context.Context, w *spec, held db.Store, p *probes) {
	batch := cs.nextIsBatch(w)
	cs.ops++
	cs.tally.ops++
	if batch {
		call := cs.pool[cs.poolAt%len(cs.pool)]
		cs.poolAt++
		cs.runBatch(ctx, call, held, p)
		return
	}
	ss := cs.sess[cs.sessAt%len(cs.sess)]
	cs.sessAt++
	cs.runEvent(ctx, ss, ss.gen.next(), p)
}

func (cs *clientState) runBatch(ctx context.Context, call *batchCall, held db.Store, p *probes) {
	t := &cs.tally
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	start := time.Now()
	resps, err := cs.c.CoordinateBatch(cctx, call.reqs)
	end := time.Now()
	cancel()
	lat := end.Sub(start).Nanoseconds()
	if p != nil {
		p.rec.record(p.rec.ids.Add(1), 0, "client.batch", start, end)
	}
	t.batchCalls++
	t.reqs += len(call.reqs)
	t.remoteSlices += call.remoteSlices
	t.batchLat = append(t.batchLat, lat)
	t.latNS += lat
	t.ends = append(t.ends, end.UnixNano())
	if err != nil {
		t.fail("batch call: %v", err)
		return
	}
	if call.want == nil {
		call.want = make([]*wantResult, len(call.reqs))
	}
	for i, r := range resps {
		if r.Err != nil {
			t.fail("request %s: %v", call.reqs[i].ID, r.Err)
			continue
		}
		if r.Result != nil {
			t.batchDBQ += r.Result.DBQueries
		}
		want := call.want[i]
		if want == nil {
			if err := checkFirst(call.reqs[i].Queries, r.Result, held); err != nil {
				t.fail("request %s: %v", call.reqs[i].ID, err)
				continue
			}
			call.want[i] = &wantResult{res: r.Result}
			continue
		}
		if !reflect.DeepEqual(r.Result, want.res) {
			t.fail("request %s: result differs from its first, verified answer", call.reqs[i].ID)
		}
	}
}

// checkFirst verifies a request's first answer: it must pick the same
// coordinating set as a local SCCCoordinate over the benchmark's own
// store copy, and its witness must satisfy Definition 1 (coord.Verify).
func checkFirst(qs []eq.Query, got *coord.Result, held db.Store) error {
	want, err := coord.SCCCoordinate(qs, held, coord.Options{})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if (got == nil) != (want == nil) {
		return fmt.Errorf("result presence %v, reference %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if !reflect.DeepEqual(got.Set, want.Set) {
		return fmt.Errorf("coordinating set %v, reference %v", got.Set, want.Set)
	}
	if err := coord.Verify(qs, got.Set, got.Values, held); err != nil {
		return fmt.Errorf("witness fails Definition 1: %w", err)
	}
	return nil
}

func (cs *clientState) runEvent(ctx context.Context, ss *sessState, ev event, p *probes) {
	t := &cs.tally
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	start := time.Now()
	var up api.Update
	var err error
	name := "client.join"
	if ev.kind == joinEvent {
		up, err = ss.h.Join(cctx, ev.query)
	} else {
		name = "client.leave"
		up, err = ss.h.Leave(cctx, ev.id)
	}
	end := time.Now()
	cancel()
	lat := end.Sub(start).Nanoseconds()
	if p != nil {
		p.rec.record(p.rec.ids.Add(1), 0, name, start, end)
	}
	t.events++
	t.eventLat = append(t.eventLat, lat)
	t.latNS += lat
	t.ends = append(t.ends, end.UnixNano())
	if ss.remote {
		t.remoteEvents++
		t.eventRemoteLat = append(t.eventRemoteLat, lat)
	} else {
		t.eventLocalLat = append(t.eventLocalLat, lat)
	}
	id := ev.id
	if ev.kind == joinEvent {
		id = ev.query.ID
	}
	switch {
	case err != nil:
		t.fail("%s %s on %s: %v", name, id, ss.name, err)
		return
	case up.Error != nil:
		t.fail("%s %s on %s: %s", name, id, ss.name, up.Error.Message)
		return
	case !up.Admitted || up.Parked:
		t.fail("%s %s on %s: not admitted", name, id, ss.name)
		return
	}
	if ev.kind == joinEvent {
		ss.live[id] = true
	} else {
		delete(ss.live, id)
	}
	if len(cs.events) < maxLoggedEvents {
		cs.events = append(cs.events, loggedEvent{session: ss.name, ev: ev, up: up})
	}
	t.eventDBQ += up.Stats.DBQueries
	t.elapsedNS += up.ElapsedNS
	t.dirty += int64(up.Stats.Dirty)
	t.reused += int64(up.Stats.Reused)
	t.components += int64(up.Stats.Components)
}

// phase collects one phase's tallies and wall time.
type phase struct {
	tally
	start time.Time
	wall  time.Duration
}

// warm runs each client's batch pool once, one client after the other:
// it fills the plan cache and records every request's verified answer.
func (st *stack) warm(ctx context.Context, held db.Store) phase {
	var ph phase
	start := time.Now()
	for _, cs := range st.clients {
		cs.tally = tally{}
		for _, call := range cs.pool {
			cs.tally.ops++
			cs.runBatch(ctx, call, held, nil)
		}
		ph.merge(&cs.tally)
	}
	ph.wall = time.Since(start)
	return ph
}

// exactCounts are the machine-independent counts of the exact phase.
// Under one seed they repeat bit for bit.
type exactCounts struct {
	ops, reqs, events, remoteEvents int
	batchDBQ, eventDBQ              int64
	storeQueries                    int64 // the stores' own counters
	probeQueries                    int64 // the store wrapper (traced runs)
	planHits, planMisses            int64
	persistSyncs                    int64 // backend counters
	probeSyncs                      int64 // the FS wrapper (traced runs)
	forwards, batchForwards         int64
}

func (c exactCounts) dbqPerOp() float64 {
	return ratio(float64(c.batchDBQ+c.eventDBQ), float64(c.ops))
}

// planHitRate is the plan-cache hit share over the phase's lookups.
func (c exactCounts) planHitRate() float64 {
	return ratio(float64(c.planHits), float64(c.planHits+c.planMisses))
}

// sameAs reports whether two runs' exact counts agree on everything
// both measured (the wrapper counts exist only on traced runs).
func (c exactCounts) sameAs(o exactCounts) error {
	type pair struct {
		name string
		a, b int64
	}
	for _, p := range []pair{
		{"ops", int64(c.ops), int64(o.ops)},
		{"batch dbq", c.batchDBQ, o.batchDBQ},
		{"event dbq", c.eventDBQ, o.eventDBQ},
		{"store queries", c.storeQueries, o.storeQueries},
		{"plan hits", c.planHits, o.planHits},
		{"plan misses", c.planMisses, o.planMisses},
		{"persist syncs", c.persistSyncs, o.persistSyncs},
		{"forwards", c.forwards, o.forwards},
	} {
		if p.a != p.b {
			return fmt.Errorf("%s: %d vs %d", p.name, p.a, p.b)
		}
	}
	return nil
}

// exact runs the exact-count phase: each client in turn runs a fixed
// prefix of its op stream (one pass over its batch pool for batch-only
// workloads). Clients take turns so that no two requests race to
// compile the same plan, which keeps the plan-cache counts exact.
func (st *stack) exact(ctx context.Context, held db.Store) (phase, exactCounts) {
	var ph phase
	var probe0 probeSnap
	if st.p != nil {
		probe0 = st.p.snap()
	}
	plan0, q0, s0, f0 := st.planStats(), st.storeQueries(), st.persistSyncs(), st.forwardsSent()
	start := time.Now()
	for _, cs := range st.clients {
		cs.tally = tally{}
		n := st.w.exactOps
		if n == 0 {
			n = len(cs.pool)
		}
		for i := 0; i < n; i++ {
			cs.step(ctx, st.w, held, nil)
		}
		ph.merge(&cs.tally)
	}
	ph.wall = time.Since(start)
	plan1 := st.planStats()
	c := exactCounts{
		ops: ph.ops, reqs: ph.reqs, events: ph.events, remoteEvents: ph.remoteEvents,
		batchDBQ: ph.batchDBQ, eventDBQ: ph.eventDBQ,
		storeQueries: st.storeQueries() - q0,
		planHits:     plan1.Hits - plan0.Hits, planMisses: plan1.Misses - plan0.Misses,
		persistSyncs:  st.persistSyncs() - s0,
		forwards:      st.forwardsSent() - f0,
		batchForwards: int64(ph.remoteSlices),
	}
	if st.p != nil {
		d := st.p.snap().sub(probe0)
		c.probeQueries, c.probeSyncs = d.db.calls, d.fsSync.calls
	}
	return ph, c
}

// timed runs both clients concurrently in a closed loop for d. Each
// client sends its next op as soon as the previous reply is checked.
func (st *stack) timed(ctx context.Context, d time.Duration, held db.Store) phase {
	var ph phase
	for _, cs := range st.clients {
		cs.tally = tally{}
	}
	start := time.Now()
	ph.start = start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cs := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				cs.step(ctx, st.w, held, st.p)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for _, cs := range st.clients {
		ph.merge(&cs.tally)
	}
	return ph
}

// checkSessions compares every quiesced session with the benchmark's
// expectation: its live queries are exactly those the acks imply, and
// its coordination state equals a batch SCCCoordinate over them on the
// benchmark's own store copy, witness verified.
func (st *stack) checkSessions(ctx context.Context, held db.Store) []string {
	var bad []string
	for _, cs := range st.clients {
		for _, ss := range cs.sess {
			status, err := ss.h.Status(ctx, false)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: status: %v", ss.name, err))
				continue
			}
			if err := checkSessionState(status, ss.live, held); err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", ss.name, err))
			}
		}
	}
	return bad
}

func checkSessionState(status *api.SessionStatus, live map[string]bool, held db.Store) error {
	got := make([]string, 0, len(status.Queries))
	for _, q := range status.Queries {
		got = append(got, q.ID)
	}
	want := make([]string, 0, len(live))
	for id := range live {
		want = append(want, id)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%d live queries, %d acked", len(got), len(want))
	}
	ref, err := coord.SCCCoordinate(status.Queries, held, coord.Options{})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if (status.Result == nil) != (ref == nil) {
		return fmt.Errorf("result presence %v, batch %v", status.Result != nil, ref != nil)
	}
	if ref == nil {
		return nil
	}
	if !reflect.DeepEqual(status.Result.Set, ref.Set) || !reflect.DeepEqual(status.Result.Values, ref.Values) {
		return errors.New("quiesced state differs from batch SCCCoordinate")
	}
	return coord.Verify(status.Queries, status.Result.Set, status.Result.Values, held)
}

// checkRecovery closes the durable stack and reopens its data directory
// in a fresh server, confirming that every acked event is present in
// the recovered sessions.
func (st *stack) checkRecovery(ctx context.Context, held db.Store) []string {
	if !st.w.durable {
		return nil
	}
	if err := st.close(); err != nil {
		return []string{fmt.Sprintf("closing durable stack: %v", err)}
	}
	b, err := reopenDurable(st.dir, nil)
	if err != nil {
		return []string{err.Error()}
	}
	defer b.Close()
	srv, err := server.New(engine.New(b, engine.Options{}), server.Options{Persist: b, ProbeInterval: -1})
	if err != nil {
		return []string{fmt.Sprintf("recovering sessions: %v", err)}
	}
	defer srv.Close()
	var bad []string
	for _, cs := range st.clients {
		for _, ss := range cs.sess {
			status, err := localStatus(srv, ss.name)
			if err != nil {
				bad = append(bad, fmt.Sprintf("recovered %s: %v", ss.name, err))
				continue
			}
			if err := checkSessionState(status, ss.live, held); err != nil {
				bad = append(bad, fmt.Sprintf("recovered %s: %v", ss.name, err))
			}
		}
	}
	return bad
}
