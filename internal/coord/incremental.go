package coord

import (
	"errors"
	"fmt"
	"strconv"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// ErrUnsafeArrival is returned by Incremental.Add when admitting the
// query would make the session's set unsafe (some postcondition would
// unify with more than one head, Definition 2). The set is left
// unchanged; the caller can reject the arrival or park it and retry
// after a departure clears the conflict.
var ErrUnsafeArrival = errors.New("coord: arrival would make the query set unsafe")

// ErrNoQuery is returned by Incremental.Remove for a slot that holds no
// live query.
var ErrNoQuery = errors.New("coord: no live query in slot")

// DeltaStats reports what one incremental event (arrival or departure)
// cost: how much of the condensation DAG was dirty — re-unified and
// re-grounded — versus spliced from the previous pass's cache, and the
// exact number of database queries the event issued (counted on a
// private db.Meter, like every other coord entry point).
// The JSON tags define the canonical wire encoding used by the HTTP
// service layer (internal/api).
type DeltaStats struct {
	// Slot is the slot the event touched.
	Slot int `json:"slot"`
	// Components is the number of strongly connected components of the
	// live, unpruned set after the event.
	Components int `json:"components"`
	// Dirty counts components whose reachable set changed, so their MGU
	// and grounding had to be recomputed (one database query each, when
	// unification succeeds).
	Dirty int `json:"dirty"`
	// Reused counts components spliced from the previous pass: their
	// reachable set is untouched, so the cached outcome — witness,
	// binding, or failure — is still exact.
	Reused int `json:"reused"`
	// DBQueries is the exact number of conjunctive queries this event
	// issued: one body-satisfiability probe on an arrival plus one
	// grounding query per dirty component that unified.
	DBQueries int64 `json:"db_queries"`
}

// Incremental is the resumable state of the SCC Coordination Algorithm
// over a query set that changes one query at a time. It is the core of
// the streaming sessions in internal/stream: Add and Remove maintain
// the extended coordination graph incrementally (edges only ever appear
// or disappear with their endpoint queries), re-prune from cached
// per-query body-satisfiability, recondense — pure graph work, no
// database traffic — and then re-solve only the components whose
// reachable set changed, splicing cached witnesses for everything else.
//
// Queries live in slots: Add assigns the next slot, Remove tombstones
// one. Slots are never reused, so a query's alpha-renaming prefix is
// stable for the life of the session and cached substitutions never go
// stale. A quiesced Incremental reports exactly what a batch
// SCCCoordinate over its live queries (in slot order) would: same
// team, same trace, same witness values.
//
// Incremental is not safe for concurrent use; stream.Session adds the
// locking.
type Incremental struct {
	store db.Store
	opts  Options

	g       *IncrementalGraph
	queries []eq.Query // by slot
	renamed []eq.Query // by slot, prefix q<slot>.
	bodySat []bool     // by slot: cached body-satisfiability probe
	// Liveness lives in g (IncrementalGraph.Live): one bitmap, no
	// lockstep copy to desynchronize.

	cache map[string]*compOutcome // reachable-set signature -> outcome

	// State of the last reconcile pass.
	trace Trace
	cands []Candidate
	last  DeltaStats
	total int64 // lifetime database queries
}

// NewIncremental returns an empty resumable coordinator over store.
// opts.Select chooses among candidates in Result; SkipPruning and
// SkipSafetyCheck have their batch meanings (SkipSafetyCheck disables
// the Add-time admission check); Trace and Parallelism are ignored —
// the trace is always kept and available from Trace(), and an event
// re-solves only its dirty region, one component at a time.
func NewIncremental(store db.Store, opts Options) *Incremental {
	return &Incremental{
		store: store,
		opts:  opts,
		g:     NewIncrementalGraph(),
		cache: map[string]*compOutcome{},
	}
}

// Len returns the number of live queries.
func (inc *Incremental) Len() int {
	n := 0
	for i := range inc.queries {
		if inc.g.Live(i) {
			n++
		}
	}
	return n
}

// LiveSlots returns the live slots in ascending order.
func (inc *Incremental) LiveSlots() []int {
	var out []int
	for i := range inc.queries {
		if inc.g.Live(i) {
			out = append(out, i)
		}
	}
	return out
}

// LiveQueries returns the live queries in slot order — the set a batch
// run would be given to reproduce this state.
func (inc *Incremental) LiveQueries() []eq.Query {
	var out []eq.Query
	for i, q := range inc.queries {
		if inc.g.Live(i) {
			out = append(out, q)
		}
	}
	return out
}

// Query returns the query in a slot (live or not). It panics on a slot
// never assigned.
func (inc *Incremental) Query(slot int) eq.Query { return inc.queries[slot] }

// Add admits one arriving query: it extends the extended graph with the
// newcomer's incident edges, probes the newcomer's body satisfiability
// (the §6.1 pruning input — one database query, cached for the life of
// the slot), and re-coordinates the dirty region. It returns the
// assigned slot and the event's cost.
//
// When the arrival would make the set unsafe the set is left untouched
// and ErrUnsafeArrival is returned (unless opts.SkipSafetyCheck trusts
// the caller). Safety is checked on the delta only: the incremental
// fanout counters make it O(newcomer's edges), not O(n²).
func (inc *Incremental) Add(q eq.Query) (int, DeltaStats, error) {
	var slot int
	if inc.opts.SkipSafetyCheck {
		slot, _ = inc.g.Add(q)
	} else {
		// One probe serves both the admission check and the commit.
		edges, unsafe := inc.g.Probe(q)
		if len(unsafe) > 0 {
			return -1, DeltaStats{}, fmt.Errorf("%w %s: would make queries %v unsafe", ErrUnsafeArrival, q.ID, unsafe)
		}
		slot, _ = inc.g.commit(q, edges)
	}
	m := db.NewMeter(inc.store)
	inc.queries = append(inc.queries, q)
	inc.renamed = append(inc.renamed, q.Rename(varPrefix(slot)))
	sat := true
	if !inc.opts.SkipPruning {
		var err error
		sat, err = m.Satisfiable(inc.renamed[slot].Body)
		if err != nil {
			inc.g.Remove(slot)
			inc.bodySat = append(inc.bodySat, false)
			inc.total += m.Count()
			return -1, DeltaStats{Slot: -1, DBQueries: m.Count()}, err
		}
	}
	inc.bodySat = append(inc.bodySat, sat)
	d, err := inc.reconcile(m)
	d.Slot = slot
	inc.last = d
	return slot, d, err
}

// Remove departs the query in a slot: its incident edges leave the
// graph with it, pruning is redone from cached probes (a departure can
// strand postconditions that the cascade then removes), and only
// components that could reach the departed query are re-solved.
// Departures issue database queries only for those dirty components.
func (inc *Incremental) Remove(slot int) (DeltaStats, error) {
	if !inc.g.Live(slot) {
		return DeltaStats{}, fmt.Errorf("%w %d", ErrNoQuery, slot)
	}
	inc.g.Remove(slot)
	m := db.NewMeter(inc.store)
	d, err := inc.reconcile(m)
	d.Slot = slot
	inc.last = d
	return d, err
}

// Result returns the coordinating set selected from the current
// candidate family (opts.Select, MaxSize by default), or nil when
// nothing grounds. Asking costs no database queries — the answer is
// assembled from cached state — and Result.DBQueries reports the
// marginal cost of the event that produced this state, the streaming
// analogue of the paper's per-run cost metric.
func (inc *Incremental) Result() (*Result, error) {
	if len(inc.cands) == 0 {
		return nil, nil
	}
	sel := inc.opts.Select
	if sel == nil {
		sel = MaxSize
	}
	win := inc.cands[sel(inc.cands)]
	fallback, err := pickFallback(inc.queries, win.Set, win.subst, win.binding, inc.store)
	if err != nil {
		return nil, err
	}
	return &Result{
		Set:       win.Set,
		Values:    extractValues(inc.queries, win.Set, win.subst, win.binding, fallback),
		DBQueries: inc.last.DBQueries,
	}, nil
}

// TeamSize returns the size of the coordinating set Result would
// select, without materialising the witness values.
func (inc *Incremental) TeamSize() int {
	if len(inc.cands) == 0 {
		return 0
	}
	sel := inc.opts.Select
	if sel == nil {
		sel = MaxSize
	}
	return len(inc.cands[sel(inc.cands)].Set)
}

// Candidates returns the current candidate family in processing order,
// like AllCandidates for a batch run, without issuing database queries.
func (inc *Incremental) Candidates() ([]CandidateSet, error) {
	out := make([]CandidateSet, 0, len(inc.cands))
	for _, c := range inc.cands {
		fallback, err := pickFallback(inc.queries, c.Set, c.subst, c.binding, inc.store)
		if err != nil {
			return nil, err
		}
		out = append(out, CandidateSet{
			Set:    c.Set,
			Values: extractValues(inc.queries, c.Set, c.subst, c.binding, fallback),
		})
	}
	return out, nil
}

// Trace returns the step-by-step record of the current state, in the
// shape a traced batch run over the live set would produce: pruning
// events then per-component outcomes in reverse topological order.
// Query indices are slots.
func (inc *Incremental) Trace() *Trace {
	return &Trace{
		Pruned:     append([]PruneEvent(nil), inc.trace.Pruned...),
		Components: append([]ComponentEvent(nil), inc.trace.Components...),
	}
}

// LastDelta returns the cost of the most recent event.
func (inc *Incremental) LastDelta() DeltaStats { return inc.last }

// TotalDBQueries returns the lifetime database-query count across every
// event of this coordinator.
func (inc *Incremental) TotalDBQueries() int64 { return inc.total }

// Refresh rebuilds every store-dependent part of the state: cached
// component outcomes are dropped, body-satisfiability probes are redone
// for all live queries, and the whole condensation is re-solved. This
// is the escape hatch from the dirty-region invariant — cached
// witnesses assume the store's contents have not changed since they
// were computed, so a caller that interleaves writes with a session
// calls Refresh (with writers paused) to resynchronise. It costs what
// a batch run costs.
func (inc *Incremental) Refresh() (DeltaStats, error) {
	m := db.NewMeter(inc.store)
	inc.cache = map[string]*compOutcome{}
	if !inc.opts.SkipPruning {
		for i := range inc.queries {
			if !inc.g.Live(i) {
				continue
			}
			sat, err := m.Satisfiable(inc.renamed[i].Body)
			if err != nil {
				inc.total += m.Count()
				return DeltaStats{Slot: -1, DBQueries: m.Count()}, err
			}
			inc.bodySat[i] = sat
		}
	}
	d, err := inc.reconcile(m)
	d.Slot = -1
	inc.last = d
	return d, err
}

// reconcile brings the coordination state up to date after a graph
// change. Pruning (from the cached body-satisfiability probes) and
// condensation are recomputed — pure graph work — and the batch
// component walk runs over the live slots, with a search that splices
// the cached outcome of a reachable set it has seen before instead of
// re-unifying and re-grounding it. The walk compacts live slots before
// condensing, so it is index-for-index the batch walk over the live
// queries in slot order. Whether or not the pass fails, the returned
// DBQueries is every query it issued on m.
func (inc *Incremental) reconcile(m *db.Meter) (d DeltaStats, err error) {
	defer func() {
		d.DBQueries = m.Count()
		inc.total += d.DBQueries
	}()
	n := len(inc.queries)
	edges := inc.g.Edges()
	alive := make([]bool, n)
	live := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if inc.g.Live(i) {
			alive[i] = true
			live = append(live, i)
		}
	}
	inc.trace.Pruned = inc.trace.Pruned[:0]
	inc.trace.Components = inc.trace.Components[:0]
	inc.cands = inc.cands[:0]
	if !inc.opts.SkipPruning {
		cached := func(i int) (bool, error) { return inc.bodySat[i], nil }
		if err := prune(inc.renamed, edges, alive, cached, &inc.trace); err != nil {
			return d, err
		}
	}

	w, err := newWalk(inc.renamed, edges, alive, live, m, true)
	if err != nil {
		return d, err
	}
	d.Components = len(w.order)
	cache := make(map[string]*compOutcome, len(w.order))
	w.search = func(set []int, inSet []bool) (compOutcome, error) {
		sig := sigOf(set)
		out := inc.cache[sig]
		if out != nil {
			d.Reused++
		} else {
			solved, err := w.solve(set, inSet)
			if err != nil {
				return solved, err
			}
			out = &solved
			d.Dirty++
		}
		cache[sig] = out
		return *out, nil
	}
	if err := w.run(); err != nil {
		return d, err
	}
	inc.cache = cache
	inc.cands = w.results(inc.cands, &inc.trace)
	return d, nil
}

// sigOf builds the cache key of a reachable slot set in assembly
// order, NOT sorted: the combined body is concatenated in this order,
// and the frozen join plan — hence the chosen witness and the rendered
// combined query — depends on it. A departure elsewhere in the graph
// can renumber Tarjan components and reorder an otherwise unchanged
// reachable set; keying on the ordered sequence makes that a cache
// miss (re-solve, stay exact) instead of a stale splice. Slots are
// stable for the life of a session, so signatures are too.
func sigOf(set []int) string {
	buf := make([]byte, 0, 4*len(set))
	for _, s := range set {
		buf = strconv.AppendInt(buf, int64(s), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}
