package coord

import (
	"fmt"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
	"entangled/internal/unify"
)

// walk is one pass of the SCC Coordination Algorithm's component loop
// (§4) over the condensation of a coordination graph. A batch run walks
// once, sequentially (run) or on a worker pool (runParallel);
// Incremental walks after every event with a search that splices
// cached outcomes. Every schedule calls the same step, so the three
// cannot drift apart.
type walk struct {
	edges   []ExtendedEdge // the extended graph, in canonical order
	renamed []eq.Query     // alpha-renamed queries, by query index
	alive   []bool         // by query index: survived §6.1 pruning
	dag     *graph.Digraph
	members [][]int // by component: query indices
	order   []int   // component ids, reverse topological
	store   db.Store
	// trace keeps what only a trace shows: the sorted set of a failed
	// search and every searched component's rendered grounding query.
	trace bool
	// search turns a reachable set into its component's outcome: solve,
	// unless the caller consults a cache first.
	search func(set []int, inSet []bool) (compOutcome, error)

	// By component. Each slot is written by the one step that processes
	// the component, before any step that reads it (a predecessor's).
	reach [][]bool
	outs  []compOutcome
}

// compOutcome is the outcome of processing one component. A searched
// component's outcome — one neither pruned nor behind a failed
// successor — is a pure function of (reachable query indices in
// assembly order, store contents), which is what lets Incremental
// splice it while neither changes; the dirty-region invariant in
// DESIGN.md spells this out.
type compOutcome struct {
	status   string // a ComponentEvent status
	set      []int  // the reachable set, sorted; nil when not searched
	subst    *unify.Subst
	binding  db.Binding
	combined string // the rendered grounding query, when traced
}

// runSCC executes the SCC Coordination Algorithm and returns every
// grounded candidate (the family {R(q)}), in processing order: safety
// check, alpha renaming, §6.1 pruning and condensation, then the
// component walk on opts.Parallelism workers (sequential at <= 1).
// SCCCoordinate applies the selector to pick one; AllCandidates exposes
// the whole family.
func runSCC(qs []eq.Query, store db.Store, opts Options) ([]Candidate, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	edges := ExtendedGraph(qs)
	if !opts.SkipSafetyCheck {
		if bad := unsafeIn(len(qs), edges); len(bad) > 0 {
			return nil, fmt.Errorf("%w: unsafe queries %v", ErrUnsafe, bad)
		}
	}
	renamed := renameAll(qs)

	alive := make([]bool, len(qs))
	live := make([]int, len(qs))
	for i := range qs {
		alive[i] = true
		live[i] = i
	}
	if !opts.SkipPruning {
		probe := func(i int) (bool, error) { return store.Satisfiable(renamed[i].Body) }
		if err := prune(renamed, edges, alive, probe, opts.Trace); err != nil {
			return nil, err
		}
	}

	w, err := newWalk(renamed, edges, alive, live, store, opts.Trace != nil)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism > 1 {
		err = w.runParallel(opts.Parallelism)
	} else {
		err = w.run()
	}
	if err != nil {
		return nil, err
	}
	return w.results(nil, opts.Trace), nil
}

// prune is the §6.1 preprocessing over the queries marked alive: it
// drops each whose body bodySat reports unsatisfiable, then, until a
// fixpoint, each with a postcondition that no alive query's head
// provides. Removals are recorded in tr, when non-nil, in the order
// they happen.
func prune(qs []eq.Query, edges []ExtendedEdge, alive []bool, bodySat func(i int) (bool, error), tr *Trace) error {
	for i := range qs {
		if !alive[i] {
			continue
		}
		sat, err := bodySat(i)
		if err != nil {
			return err
		}
		if !sat {
			alive[i] = false
			if tr != nil {
				tr.Pruned = append(tr.Pruned, PruneEvent{Query: i, Reason: "unsatisfiable body"})
			}
		}
	}
	for {
		changed := false
		providers := map[[2]int]int{}
		for _, e := range edges {
			if alive[e.FromQ] && alive[e.ToQ] {
				providers[[2]int{e.FromQ, e.PostIdx}]++
			}
		}
		for i, q := range qs {
			if !alive[i] {
				continue
			}
			for pi := range q.Post {
				if providers[[2]int{i, pi}] == 0 {
					alive[i] = false
					changed = true
					if tr != nil {
						tr.Pruned = append(tr.Pruned, PruneEvent{Query: i, Reason: "unsatisfiable postcondition"})
					}
					break
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// newWalk condenses the coordination graph over the queries listed in
// live (ascending query indices; a batch run lists them all), keeping
// the edges between alive queries, and orders its components reverse
// topologically. Graph nodes are positions in live, so a set with
// tombstoned slots condenses exactly as a batch run over its live
// queries alone: same Tarjan numbering, same order, same candidate
// order and tie-breaks. Members are reported as query indices.
func newWalk(renamed []eq.Query, edges []ExtendedEdge, alive []bool, live []int, store db.Store, trace bool) (*walk, error) {
	pos := make([]int, len(renamed))
	for p, i := range live {
		pos[i] = p
	}
	g := graph.New(len(live))
	for _, e := range edges {
		if alive[e.FromQ] && alive[e.ToQ] {
			g.AddEdge(pos[e.FromQ], pos[e.ToQ])
		}
	}
	dag, _, members := g.Condense()
	for _, ms := range members {
		for j, p := range ms {
			ms[j] = live[p]
		}
	}
	order, err := dag.TopoOrder()
	if err != nil {
		return nil, err // cannot happen: condensation is a DAG
	}
	reverse(order)
	w := &walk{
		edges:   edges,
		renamed: renamed,
		alive:   alive,
		dag:     dag,
		members: members,
		order:   order,
		store:   store,
		trace:   trace,
		reach:   make([][]bool, dag.N()),
		outs:    make([]compOutcome, dag.N()),
	}
	w.search = w.solve
	return w, nil
}

// run walks the components in order on the calling goroutine, with one
// inSet scratch for the whole walk.
func (w *walk) run() error {
	inSet := make([]bool, len(w.renamed))
	for _, c := range w.order {
		if err := w.step(c, inSet); err != nil {
			return err
		}
	}
	return nil
}

// step processes component c once all its successors have been. A
// pruned component, or one with a failed successor, fails outright.
// Otherwise the successors' reachability is folded into c's, and the
// reachable set — members in ascending component order, the order the
// combined body is assembled in — goes to search. inSet is the
// caller's scratch: len(renamed), all false, and left so.
func (w *walk) step(c int, inSet []bool) error {
	if !w.alive[w.members[c][0]] {
		w.outs[c] = compOutcome{status: "pruned"}
		return nil
	}
	succs := w.dag.Succ(c)
	for _, s := range succs {
		if w.outs[s].status != "grounded" {
			w.outs[c] = compOutcome{status: "successor failed"}
			return nil
		}
	}
	r := make([]bool, len(w.outs))
	r[c] = true
	for _, s := range succs {
		for i, b := range w.reach[s] {
			if b {
				r[i] = true
			}
		}
	}
	w.reach[c] = r

	var set []int
	for cc, b := range r {
		if b {
			set = append(set, w.members[cc]...)
		}
	}
	out, err := w.search(set, inSet)
	if err != nil {
		return err
	}
	w.outs[c] = out
	return nil
}

// solve is one component's search: unify every extended edge inside the
// reachable set — in canonical edge order, so every schedule computes
// the same union sequence and substitution — and ground the combined
// body with a single query on the store.
func (w *walk) solve(set []int, inSet []bool) (compOutcome, error) {
	for _, i := range set {
		inSet[i] = true
	}
	// Pre-size the forest: the reachable set's queries contribute a
	// handful of renamed variables each.
	s := unify.NewSized(2*len(set) + 4)
	var clash error
	for _, e := range w.edges {
		if inSet[e.FromQ] && inSet[e.ToQ] {
			p := w.renamed[e.FromQ].Post[e.PostIdx]
			h := w.renamed[e.ToQ].Head[e.HeadIdx]
			if clash = s.UnifyAtoms(p, h); clash != nil {
				break
			}
		}
	}
	for _, i := range set {
		inSet[i] = false
	}

	out := compOutcome{status: "unification failed"}
	if clash == nil {
		nAtoms := 0
		for _, i := range set {
			nAtoms += len(w.renamed[i].Body)
		}
		body := make([]eq.Atom, 0, nAtoms)
		for _, i := range set {
			body = append(body, w.renamed[i].Body...)
		}
		bind, found, err := w.store.SolveUnder(body, s)
		if err != nil {
			return compOutcome{}, err
		}
		if w.trace {
			out.combined = renderCombined(s.ApplyAll(body))
		}
		out.status = "no tuple"
		if found {
			out.status, out.subst, out.binding = "grounded", s, bind
		}
	}
	if out.status == "grounded" || w.trace {
		out.set = sortedCopy(set)
	}
	return out, nil
}

// results appends the walk's candidates — the grounded family {R(q)} —
// to cands and, when tr is non-nil, its component events to tr, both
// in processing order whatever the schedule.
func (w *walk) results(cands []Candidate, tr *Trace) []Candidate {
	for _, c := range w.order {
		o := &w.outs[c]
		if tr != nil {
			ev := ComponentEvent{Members: w.members[c], Set: o.set, Status: o.status, Combined: o.combined}
			if o.status == "grounded" {
				ev.SetSize = len(o.set)
			}
			tr.Components = append(tr.Components, ev)
		}
		if o.status == "grounded" {
			cands = append(cands, Candidate{Set: o.set, subst: o.subst, binding: o.binding})
		}
	}
	return cands
}
