package db

import (
	"fmt"
	"sort"
	"sync/atomic"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// seedStore is the reference the compiled-plan tests compare against:
// the seed backtracking evaluator, written independently of plan.go and
// exec.go, served as a Store over a plain Instance. It reads the
// instance's relations and UseIndexes setting but keeps its own query
// counter and never touches the instance's plan cache.
type seedStore struct {
	in      *Instance
	queries atomic.Int64
}

var _ Store = (*seedStore)(nil)

func newSeedStore(in *Instance) *seedStore { return &seedStore{in: in} }

func (s *seedStore) Solve(body []eq.Atom) (Binding, bool, error) { return first(s.solve(body, 1)) }

func (s *seedStore) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	return s.solve(body, limit)
}

func (s *seedStore) Satisfiable(body []eq.Atom) (bool, error) {
	res, err := s.solve(body, 1)
	return len(res) > 0, err
}

// SolveUnder materialises the substituted body and evaluates it.
func (s *seedStore) SolveUnder(body []eq.Atom, sub *unify.Subst) (Binding, bool, error) {
	return first(s.solve(sub.ApplyAll(body), 1))
}

func (s *seedStore) Domain() []eq.Value { return s.in.Domain() }

func (s *seedStore) QueriesIssued() int64 { return s.queries.Load() }

func (s *seedStore) ResetCounters() { s.queries.Store(0) }

// Contains is the seed membership check: an index probe when the
// relation has any index, a scan otherwise. Like Instance.Contains it
// is not a counted query.
func (s *seedStore) Contains(a eq.Atom) bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	r, ok := s.in.Relation(a.Rel)
	if !ok || r.Arity() != len(a.Args) {
		return false
	}
	vals := make([]eq.Value, len(a.Args))
	for i, t := range a.Args {
		vals[i] = t.Const()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Use an index when one exists.
	for col, idx := range r.indexes {
		rows := idx[vals[col]]
		for _, row := range rows {
			if tupleEqual(r.tuples[row], vals) {
				return true
			}
		}
		return false
	}
	for _, t := range r.tuples {
		if tupleEqual(t, vals) {
			return true
		}
	}
	return false
}

func tupleEqual(t Tuple, vals []eq.Value) bool {
	for i := range t {
		if t[i] != vals[i] {
			return false
		}
	}
	return true
}

// solve is the seed evaluation path: per-call join ordering over a
// name -> value binding map.
func (s *seedStore) solve(body []eq.Atom, limit int) ([]Binding, error) {
	s.queries.Add(1)
	rels, err := s.relsFor(body)
	if err != nil {
		return nil, err
	}
	defer readLockAll(rels)()
	e := &evaluator{useIndexes: s.in.UseIndexes, rels: rels, body: body, limit: limit, bound: Binding{}}
	e.run()
	return e.results, nil
}

// relsFor resolves and validates every relation the body mentions,
// returning a name -> relation snapshot so the evaluator never touches
// the registry map mid-run.
func (s *seedStore) relsFor(body []eq.Atom) (map[string]*Relation, error) {
	s.in.mu.RLock()
	defer s.in.mu.RUnlock()
	rels := make(map[string]*Relation, len(body))
	for _, a := range body {
		r, ok := s.in.rels[a.Rel]
		if !ok {
			return nil, fmt.Errorf("db: unknown relation %s", a.Rel)
		}
		if r.Arity() != len(a.Args) {
			return nil, fmt.Errorf("db: atom %s has arity %d, relation has %d", a, len(a.Args), r.Arity())
		}
		rels[a.Rel] = r
	}
	return rels, nil
}

// readLockAll read-locks every relation in the snapshot for the duration
// of an evaluation (in sorted name order, so lock acquisition is
// deterministic) and returns the matching unlock function. Holding the
// read locks across the whole backtracking join lets the evaluator access
// tuples and indexes directly while concurrent readers proceed and
// writers wait.
func readLockAll(rels map[string]*Relation) func() {
	names := make([]string, 0, len(rels))
	for n := range rels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rels[n].mu.RLock()
	}
	return func() {
		for _, n := range names {
			rels[n].mu.RUnlock()
		}
	}
}

// evaluator performs a backtracking join over the body atoms. At every
// step it picks the not-yet-joined atom with the most bound arguments
// (a greedy selectivity heuristic) and iterates its matching tuples,
// using a hash index on one bound column when available.
type evaluator struct {
	useIndexes bool
	rels       map[string]*Relation // read-locked snapshot from the caller
	body       []eq.Atom
	limit      int
	bound      Binding
	used       []bool
	results    []Binding
	// scratch holds one newly-bound-variables buffer per depth, reused
	// across sibling tuples so the scan path does not allocate.
	scratch [][]string
}

func (e *evaluator) run() {
	e.used = make([]bool, len(e.body))
	e.scratch = make([][]string, len(e.body))
	e.step(0)
}

func (e *evaluator) done() bool {
	return e.limit > 0 && len(e.results) >= e.limit
}

func (e *evaluator) step(depth int) {
	if e.done() {
		return
	}
	if depth == len(e.body) {
		out := make(Binding, len(e.bound))
		for k, v := range e.bound {
			out[k] = v
		}
		e.results = append(e.results, out)
		return
	}
	ai := e.pickAtom()
	e.used[ai] = true
	defer func() { e.used[ai] = false }()

	a := e.body[ai]
	rel := e.rels[a.Rel]
	if rows, probed := e.probeRows(rel, a); probed {
		for _, row := range rows {
			if e.tryTuple(a, rel.tuples[row], depth) {
				return
			}
		}
		return
	}
	// No usable index: iterate the tuples in place instead of
	// materialising an all-rows candidate list per search node.
	for ti := range rel.tuples {
		if e.tryTuple(a, rel.tuples[ti], depth) {
			return
		}
	}
}

// tryTuple matches one tuple, recurses on success, and undoes the
// bindings; it reports whether the walk should stop.
func (e *evaluator) tryTuple(a eq.Atom, t Tuple, depth int) bool {
	newVars, ok := e.match(a, t, depth)
	if !ok {
		return false
	}
	e.step(depth + 1)
	for _, v := range newVars {
		delete(e.bound, v)
	}
	return e.done()
}

// pickAtom selects the unused atom with the most arguments already bound
// (constants count as bound).
func (e *evaluator) pickAtom() int {
	best, bestScore := -1, -1
	for i, a := range e.body {
		if e.used[i] {
			continue
		}
		score := 0
		for _, t := range a.Args {
			if !t.IsVar() {
				score++
			} else if _, ok := e.bound[t.Name]; ok {
				score++
			}
		}
		// Prefer more-bound atoms, break ties toward smaller relations.
		if score > bestScore || (score == bestScore && len(e.rels[a.Rel].tuples) < len(e.rels[e.body[best].Rel].tuples)) {
			best, bestScore = i, score
		}
	}
	return best
}

// probeRows returns the index rows worth probing for atom a when a
// bound, indexed column exists; probed is false when the caller must
// scan the relation instead.
func (e *evaluator) probeRows(rel *Relation, a eq.Atom) (rows []int, probed bool) {
	if !e.useIndexes {
		return nil, false
	}
	for col, t := range a.Args {
		v, ok := e.termValue(t)
		if !ok {
			continue
		}
		if idx, has := rel.indexes[col]; has {
			return idx[v], true
		}
	}
	return nil, false
}

func (e *evaluator) termValue(t eq.Term) (eq.Value, bool) {
	if !t.IsVar() {
		return t.Const(), true
	}
	v, ok := e.bound[t.Name]
	return v, ok
}

// match tests tuple t against atom a under the current bindings. On
// success it extends e.bound and returns the list of newly bound
// variables in the depth's reused scratch buffer; on mismatch it
// reports ok=false and leaves e.bound unchanged.
func (e *evaluator) match(a eq.Atom, t Tuple, depth int) (newVars []string, ok bool) {
	newVars = e.scratch[depth][:0]
	for i, arg := range a.Args {
		if !arg.IsVar() {
			if arg.Const() != t[i] {
				e.unbind(newVars)
				return nil, false
			}
			continue
		}
		if v, bound := e.bound[arg.Name]; bound {
			if v != t[i] {
				e.unbind(newVars)
				return nil, false
			}
			continue
		}
		e.bound[arg.Name] = t[i]
		newVars = append(newVars, arg.Name)
	}
	e.scratch[depth] = newVars
	return newVars, true
}

func (e *evaluator) unbind(vars []string) {
	for _, v := range vars {
		delete(e.bound, v)
	}
}
