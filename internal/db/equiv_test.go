package db

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// equivStores is one trial's family of stores holding identical tuples:
// a plain instance plus hash-partitioned copies at K=1,2,8, and the seed
// reference over the plain instance.
type equivStores struct {
	plain   *Instance
	sharded map[int]*ShardedInstance
	seed    *seedStore
}

// compiled returns every store that answers through compiled plans.
func (es *equivStores) compiled() map[string]Store {
	out := map[string]Store{"plain": es.plain}
	for k, sh := range es.sharded {
		out[fmt.Sprintf("k=%d", k)] = sh
	}
	return out
}

// buildEquivStores creates random relations A/2, B/1, C/3 with random
// small-domain tuples, random per-relation hash columns for the sharded
// copies, random indexes, and a random UseIndexes setting.
func buildEquivStores(rng *rand.Rand) *equivStores {
	type relSpec struct {
		name  string
		arity int
		rows  int
	}
	specs := []relSpec{
		{"A", 2, 1 + rng.Intn(10)},
		{"B", 1, 1 + rng.Intn(5)},
		{"C", 3, 1 + rng.Intn(8)},
	}
	val := func() eq.Value { return eq.Value(strconv.Itoa(rng.Intn(5))) }
	tuples := map[string][][]eq.Value{}
	hashCols := map[string]int{}
	for _, sp := range specs {
		hashCols[sp.name] = rng.Intn(sp.arity)
		for r := 0; r < sp.rows; r++ {
			row := make([]eq.Value, sp.arity)
			for c := range row {
				row[c] = val()
			}
			tuples[sp.name] = append(tuples[sp.name], row)
		}
	}
	indexed := map[string][]int{}
	for _, sp := range specs {
		for c := 0; c < sp.arity; c++ {
			if rng.Intn(3) == 0 {
				indexed[sp.name] = append(indexed[sp.name], c)
			}
		}
	}
	useIndexes := rng.Intn(2) == 0

	attrs := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "c" + strconv.Itoa(i)
		}
		return out
	}

	es := &equivStores{plain: NewInstance(), sharded: map[int]*ShardedInstance{}}
	for _, sp := range specs {
		r := es.plain.CreateRelation(sp.name, attrs(sp.arity)...)
		for _, row := range tuples[sp.name] {
			r.Insert(row...)
		}
		for _, c := range indexed[sp.name] {
			r.BuildIndex(c)
		}
	}
	es.plain.UseIndexes = useIndexes
	es.seed = newSeedStore(es.plain)
	for _, k := range []int{1, 2, 8} {
		sh := NewShardedInstance(k)
		for _, sp := range specs {
			r := sh.CreateRelation(sp.name, hashCols[sp.name], attrs(sp.arity)...)
			for _, row := range tuples[sp.name] {
				r.Insert(row...)
			}
			for _, c := range indexed[sp.name] {
				r.BuildIndex(c)
			}
		}
		sh.SetUseIndexes(useIndexes)
		es.sharded[k] = sh
	}
	return es
}

// randomBody builds a random conjunctive body over the trial schema:
// 1-3 atoms, variables from {x,y,z} (repeats allowed) and small-domain
// constants.
func randomBody(rng *rand.Rand) []eq.Atom {
	arities := map[string]int{"A": 2, "B": 1, "C": 3}
	names := []string{"A", "B", "C"}
	term := func() eq.Term {
		if rng.Intn(2) == 0 {
			return eq.V(string(rune('x' + rng.Intn(3))))
		}
		return eq.C(eq.Value(strconv.Itoa(rng.Intn(5))))
	}
	var body []eq.Atom
	for i := 0; i < 1+rng.Intn(3); i++ {
		n := names[rng.Intn(len(names))]
		args := make([]eq.Term, arities[n])
		for j := range args {
			args[j] = term()
		}
		body = append(body, eq.NewAtom(n, args...))
	}
	return body
}

// randomSubst builds a random substitution over the body's variable
// space: some variables bound to constants, some unified with each
// other.
func randomSubst(rng *rand.Rand) *unify.Subst {
	s := unify.New()
	vars := []string{"x", "y", "z"}
	for _, v := range vars {
		switch rng.Intn(3) {
		case 0:
			_ = s.Bind(v, eq.Value(strconv.Itoa(rng.Intn(5))))
		case 1:
			_ = s.UnifyTerms(eq.V(v), eq.V(vars[rng.Intn(len(vars))]))
		}
	}
	return s
}

// bindingMultiset renders a result list order-independently.
func bindingMultiset(res []Binding) []string {
	out := make([]string, 0, len(res))
	for _, b := range res {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s;", k, b[k])
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, ctx string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: answer multisets differ: %d vs %d answers\n%v\n%v", ctx, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: answer multisets differ at %d: %q vs %q", ctx, i, a[i], b[i])
		}
	}
}

// subMultiset reports whether every answer occurs in super at least as
// often as in sub.
func subMultiset(sub, super []string) bool {
	count := map[string]int{}
	for _, s := range super {
		count[s]++
	}
	for _, s := range sub {
		if count[s]--; count[s] < 0 {
			return false
		}
	}
	return true
}

// TestQuickCompiledMatchesSeed is the compiled-evaluator equivalence
// property test: across random schemas, random bodies, random
// substitutions, shard counts K=1,2,8 and indexes on/off, every
// compiled store returns the same multiset of bindings, the same ok,
// and the same query counts (db-level DBQueries) as the seed reference
// evaluator; a bounded SolveAll(body, k) returns min(k, |all|) answers
// drawn from the reference multiset, and a SolveUnder binding is an
// answer of the substituted body.
func TestQuickCompiledMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	limits := rand.New(rand.NewSource(5678))
	for trial := 0; trial < 120; trial++ {
		es := buildEquivStores(rng)
		var bodies [][]eq.Atom
		for i := 0; i < 5; i++ {
			bodies = append(bodies, randomBody(rng))
		}
		bodies = append(bodies, nil) // empty body: vacuously satisfiable
		subst := randomSubst(rng)

		type answers struct {
			all     []string
			bounded []string
			solveOK bool
			sat     bool
			underOK bool
			under   []string // the SolveUnder binding, if any
			queries int64
		}
		collect := func(st Store, body []eq.Atom, limit int) answers {
			start := st.QueriesIssued()
			res, err := st.SolveAll(body, 0)
			if err != nil {
				t.Fatalf("trial %d: SolveAll: %v", trial, err)
			}
			bounded, err := st.SolveAll(body, limit)
			if err != nil {
				t.Fatalf("trial %d: SolveAll(limit %d): %v", trial, limit, err)
			}
			_, ok, err := st.Solve(body)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			sat, err := st.Satisfiable(body)
			if err != nil {
				t.Fatalf("trial %d: Satisfiable: %v", trial, err)
			}
			under, underOK, err := st.SolveUnder(body, subst)
			if err != nil {
				t.Fatalf("trial %d: SolveUnder: %v", trial, err)
			}
			return answers{
				all:     bindingMultiset(res),
				bounded: bindingMultiset(bounded),
				solveOK: ok,
				sat:     sat,
				underOK: underOK,
				under:   bindingMultiset([]Binding{under}),
				queries: st.QueriesIssued() - start,
			}
		}

		for bi, body := range bodies {
			limit := 1 + limits.Intn(8)
			seed := collect(es.seed, body, limit)
			underAll, err := es.seed.SolveAll(subst.ApplyAll(body), 0)
			if err != nil {
				t.Fatalf("trial %d: seed SolveAll under subst: %v", trial, err)
			}
			for name, st := range es.compiled() {
				compiled := collect(st, body, limit)
				ctx := fmt.Sprintf("trial %d body %d store %s", trial, bi, name)
				sameMultiset(t, ctx, compiled.all, seed.all)
				if compiled.solveOK != seed.solveOK || compiled.sat != seed.sat || compiled.underOK != seed.underOK {
					t.Fatalf("%s: ok flags differ: compiled %+v seed %+v", ctx, compiled, seed)
				}
				if compiled.queries != seed.queries {
					t.Fatalf("%s: DBQueries differ: compiled %d seed %d", ctx, compiled.queries, seed.queries)
				}
				if want := min(limit, len(seed.all)); len(compiled.bounded) != want {
					t.Fatalf("%s: SolveAll(limit %d) returned %d answers, want %d", ctx, limit, len(compiled.bounded), want)
				}
				if !subMultiset(compiled.bounded, seed.all) {
					t.Fatalf("%s: SolveAll(limit %d) answers %v not drawn from %v", ctx, limit, compiled.bounded, seed.all)
				}
				if compiled.underOK && !subMultiset(compiled.under, bindingMultiset(underAll)) {
					t.Fatalf("%s: SolveUnder binding %v is not an answer of the substituted body", ctx, compiled.under)
				}
			}
		}
	}
}

// TestCompiledContainsMatchesSeed checks the membership primitive on
// random ground atoms: every compiled store agrees with the seed
// reference.
func TestCompiledContainsMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	arities := map[string]int{"A": 2, "B": 1, "C": 3, "Nope": 2}
	names := []string{"A", "B", "C", "Nope"}
	for trial := 0; trial < 40; trial++ {
		es := buildEquivStores(rng)
		for i := 0; i < 20; i++ {
			n := names[rng.Intn(len(names))]
			args := make([]eq.Term, arities[n])
			for j := range args {
				args[j] = eq.C(eq.Value(strconv.Itoa(rng.Intn(5))))
			}
			a := eq.NewAtom(n, args...)
			want := es.seed.Contains(a)
			for name, st := range es.compiled() {
				if got := st.Contains(a); got != want {
					t.Fatalf("trial %d: %s Contains(%s) = %v, seed %v", trial, name, a, got, want)
				}
			}
		}
	}
}
