package coord

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/workload"
)

// failingStore wraps store so that its k-th SolveUnder (1-based) fails
// with an injected error; every other query passes through.
func failingStore(store db.Store, k int) db.Store {
	return fault.NewStore(store, fault.NewInjector(1, fault.Rule{
		Op: fault.OpQuery, Path: "solveunder", After: k - 1, Count: 1,
		Fault: fault.Fault{Err: errors.New("grounding query failed")},
	}))
}

// waitGoroutines fails the test unless the goroutine count falls back
// to base: a worker that wg.Wait has released may still be exiting.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after the walk, %d before", g, base)
	}
}

// TestWalkStoreErrorOnEverySchedule fails the k-th grounding query, for
// every k a clean run issues, and checks that each schedule of the
// component walk — sequential, parallel and incremental — returns the
// error, and that the parallel one leaves no worker behind.
func TestWalkStoreErrorOnEverySchedule(t *testing.T) {
	const n, rows = 12, 20
	inst := db.NewInstance()
	workload.UserTable(inst, rows)
	// The chain's condensation is a path, so the parallel walk holds
	// one component at a time. Without postconditions the same queries
	// are n independent components, so several are in flight when one
	// fails and the scheduler must drain them.
	wide := workload.ListQueries(n, rows)
	for i := range wide {
		wide[i].Post = nil
	}
	sets := []struct {
		name string
		qs   []eq.Query
	}{{"chain", workload.ListQueries(n, rows)}, {"wide", wide}}

	for _, set := range sets {
		// Each set grounds all n components, one query each; at
		// k = n+1 nothing fails.
		for k := 1; k <= n+1; k++ {
			check := func(schedule string, err error) {
				t.Helper()
				if k <= n && !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("%s %s, failing grounding query %d: err = %v", set.name, schedule, k, err)
				}
				if k > n && err != nil {
					t.Fatalf("%s %s, no failure: %v", set.name, schedule, err)
				}
			}
			_, err := SCCCoordinate(set.qs, failingStore(inst, k), Options{})
			check("sequential", err)

			base := runtime.NumGoroutine()
			_, err = SCCCoordinate(set.qs, failingStore(inst, k), Options{Parallelism: 4})
			check("parallel", err)
			waitGoroutines(t, base)

			// Arriving last query first, each arrival dirties exactly
			// its own component, so the k-th grounding query is the
			// k-th arrival's.
			inc := NewIncremental(failingStore(inst, k), Options{})
			err = nil
			for i := n - 1; i >= 0 && err == nil; i-- {
				_, _, err = inc.Add(set.qs[i])
			}
			check("incremental", err)
		}
	}
}
