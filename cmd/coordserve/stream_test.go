package main

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/unify"
	"entangled/internal/workload"
)

// TestStreamDrainOnCancel exercises the graceful-drain path under the
// race detector: cancel fires mid-stream, in-flight work finishes, the
// session state is still reported, and no goroutine outlives the run.
func TestStreamDrainOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel once the session is processing its first event, however
	// loaded the machine: that event finishes, and a paced run of
	// ~4s at 1000 events/s cannot have ended by then.
	store := &cancelOnFirstQuery{Store: workload.NewStore(2, 32, 50*time.Microsecond), cancel: cancel}
	e := engine.New(store, engine.Options{Workers: 2})
	var out strings.Builder
	totals, err := runStream(ctx, e, streamConfig{
		events:  4000,
		pattern: workload.Churn,
		rate:    1000,
		seed:    3,
		rows:    32,
	}, &out)
	if err != nil {
		t.Fatalf("runStream: %v", err)
	}
	if totals.Events <= 0 || totals.Events >= 4000 {
		t.Fatalf("cancel did not land mid-stream: %+v", totals)
	}
	if !strings.Contains(out.String(), "stream interrupted") ||
		!strings.Contains(out.String(), "final session") {
		t.Fatalf("drain report incomplete:\n%s", out.String())
	}

	// The producer goroutine must be gone; allow the runtime a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak after drain: %d > %d at start", n, baseline)
	}
}

// cancelOnFirstQuery cancels a run from the first query a session
// event issues, so a test sees the cancel land mid-stream by progress,
// not by wall time.
type cancelOnFirstQuery struct {
	db.Store
	once   sync.Once
	cancel context.CancelFunc
}

func (s *cancelOnFirstQuery) Satisfiable(body []eq.Atom) (bool, error) {
	s.once.Do(s.cancel)
	return s.Store.Satisfiable(body)
}

func (s *cancelOnFirstQuery) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	s.once.Do(s.cancel)
	return s.Store.SolveUnder(body, sub)
}

// TestStreamCleanFinish runs a short stream to completion and checks
// the report accounts for every event.
func TestStreamCleanFinish(t *testing.T) {
	store := workload.NewStore(1, 16, 0)
	e := engine.New(store, engine.Options{Workers: 1})
	var out strings.Builder
	totals, err := runStream(context.Background(), e, streamConfig{
		events:  64,
		pattern: workload.Steady,
		seed:    9,
		rows:    16,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Events != 64 || totals.Joins != 64 {
		t.Fatalf("totals %+v", totals)
	}
	if strings.Contains(out.String(), "interrupted") {
		t.Fatalf("clean finish reported an interruption:\n%s", out.String())
	}
}
