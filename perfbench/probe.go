package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/unify"
)

// The traced run times calls into each layer's public seams from here:
// a db.Store wrapper handed to engine.New, a fault.FS wrapper in
// persist.Options.FS and a net.Listener wrapper around every server
// listener. Spans stay in memory and are written out when the run ends;
// per-layer counters are kept beside them, so ratios are measured where
// the work happens.

// span is one timed call into a layer. Spans of one client op share its
// trace id; calls the benchmark cannot attribute to an op (store
// queries, file and socket writes inside the server) carry trace 0.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped, the layer counters keep counting. Store queries are the
// most frequent calls by far, so only one in querySpanEvery of them
// becomes a span.
const (
	maxSpans       = 1 << 18
	querySpanEvery = 16
)

// recorder is a lock-free append-only span buffer.
type recorder struct {
	base    time.Time
	ids     atomic.Uint64
	n       atomic.Int64
	dropped atomic.Int64
	buf     []span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), buf: make([]span, maxSpans)}
}

// record stores one span and returns its id.
func (r *recorder) record(trace, parent uint64, name string, start, end time.Time) uint64 {
	id := r.ids.Add(1)
	i := r.n.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return id
	}
	r.buf[i] = span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()}
	return id
}

// write dumps the recorded spans as JSON lines.
func (r *recorder) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := min(r.n.Load(), int64(len(r.buf)))
	for i := int64(0); i < n; i++ {
		if err := enc.Encode(&r.buf[i]); err != nil {
			return err
		}
	}
	if d := r.dropped.Load(); d > 0 {
		fmt.Fprintf(bw, "{\"dropped_spans\":%d}\n", d)
	}
	return bw.Flush()
}

// counter accumulates calls, bytes and busy time at one seam.
type counter struct {
	calls, bytes, ns atomic.Int64
}

func (c *counter) add(bytes int, d time.Duration) {
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
	c.ns.Add(d.Nanoseconds())
}

// counterSnap is a point-in-time copy of a counter.
type counterSnap struct{ calls, bytes, ns int64 }

func (c *counter) snap() counterSnap {
	return counterSnap{c.calls.Load(), c.bytes.Load(), c.ns.Load()}
}

func (s counterSnap) sub(o counterSnap) counterSnap {
	return counterSnap{s.calls - o.calls, s.bytes - o.bytes, s.ns - o.ns}
}

// probes is everything the traced run measures at the seams.
type probes struct {
	rec      *recorder
	db       counter // store queries
	fsWrite  counter // file writes
	fsSync   counter // file and directory fsyncs
	netRead  counter // server-side socket reads
	netWrite counter // server-side socket writes

	syncMu sync.Mutex
	syncNS []int64 // fsync durations while sampling
	sample atomic.Bool
}

func newProbes() *probes { return &probes{rec: newRecorder()} }

// snap copies every counter.
func (p *probes) snap() probeSnap {
	return probeSnap{db: p.db.snap(), fsWrite: p.fsWrite.snap(), fsSync: p.fsSync.snap(),
		netRead: p.netRead.snap(), netWrite: p.netWrite.snap()}
}

type probeSnap struct{ db, fsWrite, fsSync, netRead, netWrite counterSnap }

func (s probeSnap) sub(o probeSnap) probeSnap {
	return probeSnap{s.db.sub(o.db), s.fsWrite.sub(o.fsWrite), s.fsSync.sub(o.fsSync),
		s.netRead.sub(o.netRead), s.netWrite.sub(o.netWrite)}
}

// startSyncSample begins collecting individual fsync durations;
// takeSyncSample stops and returns them sorted.
func (p *probes) startSyncSample() {
	p.syncMu.Lock()
	p.syncNS = p.syncNS[:0]
	p.syncMu.Unlock()
	p.sample.Store(true)
}

func (p *probes) takeSyncSample() []int64 {
	p.sample.Store(false)
	p.syncMu.Lock()
	out := append([]int64(nil), p.syncNS...)
	p.syncMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *probes) observeSync(name string, start time.Time) {
	end := time.Now()
	d := end.Sub(start)
	p.fsSync.add(0, d)
	p.rec.record(0, 0, name, start, end)
	if p.sample.Load() {
		p.syncMu.Lock()
		p.syncNS = append(p.syncNS, d.Nanoseconds())
		p.syncMu.Unlock()
	}
}

// --- db.Store ---

// storeProbe times every counted query. It forwards db.Router, so the
// engine still routes each request to the shard its bodies pin (and the
// routed view is timed too), and db.PlanStatser, so /metrics still
// reports the plan cache behind it.
type storeProbe struct {
	db.Store
	router db.Router // nil when the inner store does not route
	p      *probes
}

var (
	_ db.Router      = (*storeProbe)(nil)
	_ db.PlanStatser = (*storeProbe)(nil)
)

func newStoreProbe(inner db.Store, p *probes) *storeProbe {
	sp := &storeProbe{Store: inner, p: p}
	sp.router, _ = inner.(db.Router)
	return sp
}

func (s *storeProbe) done(start time.Time) {
	end := time.Now()
	s.p.db.add(0, end.Sub(start))
	if s.p.db.calls.Load()%querySpanEvery == 0 {
		s.p.rec.record(0, 0, "db.query", start, end)
	}
}

func (s *storeProbe) Solve(body []eq.Atom) (db.Binding, bool, error) {
	start := time.Now()
	b, ok, err := s.Store.Solve(body)
	s.done(start)
	return b, ok, err
}

func (s *storeProbe) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	start := time.Now()
	bs, err := s.Store.SolveAll(body, limit)
	s.done(start)
	return bs, err
}

func (s *storeProbe) Satisfiable(body []eq.Atom) (bool, error) {
	start := time.Now()
	ok, err := s.Store.Satisfiable(body)
	s.done(start)
	return ok, err
}

func (s *storeProbe) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	start := time.Now()
	b, ok, err := s.Store.SolveUnder(body, sub)
	s.done(start)
	return b, ok, err
}

func (s *storeProbe) Route(qs []eq.Query) (db.Store, bool) {
	if s.router == nil {
		return nil, false
	}
	view, ok := s.router.Route(qs)
	if !ok {
		return nil, false
	}
	return &storeProbe{Store: view, p: s.p}, true
}

func (s *storeProbe) PlanStats() db.PlanCacheStats {
	st, _ := db.AggregatePlanStats(s.Store)
	return st
}

// --- fault.FS ---

// fsProbe times every write and fsync the persistence layer issues.
type fsProbe struct {
	fault.FS
	p *probes
}

func (f fsProbe) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &fileProbe{File: file, p: f.p}, nil
}

func (f fsProbe) WriteFile(name string, data []byte, perm fs.FileMode) error {
	start := time.Now()
	err := f.FS.WriteFile(name, data, perm)
	end := time.Now()
	f.p.fsWrite.add(len(data), end.Sub(start))
	f.p.rec.record(0, 0, "persist.write", start, end)
	return err
}

func (f fsProbe) SyncDir(name string) error {
	start := time.Now()
	err := f.FS.SyncDir(name)
	f.p.observeSync("persist.syncdir", start)
	return err
}

type fileProbe struct {
	fault.File
	p *probes
}

func (f *fileProbe) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	end := time.Now()
	f.p.fsWrite.add(n, end.Sub(start))
	f.p.rec.record(0, 0, "persist.write", start, end)
	return n, err
}

func (f *fileProbe) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.p.observeSync("persist.sync", start)
	return err
}

// --- net.Listener ---

// listenerProbe counts the bytes and write calls on every connection a
// server accepts.
type listenerProbe struct {
	net.Listener
	p *probes
}

func (l listenerProbe) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &connProbe{Conn: c, p: l.p}, nil
}

type connProbe struct {
	net.Conn
	p *probes
}

func (c *connProbe) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.netRead.add(n, 0)
	}
	return n, err
}

func (c *connProbe) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	end := time.Now()
	c.p.netWrite.add(n, end.Sub(start))
	c.p.rec.record(0, 0, "net.write", start, end)
	return n, err
}
