package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/fault"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// tenantPolicy is batch-bin's non-binding admission policy: two tenants
// with DRR weights 1 and 2 and no limits, so admission schedules but
// never throttles.
func tenantPolicy() admission.Config {
	return admission.Config{Tenants: map[string]admission.Policy{
		"t1": {Weight: 1},
		"t2": {Weight: 2},
	}}
}

func tenantOf(cl int) string { return "t" + strconv.Itoa(cl+1) }

// node is one serving process, booted in this process.
type node struct {
	name    string
	store   db.Store // the serving store, unwrapped
	backend *persist.Backend
	router  *cluster.Router
	srv     *server.Server
	hs      *http.Server
	addr    string
	served  chan struct{} // closed when the serve loop has returned
}

// stack is the whole serving stack plus the two clients driving it.
type stack struct {
	w       *spec
	p       *probes // nil on untraced runs
	nodes   []*node
	ring    *ringView // nil unless clustered
	dir     string    // durable data directory
	clients []*clientState
	closed  bool
}

// boot starts the serving stack for w: stores, servers, listeners and
// (on a cluster) routers; then the clients and their sessions, with
// every session prefilled through the client. dir is a fresh directory
// for the durable workload.
func boot(ctx context.Context, w *spec, seed int64, p *probes, dir string) (_ *stack, err error) {
	st := &stack{w: w, p: p, dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	lns := make([]net.Listener, w.nodes)
	var members []cluster.Node
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns[i] = ln
		members = append(members, cluster.Node{Name: "n" + strconv.Itoa(i+1), Addr: ln.Addr().String()})
	}
	if w.nodes > 1 {
		names := make([]string, len(members))
		for i, m := range members {
			names[i] = m.Name
		}
		st.ring = newRingView(names)
	}
	for i, ln := range lns {
		n, err := st.bootNode(members, i, ln)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	if err := st.openClients(ctx, seed); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) bootNode(members []cluster.Node, i int, ln net.Listener) (*node, error) {
	n := &node{name: members[i].Name, addr: members[i].Addr, served: make(chan struct{})}
	var store db.Store
	if st.w.durable {
		b, err := openDurable(st.dir, st.p)
		if err != nil {
			ln.Close()
			return nil, err
		}
		n.backend, store = b, b
	} else {
		store = workload.NewStore(storeShards, tableRows, 0)
	}
	n.store = store
	opts := server.Options{Persist: n.backend}
	if st.w.admission {
		opts.Admission = admission.NewController(tenantPolicy())
	}
	if st.ring != nil {
		r, err := cluster.New(cluster.Config{Self: n.name, Nodes: members}, cluster.Options{
			Placement: placementOf(store),
			Dial:      func(addr string) cluster.PeerConn { return client.DialPeer(addr) },
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		n.router, opts.Cluster = r, r
	}
	serving := store
	if st.p != nil {
		serving = newStoreProbe(store, st.p)
		ln = listenerProbe{Listener: ln, p: st.p}
	}
	srv, err := server.New(engine.New(serving, engine.Options{}), opts)
	if err != nil {
		ln.Close()
		n.close()
		return nil, err
	}
	n.srv = srv
	if st.w.proto == "http" {
		n.hs = &http.Server{Handler: srv}
		go func() {
			defer close(n.served)
			n.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
	} else {
		go func() {
			defer close(n.served)
			srv.ServeWire(ln) // returns when Close stops the listener
		}()
	}
	return n, nil
}

// placementOf is the cluster work placement: the store's own hash
// partitioning.
func placementOf(store db.Store) map[string]int {
	if sh, ok := store.(*db.ShardedInstance); ok {
		return sh.HashColumns()
	}
	return workload.Placement()
}

// openDurable seeds a fresh data directory with the canonical table in
// one bulk load (no per-row fsync), snapshots it, and reopens it with
// fsync on every append, recovering the store from the snapshot.
func openDurable(dir string, p *probes) (*persist.Backend, error) {
	seed, err := persist.Open(dir, persist.Options{Shards: storeShards, Sync: persist.SyncNever})
	if err != nil {
		return nil, fmt.Errorf("opening data dir: %w", err)
	}
	if err := db.ApplyAll(seed, workload.UserTableMutations(tableRows)); err != nil {
		seed.Close()
		return nil, fmt.Errorf("seeding data dir: %w", err)
	}
	if err := seed.Compact(); err != nil {
		seed.Close()
		return nil, fmt.Errorf("snapshotting seed: %w", err)
	}
	if err := seed.Close(); err != nil {
		return nil, fmt.Errorf("closing seeded data dir: %w", err)
	}
	return reopenDurable(dir, p)
}

func reopenDurable(dir string, p *probes) (*persist.Backend, error) {
	opts := persist.Options{Shards: storeShards, Sync: persist.SyncAlways}
	if p != nil {
		opts.FS = fsProbe{FS: fault.OS, p: p}
	}
	b, err := persist.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopening data dir: %w", err)
	}
	return b, nil
}

// close stops the node: HTTP listener, server drain, cluster router,
// then the durable backend.
func (n *node) close() error {
	if n.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.hs.Shutdown(ctx)
		cancel()
	}
	if n.srv != nil {
		n.srv.Close()
		<-n.served
	}
	if n.router != nil {
		n.router.Close()
	}
	if n.backend != nil {
		return n.backend.Close()
	}
	return nil
}

// openClients dials the two clients (each its own connection to the
// entry node), builds their inputs and prefills their sessions.
func (st *stack) openClients(ctx context.Context, seed int64) error {
	entry := st.nodes[0]
	names := sessionNames(st.w, st.ring)
	for cl := 0; cl < numClients; cl++ {
		opts := client.Options{}
		base := "tcp://" + entry.addr
		if st.w.proto == "http" {
			base = "http://" + entry.addr
			opts.HTTPClient = &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}}
		}
		if st.w.admission {
			opts.Tenant = tenantOf(cl)
		}
		c, err := client.New(base, opts)
		if err != nil {
			return err
		}
		cs := &clientState{id: cl, c: c, httpClient: opts.HTTPClient}
		st.clients = append(st.clients, cs)
		if st.w.issuesBatches() {
			cs.pool = batchPool(st.w, seed, cl, st.ring)
		}
		for s, name := range names[cl] {
			gen := newChainGen(rngFor(seed, cl, 1+s), (cl*st.w.sessions+s)*st.w.chains, st.w.chains, st.w.chainLen)
			ss := &sessState{name: name, gen: gen, live: map[string]bool{}}
			ss.remote = st.ring != nil && st.ring.ring.Owner(name) != entry.name
			cs.sess = append(cs.sess, ss)
		}
	}
	// Prefill both clients' sessions concurrently, as two callers would.
	errs := make([]error, len(st.clients))
	var wg sync.WaitGroup
	for i, cs := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cs.prefill(ctx, st.w.chainLen)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// prefill creates the client's sessions and joins their initial chains.
func (cs *clientState) prefill(ctx context.Context, length int) error {
	for _, ss := range cs.sess {
		h, err := cs.c.CreateSession(ctx, ss.name, false)
		if err != nil {
			return fmt.Errorf("creating session %s: %w", ss.name, err)
		}
		ss.h = h
		for _, q := range ss.gen.prefill(length) {
			up, err := h.Join(ctx, q)
			if err != nil {
				return fmt.Errorf("prefilling %s: %w", ss.name, err)
			}
			if !up.Admitted || up.Parked {
				return fmt.Errorf("prefilling %s: join of %s not admitted", ss.name, q.ID)
			}
			ss.live[q.ID] = true
		}
	}
	return nil
}

// close releases the clients and every node. It is idempotent.
func (st *stack) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	for _, cs := range st.clients {
		cs.c.Close()
		if cs.httpClient != nil {
			cs.httpClient.CloseIdleConnections()
		}
	}
	var errs []error
	for _, n := range st.nodes {
		if err := n.close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// scrape reads every node's public /metrics.
func (st *stack) scrape() ([]api.Metrics, error) {
	out := make([]api.Metrics, len(st.nodes))
	for i, n := range st.nodes {
		rec := httptest.NewRecorder()
		n.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s /metrics: HTTP %d", n.name, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out[i]); err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", n.name, err)
		}
	}
	return out, nil
}

// localStatus reads one session's status through the server's public
// HTTP handler, in process.
func localStatus(srv *server.Server, name string) (*api.SessionStatus, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+name, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var st api.SessionStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	return &st, nil
}

// planStats sums the plan-cache counters of every node's store.
func (st *stack) planStats() db.PlanCacheStats {
	var sum db.PlanCacheStats
	for _, n := range st.nodes {
		if s, ok := db.AggregatePlanStats(n.store); ok {
			sum.Hits += s.Hits
			sum.Misses += s.Misses
		}
	}
	return sum
}

// storeQueries sums every node's store query counter.
func (st *stack) storeQueries() int64 {
	var sum int64
	for _, n := range st.nodes {
		sum += n.store.QueriesIssued()
	}
	return sum
}

// persistSyncs sums the durable backends' WAL and journal fsyncs.
func (st *stack) persistSyncs() int64 {
	var sum int64
	for _, n := range st.nodes {
		if n.backend != nil {
			m := n.backend.Metrics()
			sum += m.StoreSyncs + m.SessionSyncs
		}
	}
	return sum
}

// forwardsSent sums the cluster forwards every node sent.
func (st *stack) forwardsSent() int64 {
	var sum int64
	for _, n := range st.nodes {
		if n.router != nil {
			sum += n.router.Metrics().ForwardsSent
		}
	}
	return sum
}
