package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/wire"
)

// clusterTransport routes calls across a coordserve cluster: it
// fetches the membership from the seed node's /v1/cluster, rebuilds
// the consistent-hash ring locally (the ring is a pure function of
// membership + virtual-node count, so client and servers agree
// byte-for-byte), and holds one pooled binary transport per node.
// Session ops go straight to the session's owner; batch requests are
// partitioned by the same placement rule the servers use and
// scatter-gathered client-side. A route_moved reply — the ring this
// client holds is stale — triggers one refresh-and-reroute toward the
// owner the server named; a misrouted call that a server can serve by
// forwarding is simply served (one extra hop), so a stale client
// degrades to forwarding, never to failure.
type clusterTransport struct {
	seed string
	// tenant propagates to every pooled per-node transport, so each
	// edge node sees the same identity.
	tenant string

	mu        sync.Mutex
	ring      *cluster.Ring
	placement map[string]int
	addrs     map[string]string           // node name -> binary addr
	conns     map[string]*binaryTransport // binary addr -> pooled transport
	closed    bool
}

func newClusterTransport(seed, tenant string) *clusterTransport {
	return &clusterTransport{seed: seed, tenant: tenant, conns: map[string]*binaryTransport{}}
}

// connFor returns (creating if needed) the pooled transport for one
// node address.
func (t *clusterTransport) connFor(addr string) (*binaryTransport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errClientClosed
	}
	bt := t.conns[addr]
	if bt == nil {
		bt = newBinaryTransport(addr, t.tenant)
		t.conns[addr] = bt
	}
	return bt, nil
}

// knownAddrs returns every address worth asking for the ring: the
// membership we hold (sorted for determinism), then the seed.
func (t *clusterTransport) knownAddrs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	addrs := make([]string, 0, len(t.addrs)+1)
	for _, a := range t.addrs {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	if len(addrs) == 0 {
		addrs = append(addrs, t.seed)
	}
	return addrs
}

// refresh re-fetches the cluster status and rebuilds the ring, trying
// every known node until one answers.
func (t *clusterTransport) refresh(ctx context.Context) error {
	var cs api.ClusterStatus
	if err := t.call(ctx, wire.OpCluster, nil, &cs); err != nil {
		return fmt.Errorf("client: fetching cluster membership: %w", err)
	}
	if !cs.Enabled || len(cs.Nodes) == 0 {
		return fmt.Errorf("client: %s is not part of a cluster", t.seed)
	}
	names := make([]string, len(cs.Nodes))
	addrs := make(map[string]string, len(cs.Nodes))
	for i, n := range cs.Nodes {
		names[i] = n.Name
		addrs[n.Name] = n.Addr
	}
	placement := make(map[string]int, len(cs.Relations))
	for _, rp := range cs.Relations {
		placement[rp.Relation] = rp.Column
	}
	t.mu.Lock()
	t.ring = cluster.NewRing(names, cs.VirtualNodes)
	t.addrs = addrs
	t.placement = placement
	t.mu.Unlock()
	return nil
}

// view returns the current ring state, fetching it on first use.
func (t *clusterTransport) view(ctx context.Context) (*cluster.Ring, map[string]int, map[string]string, error) {
	t.mu.Lock()
	ring, placement, addrs := t.ring, t.placement, t.addrs
	t.mu.Unlock()
	if ring != nil {
		return ring, placement, addrs, nil
	}
	if err := t.refresh(ctx); err != nil {
		return nil, nil, nil, err
	}
	t.mu.Lock()
	ring, placement, addrs = t.ring, t.placement, t.addrs
	t.mu.Unlock()
	return ring, placement, addrs, nil
}

// ownerConn resolves the pooled transport of node, or of the node the
// ring says owns session when node is empty.
func (t *clusterTransport) ownerConn(ctx context.Context, session, node string) (*binaryTransport, error) {
	ring, _, addrs, err := t.view(ctx)
	if err != nil {
		return nil, err
	}
	if node == "" {
		node = ring.Owner(session)
	}
	addr, ok := addrs[node]
	if !ok {
		return nil, fmt.Errorf("client: cluster has no node %q", node)
	}
	return t.connFor(addr)
}

// sessionCall routes one session-scoped call to the session's owner,
// and on a route_moved reply (this client's ring was stale) refreshes
// the ring and retries exactly once against the owner the server
// named.
func (t *clusterTransport) sessionCall(ctx context.Context, session string, fn func(*binaryTransport) error) error {
	bt, err := t.ownerConn(ctx, session, "")
	if err != nil {
		return err
	}
	err = fn(bt)
	var e *Error
	if !errors.As(err, &e) || e.Code != api.CodeRouteMoved || t.refresh(ctx) != nil {
		return err
	}
	if bt, cerr := t.ownerConn(ctx, session, e.Owner); cerr == nil {
		return fn(bt)
	}
	return err
}

// call routes one op by its placement: a batch scatters across owners,
// a session op goes to the session's owner (with one refresh-and-retry
// on route_moved), and a local op — or a create that lets the server
// name the session, which the serving node names self-owned — goes to
// the first node that answers.
func (t *clusterTransport) call(ctx context.Context, op *wire.Op, req, rep any) error {
	switch op.Place {
	case wire.PlaceBatch:
		return t.scatter(ctx, req.(*wire.CoordinateReq).Requests, rep.(*api.CoordinateResponse))
	case wire.PlaceSession, wire.PlaceOwner:
		if name := *op.Session(req); name != "" {
			return t.sessionCall(ctx, name, func(bt *binaryTransport) error { return bt.call(ctx, op, req, rep) })
		}
	}
	var lastErr error
	for _, addr := range t.knownAddrs() {
		bt, err := t.connFor(addr)
		if err != nil {
			return err
		}
		err = bt.call(ctx, op, req, rep)
		var e *Error
		if err == nil || errors.As(err, &e) {
			return err // served, or a service-level answer another node would repeat
		}
		lastErr = err
	}
	return lastErr
}

// scatter partitions a batch by owner exactly as the servers do and
// scatter-gathers it client-side; a node that fails fails only its own
// slice, inline.
func (t *clusterTransport) scatter(ctx context.Context, reqs []api.Request, rep *api.CoordinateResponse) error {
	ring, placement, addrs, err := t.view(ctx)
	if err != nil {
		return err
	}
	// A request with no single owner can be served (and, server-side,
	// scatter-gathered) by any node, so spread those by request ID.
	groups := map[string][]int{}
	for i, rq := range reqs {
		node, ok := cluster.OwnerOfQueries(ring, placement, rq.Queries)
		if !ok {
			node = ring.Owner(rq.ID)
		}
		groups[node] = append(groups[node], i)
	}
	out := make([]api.Response, len(reqs))
	var wg sync.WaitGroup
	for node, idxs := range groups {
		sub := make([]api.Request, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		wg.Add(1)
		go func(node string, idxs []int, sub []api.Request) {
			defer wg.Done()
			fail := func(err error) {
				we := &api.Error{Code: api.CodePeerUnavailable,
					Message: fmt.Sprintf("cluster: node %s (%s) unreachable: %v", node, addrs[node], err)}
				var e *Error
				if errors.As(err, &e) {
					we = &api.Error{Code: e.Code, Message: e.Message, Owner: e.Owner,
						RetryAfterMS: int64(e.RetryAfter / time.Millisecond)}
				}
				for _, i := range idxs {
					out[i] = api.Response{ID: reqs[i].ID, Error: we}
				}
			}
			bt, err := t.connFor(addrs[node])
			if err != nil {
				fail(err)
				return
			}
			var rep api.CoordinateResponse
			err = bt.call(ctx, wire.OpCoordinate, &wire.CoordinateReq{Requests: sub}, &rep)
			resps := rep.Responses
			if err != nil || len(resps) != len(sub) {
				if err == nil {
					err = fmt.Errorf("%d responses for %d requests", len(resps), len(sub))
				}
				fail(err)
				return
			}
			for j, i := range idxs {
				out[i] = resps[j]
			}
		}(node, idxs, sub)
	}
	wg.Wait()
	rep.Responses = out
	return nil
}

func (t *clusterTransport) subscribe(ctx context.Context, session string, fn func(Notification)) (func(), error) {
	// Push flows only from the session's owner (subscribing elsewhere
	// answers route_moved), so the subscription lives on the owner's
	// pooled connection.
	var stop func()
	err := t.sessionCall(ctx, session, func(bt *binaryTransport) error {
		var err error
		stop, err = bt.subscribe(ctx, session, fn)
		return err
	})
	return stop, err
}

func (t *clusterTransport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*binaryTransport, 0, len(t.conns))
	for _, bt := range t.conns {
		conns = append(conns, bt)
	}
	t.mu.Unlock()
	for _, bt := range conns {
		bt.close()
	}
	return nil
}
