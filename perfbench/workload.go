package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// Store shape shared by every workload: the canonical T(key, val) table
// of the paper's experiments, hash-partitioned on val across four shards.
const (
	tableRows   = 20000
	storeShards = 4
	numClients  = 2
)

// spec is one workload: the stack it boots and the traffic each of the
// two closed-loop clients sends. Sizes are part of the workload; run
// length is not.
type spec struct {
	name string
	why  string
	// proto is "binary" or "http".
	proto string
	// durable serves from a persist backend with fsync on every append.
	durable bool
	// nodes is 1, or 3 for an in-process loopback cluster.
	nodes int
	// admission runs the two clients as tenants with weights 1 and 2.
	admission bool

	// batchReqs is the number of requests per batch call (0: no batches).
	batchReqs int
	// eventsPerBatch is the number of session events a client sends
	// before each batch call (0: batch calls only).
	eventsPerBatch int
	// poolCalls is the number of distinct batch calls each client cycles
	// through; each pool is warmed once and then checked exactly.
	poolCalls int
	// sessions is the number of sessions each client owns, each
	// prefilled with chains backward chains of chainLen queries.
	sessions, chains, chainLen int
	// exactOps is the number of ops per client the exact-count phase
	// runs (0: one pass over the batch pool).
	exactOps int
}

// issuesBatches and issuesEvents report which op types the workload sends.
func (w *spec) issuesBatches() bool { return w.batchReqs > 0 }
func (w *spec) issuesEvents() bool  { return w.sessions > 0 }

// small shrinks a workload for the package test: same shape, a fraction
// of the size.
func (w spec) small() *spec {
	w.poolCalls = min(w.poolCalls, 6)
	if w.chains > 0 {
		w.chains = min(w.chains, 4)
		w.chainLen = min(w.chainLen, 6)
	}
	if w.exactOps > 0 {
		w.exactOps = 24
	}
	return &w
}

var workloads = []*spec{
	{
		name:      "batch-bin",
		why:       "Binary batches on a 4-shard in-memory store under two weighted tenants: engine, coord, db, wire codec, batcher and DRR admission do the work; no reconcile, fsync or forward.",
		proto:     "binary",
		nodes:     1,
		admission: true,
		batchReqs: 16,
		poolCalls: 64,
	},
	{
		name:     "session-large",
		why:      "Binary session events on sessions held near 1024 live queries: per-event reconcile CPU and GC dominate, the batch path is idle; the size where linear per-event growth shows.",
		proto:    "binary",
		nodes:    1,
		sessions: 1, chains: 64, chainLen: 16,
		exactOps: 256,
	},
	{
		name:           "mixed-http-durable",
		why:            "HTTP/JSON session events beside small batches on a persist backend with fsync always: journal fsync and the JSON codec dominate; the only workload on HTTP and on disk.",
		proto:          "http",
		durable:        true,
		nodes:          1,
		batchReqs:      4,
		eventsPerBatch: 3,
		poolCalls:      32,
		sessions:       1, chains: 4, chainLen: 16,
		exactOps: 384,
	},
	{
		name:           "cluster-forward",
		why:            "Three loopback nodes, clients on n1: two thirds of session events forward to their owner and one batch call in four scatter-gathers; the only workload with the forward hop.",
		proto:          "binary",
		nodes:          3,
		batchReqs:      8,
		eventsPerBatch: 3,
		poolCalls:      32,
		sessions:       3, chains: 4, chainLen: 16,
		exactOps: 384,
	},
}

func workloadByName(name string) (*spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// rngFor derives an independent deterministic stream for one part of
// one client's input from the run seed.
func rngFor(seed int64, client, part int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + int64(part)))
}

// batchCall is one CoordinateBatch call of a client's pool.
type batchCall struct {
	reqs []api.Request
	// remoteSlices is the number of distinct nodes other than the
	// entry node owning some request: the forwards a cluster sends.
	remoteSlices int
	// want holds the results of the warm-up pass, checked against the
	// benchmark's own store copy; later passes must repeat them exactly.
	want []*wantResult
}

// ringView is the benchmark's replica of the cluster ring, used only to
// choose inputs: which values and session names each node owns.
type ringView struct {
	ring  *cluster.Ring
	nodes []string
}

func newRingView(nodes []string) *ringView {
	return &ringView{ring: cluster.NewRing(nodes, cluster.DefaultVNodes), nodes: nodes}
}

func (r *ringView) ownerOfValue(at int) string {
	return r.ring.OwnerOfValue(eq.Value("c" + strconv.Itoa(at)))
}

// valueOwnedBy draws a table value owned by node.
func (r *ringView) valueOwnedBy(node string, rng *rand.Rand) int {
	for {
		if at := rng.Intn(tableRows); r.ownerOfValue(at) == node {
			return at
		}
	}
}

// batchPool builds one client's pool of batch calls. Chain lengths
// cycle through 4..16 in a fixed order, so every seed sends the same
// mix of sizes; the seed draws the table values and the scale-free
// graphs.
//
//   - batch-bin: 16 requests, three in four ListQueriesAt chains of 4-16
//     queries (single-shard routable), one in four a 16-query
//     ScaleFreeQueries set (cross-shard, non-trivial SCCs).
//   - mixed-http-durable: 4 ListQueriesAt chains.
//   - cluster-forward: 8 ListQueriesAt chains; three calls in four pin
//     values owned by the entry node, one in four spreads its requests
//     over every node and scatter-gathers.
func batchPool(w *spec, seed int64, cl int, ring *ringView) []*batchCall {
	rng := rngFor(seed, cl, 0)
	pool := make([]*batchCall, w.poolCalls)
	for i := range pool {
		call := &batchCall{reqs: make([]api.Request, w.batchReqs)}
		scatter := ring != nil && i%4 == 3
		remote := map[string]bool{}
		for j := range call.reqs {
			var qs []eq.Query
			length := 4 + (i*w.batchReqs+j)%13
			switch {
			case w.admission && j%4 == 3:
				qs = workload.ScaleFreeQueries(16, 2, tableRows, rng)
			case ring != nil:
				owner := ring.nodes[0]
				if scatter {
					owner = ring.nodes[j%len(ring.nodes)]
				}
				if owner != ring.nodes[0] {
					remote[owner] = true
				}
				qs = workload.ListQueriesAt(length, ring.valueOwnedBy(owner, rng))
			default:
				qs = workload.ListQueriesAt(length, rng.Intn(tableRows))
			}
			call.reqs[j] = api.Request{ID: fmt.Sprintf("k%d.b%d.r%d", cl, i, j), Queries: qs}
		}
		call.remoteSlices = len(remote)
		pool[i] = call
	}
	return pool
}

// sessionNames names each client's sessions. On a cluster, session s of
// every client is owned by node s, so one session in three is local to
// the entry node and two forward.
func sessionNames(w *spec, ring *ringView) [][]string {
	out := make([][]string, numClients)
	next := 0
	for cl := range out {
		for s := 0; s < w.sessions; s++ {
			for {
				name := fmt.Sprintf("k%d-s%d-%d", cl, s, next)
				next++
				if ring == nil || ring.ring.Owner(name) == ring.nodes[s%len(ring.nodes)] {
					out[cl] = append(out[cl], name)
					break
				}
			}
		}
	}
	return out
}

// eventKind is one session operation.
type eventKind int

const (
	joinEvent eventKind = iota
	leaveEvent
)

// event is one generated session event.
type event struct {
	kind  eventKind
	query eq.Query // joins
	id    string   // leaves
}

// chainGen generates a session's events over workload.ChainQuery
// scenarios, deterministic under its rng. It holds the session near its
// prefilled size with a four-event cycle:
//
//  1. join a new tail on a short chain,
//  2. clip the tail of a long chain,
//  3. depart an interior member, which strands the suffix behind it
//     and triggers the pruning cascade,
//  4. rejoin that member, which repairs the suffix.
//
// Every join is paired with a leave and half the leaves are interior.
// Chain lengths stay within half and one and a half times the prefill
// length, so the session's shape is stationary over a run.
type chainGen struct {
	rng      *rand.Rand
	base     int     // scenario id of chain 0
	live     [][]int // chain -> live member indices, ascending
	lo, hi   int
	step     int
	rejoinC  int // chain and member of the pending rejoin
	rejoinAt int
}

func newChainGen(rng *rand.Rand, base, chains, length int) *chainGen {
	return &chainGen{
		rng:  rng,
		base: base,
		live: make([][]int, chains),
		lo:   max(1, length/2),
		hi:   length + max(1, length/2),
	}
}

// prefill returns the joins that build the session: chains backward
// chains of length queries each.
func (g *chainGen) prefill(length int) []eq.Query {
	var qs []eq.Query
	for c := range g.live {
		for i := 0; i < length; i++ {
			qs = append(qs, workload.ChainQuery(g.base+c, i, tableRows))
			g.live[c] = append(g.live[c], i)
		}
	}
	return qs
}

// pick draws a chain whose length satisfies ok, or the longest chain
// when none does (the total size is fixed, so the longest chain is never
// shorter than the prefill length).
func (g *chainGen) pick(ok func(n int) bool) int {
	var cands []int
	longest := 0
	for c, m := range g.live {
		if ok(len(m)) {
			cands = append(cands, c)
		}
		if len(m) > len(g.live[longest]) {
			longest = c
		}
	}
	if len(cands) == 0 {
		return longest
	}
	return cands[g.rng.Intn(len(cands))]
}

func (g *chainGen) next() event {
	step := g.step % 4
	g.step++
	switch step {
	case 0: // join a new tail
		c := g.pick(func(n int) bool { return n < g.hi })
		i := 0
		if m := g.live[c]; len(m) > 0 {
			i = m[len(m)-1] + 1
		}
		g.live[c] = append(g.live[c], i)
		return event{kind: joinEvent, query: workload.ChainQuery(g.base+c, i, tableRows)}
	case 1: // clip a tail
		c := g.pick(func(n int) bool { return n > g.lo })
		m := g.live[c]
		i := m[len(m)-1]
		g.live[c] = m[:len(m)-1]
		return event{kind: leaveEvent, id: chainID(g.base+c, i)}
	case 2: // depart an interior member
		c := g.pick(func(n int) bool { return n >= 2 })
		m := g.live[c]
		k := g.rng.Intn(len(m) - 1)
		i := m[k]
		g.live[c] = append(m[:k], m[k+1:]...)
		g.rejoinC, g.rejoinAt = c, i
		return event{kind: leaveEvent, id: chainID(g.base+c, i)}
	default: // rejoin it
		c, i := g.rejoinC, g.rejoinAt
		m := g.live[c]
		k := sort.SearchInts(m, i)
		m = append(m, 0)
		copy(m[k+1:], m[k:])
		m[k] = i
		g.live[c] = m
		return event{kind: joinEvent, query: workload.ChainQuery(g.base+c, i, tableRows)}
	}
}

// chainID is the query ID workload.ChainQuery gives member i of a
// scenario.
func chainID(scenario, i int) string { return workload.ChainQuery(scenario, i, 1).ID }
