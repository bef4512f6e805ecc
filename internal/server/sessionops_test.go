package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// sessionStep is one session-scoped call of the pinned script. Only the
// fields its kind uses are set.
type sessionStep struct {
	what    string
	kind    wire.Kind
	park    bool
	query   eq.Query
	queryID string
	trace   bool
}

// rawOutcome is everything a caller of either protocol can observe
// about one reply: the HTTP(-equivalent) status, the error envelope's
// code, message and owner, whether a retry-after hint came back, and
// the success body normalized to JSON (an update's wall-clock
// elapsed_ns zeroed).
type rawOutcome struct {
	status int
	code   string
	msg    string
	owner  string
	hint   bool
	body   string
}

// normalizedBody renders a success body as comparable JSON.
func normalizedBody(t *testing.T, up *api.Update, v any) string {
	t.Helper()
	if up != nil {
		up.ElapsedNS = 0
		v = up
	}
	if v == nil {
		return ""
	}
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// httpStep issues one step as a raw net/http request with the tenant
// header, bypassing the typed client so the status and body are seen
// exactly as sent.
func httpStep(t *testing.T, base, tenant, session string, st sessionStep) rawOutcome {
	t.Helper()
	path := "/v1/sessions/" + url.PathEscape(session)
	method := http.MethodPost
	var in any
	switch st.kind {
	case wire.KindCreateSession:
		path, in = "/v1/sessions", api.CreateSessionRequest{ID: session, ParkUnsafe: st.park}
	case wire.KindJoin:
		path, in = path+"/join", api.JoinRequest{Query: st.query}
	case wire.KindLeave:
		path, in = path+"/leave", api.LeaveRequest{ID: st.queryID}
	case wire.KindStatus:
		method = http.MethodGet
		if st.trace {
			path += "?trace=1"
		}
	case wire.KindDeleteSession:
		method = http.MethodDelete
	default:
		t.Fatalf("%s has no HTTP route", st.kind)
	}
	var body io.Reader
	if in != nil {
		js, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := rawOutcome{status: resp.StatusCode}
	if resp.StatusCode >= 400 {
		var env api.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
			t.Fatalf("%s: HTTP %d with unreadable envelope %q", st.what, resp.StatusCode, raw)
		}
		out.code, out.msg, out.owner, out.hint = env.Error.Code, env.Error.Message, env.Error.Owner, env.Error.RetryAfterMS > 0
		return out
	}
	switch st.kind {
	case wire.KindJoin, wire.KindLeave:
		var up api.Update
		if err := json.Unmarshal(raw, &up); err != nil {
			t.Fatal(err)
		}
		out.body = normalizedBody(t, &up, nil)
	default:
		out.body = string(bytes.TrimSpace(raw))
	}
	return out
}

// encodeStep appends the step's binary request body.
func encodeStep(t *testing.T, session string, st sessionStep) func(*wire.Enc) {
	switch st.kind {
	case wire.KindCreateSession:
		return wire.CreateSessionReq{ID: session, ParkUnsafe: st.park}.Encode
	case wire.KindJoin:
		return wire.JoinReq{Session: session, Query: st.query}.Encode
	case wire.KindLeave:
		return wire.LeaveReq{Session: session, QueryID: st.queryID}.Encode
	case wire.KindStatus:
		return wire.StatusReq{Session: session, Trace: st.trace}.Encode
	case wire.KindDeleteSession, wire.KindSubscribe:
		return wire.SessionReq{Session: session}.Encode
	}
	t.Fatalf("no binary encoding for %s", st.kind)
	return nil
}

// outcomeOfWire renders a binary reply (from a direct call or a peer
// forward) as a rawOutcome.
func outcomeOfWire(t *testing.T, kind wire.Kind, status int, body []byte, err error) rawOutcome {
	t.Helper()
	if err != nil {
		var re *wire.ReplyError
		if !errors.As(err, &re) {
			t.Fatalf("%s: transport failure %v", kind, err)
		}
		return rawOutcome{status: re.Status, code: re.Code, msg: re.Message, owner: re.Owner, hint: re.RetryAfterMS > 0}
	}
	out := rawOutcome{status: status}
	d := wire.NewDec(body)
	switch kind {
	case wire.KindCreateSession:
		out.body = normalizedBody(t, nil, api.CreateSessionResponse{ID: d.String()})
	case wire.KindJoin, wire.KindLeave:
		up := wire.GetUpdate(d)
		out.body = normalizedBody(t, &up, nil)
	case wire.KindStatus:
		out.body = normalizedBody(t, nil, wire.GetSessionStatus(d))
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("%s: malformed reply body: %v", kind, err)
	}
	return out
}

// binaryStep issues one step as a raw binary frame inside the tenant
// envelope.
func binaryStep(t *testing.T, cc *wire.ClientConn, tenant, session string, st sessionStep) rawOutcome {
	t.Helper()
	var inner wire.Enc
	encodeStep(t, session, st)(&inner)
	status, body, err := cc.Call(context.Background(), wire.KindTenant,
		wire.TenantReq{Tenant: tenant, Kind: st.kind, Body: inner.Bytes()}.Encode)
	return outcomeOfWire(t, st.kind, status, body, err)
}

// ledger is one tenant's admission accounting on one node.
type ledger struct {
	admitted, throttled, spent int64
	inFlight                   int
}

// ledgerOf reads one tenant's ledger; the empty tenant sums them all.
func ledgerOf(ctrl *admission.Controller, tenant string) ledger {
	var l ledger
	for _, sn := range ctrl.Snapshot() {
		if tenant == "" || string(sn.Tenant) == tenant {
			l.admitted += sn.Admitted
			l.throttled += sn.Throttled()
			l.spent += sn.DBQueriesSpent
			l.inFlight += sn.InFlight
		}
	}
	return l
}

func (l ledger) minus(o ledger) ledger {
	return ledger{admitted: l.admitted - o.admitted, throttled: l.throttled - o.throttled, spent: l.spent - o.spent}
}

// newTenantCluster boots a 3-node loopback cluster in which every node
// has its own admission controller under the same policy — so each
// node keeps its own tenant ledger, as separate processes would.
func newTenantCluster(t *testing.T, rows int, cfg admission.Config) (*loopCluster, []*admission.Controller) {
	t.Helper()
	lc := &loopCluster{tb: t, shards: 1, rows: rows}
	lns := make([]net.Listener, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		lc.members = append(lc.members, cluster.Node{Name: "n" + strconv.Itoa(i+1), Addr: ln.Addr().String()})
	}
	ctrls := make([]*admission.Controller, len(lns))
	lc.nodes = make([]*clusterNode, len(lns))
	for i := range lns {
		ctrls[i] = admission.NewController(cfg)
		lc.sopts = server.Options{Admission: ctrls[i]}
		lc.nodes[i] = lc.boot(i, lns[i])
	}
	t.Cleanup(func() {
		for _, cn := range lc.nodes {
			lc.stop(cn)
		}
	})
	return lc, ctrls
}

// TestSessionOpsForwardedMatchSingleNodeWithTenants pins every
// session-scoped operation — named create, join, leave, status, delete,
// subscribe — entering over HTTP and over the binary protocol, at the
// session's owner and at a non-owner of a 3-node cluster in which every
// node runs the same tenant policy. Each step must answer exactly like
// a standalone node under the same policy (status, code, message,
// owner, body), and the tenant ledger must be charged once, at the
// edge node the client talked to, with the DBQueries the owner
// reported: creates and joins are gated there, leaves are metered but
// never gated, and nothing is charged again at the owner. A forward
// that reaches a node not owning its session answers route_moved.
func TestSessionOpsForwardedMatchSingleNodeWithTenants(t *testing.T) {
	const rows = 32
	// Five admission tokens that never refill: the script's two creates
	// and three joins take them all, so its fourth join throttles and
	// the leave after it still runs.
	cfg := admission.Config{Default: admission.Policy{Rate: 0.0001, Burst: 5}}
	lc, ctrls := newTenantCluster(t, rows, cfg)
	single := newAdmissionLoopback(t, &cfg, server.Options{})
	ctx := context.Background()

	singleLedger := func(tenant string) ledger {
		t.Helper()
		ts, err := single.client("http", "").Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range ts.Tenants {
			if tn.Tenant == tenant {
				return ledger{admitted: tn.Admitted, throttled: tn.Throttled, spent: tn.DBQueriesSpent, inFlight: tn.InFlight}
			}
		}
		return ledger{}
	}

	script := func() []sessionStep {
		trio := unsafeTrio("pin")
		return []sessionStep{
			{what: "create", kind: wire.KindCreateSession, park: true},
			{what: "duplicate create", kind: wire.KindCreateSession, park: true},
			{what: "join a", kind: wire.KindJoin, query: trio[0]},
			{what: "join a2", kind: wire.KindJoin, query: trio[1]},
			{what: "parked join p", kind: wire.KindJoin, query: trio[2]},
			{what: "throttled join", kind: wire.KindJoin, query: workload.ChainQuery(0, 0, rows)},
			{what: "leave a (admits p)", kind: wire.KindLeave, queryID: trio[0].ID},
			{what: "leave unknown", kind: wire.KindLeave, queryID: "nobody"},
			{what: "status", kind: wire.KindStatus, trace: true},
			{what: "subscribe", kind: wire.KindSubscribe},
			{what: "delete", kind: wire.KindDeleteSession},
			{what: "status after delete", kind: wire.KindStatus},
			{what: "delete after delete", kind: wire.KindDeleteSession},
			{what: "subscribe after delete", kind: wire.KindSubscribe},
		}
	}

	edge := 0 // clients talk to n1
	singleBin, err := wire.Dial(single.binAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer singleBin.Close()
	edgeBin, err := wire.Dial(lc.nodes[edge].addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeBin.Close()

	for _, proto := range []string{"http", "binary"} {
		for _, ownerName := range []string{"n1", "n2"} {
			at := "owner"
			if ownerName != lc.nodes[edge].name {
				at = "non-owner"
			}
			tenant := proto + "-" + at
			session := lc.nameOwnedBy("pin-"+tenant+"-", ownerName)
			var gated, subs int
			var charged int64
			for _, st := range script() {
				if proto == "http" && st.kind == wire.KindSubscribe {
					continue // push is binary-only; HTTP clients poll
				}
				what := proto + " at " + at + ": " + st.what
				beforeC := make([]ledger, len(ctrls))
				for i, c := range ctrls {
					beforeC[i] = ledgerOf(c, tenant)
				}
				beforeS := singleLedger(tenant)

				var got, want rawOutcome
				if proto == "http" {
					got = httpStep(t, lc.nodes[edge].hs.URL, tenant, session, st)
					want = httpStep(t, single.httpURL, tenant, session, st)
				} else {
					got = binaryStep(t, edgeBin, tenant, session, st)
					want = binaryStep(t, singleBin, tenant, session, st)
				}
				if st.kind == wire.KindSubscribe && at == "non-owner" {
					// Push flows only from the owner's session loop, so a
					// subscribe is never forwarded: a non-owner names the
					// owner instead.
					want = rawOutcome{status: http.StatusMisdirectedRequest, code: api.CodeRouteMoved,
						msg:   "cluster: route moved: session " + session + " is owned by " + ownerName,
						owner: ownerName}
				}
				if got != want {
					t.Fatalf("%s: cluster answered %+v, single node %+v", what, got, want)
				}

				dS := singleLedger(tenant).minus(beforeS)
				for i, c := range ctrls {
					d := ledgerOf(c, tenant).minus(beforeC[i])
					if i != edge {
						if d != (ledger{}) {
							t.Fatalf("%s: node %s charged %+v; only the edge may be", what, lc.nodes[i].name, d)
						}
						continue
					}
					if d != dS {
						t.Fatalf("%s: edge ledger moved %+v, single node %+v", what, d, dS)
					}
				}
				switch st.kind {
				case wire.KindCreateSession, wire.KindJoin:
					gated++
					if dS.admitted+dS.throttled != 1 {
						t.Fatalf("%s: gated op decided %d times", what, dS.admitted+dS.throttled)
					}
				default:
					if dS.admitted != 0 || dS.throttled != 0 {
						t.Fatalf("%s: ungated op went through the gate: %+v", what, dS)
					}
				}
				if st.kind == wire.KindSubscribe {
					subs++
				}
				// The charge is exactly the DBQueries the owner's update
				// reports: once, never doubled across the hop.
				if (st.kind == wire.KindJoin || st.kind == wire.KindLeave) && got.status < 300 {
					var up api.Update
					if err := json.Unmarshal([]byte(got.body), &up); err != nil {
						t.Fatal(err)
					}
					charged += dS.spent
					if dS.spent != up.Stats.DBQueries {
						t.Fatalf("%s: ledger charged %d for an update reporting %d DBQueries", what, dS.spent, up.Stats.DBQueries)
					}
				} else if dS.spent != 0 {
					t.Fatalf("%s: charged %d DBQueries for an op with no store work", what, dS.spent)
				}
				if st.what == "throttled join" && (got.code != api.CodeThrottled || !got.hint) {
					t.Fatalf("%s: %+v, want throttled with a retry-after hint", what, got)
				}
				if st.what == "leave a (admits p)" && got.status != http.StatusOK {
					t.Fatalf("%s: %+v; leaves are never gated", what, got)
				}
			}
			if gated != 6 || (proto == "binary") != (subs == 2) || charged == 0 {
				t.Fatalf("%s at %s: script ran %d gated ops and %d subscribes, charged %d DBQueries", proto, at, gated, subs, charged)
			}
			// Every admitted slot was released on every node.
			for deadline := time.Now().Add(5 * time.Second); ; {
				busy := singleLedger(tenant).inFlight
				for _, c := range ctrls {
					busy += ledgerOf(c, tenant).inFlight
				}
				if busy == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s at %s: %d admission slots never released", proto, at, busy)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// A forward is terminal: one that reaches a node not owning its
	// session answers route_moved naming the owner, for every session
	// kind, and touches neither the session nor any ledger.
	session := lc.nameOwnedBy("pin-moved-", "n3")
	if _, err := lc.binTo(t, 2).CreateSession(ctx, session, false); err != nil {
		t.Fatal(err)
	}
	for _, st := range script() {
		before := ledgerOf(ctrls[1], "")
		status, body, err := lc.nodes[0].router.Forward(ctx, "n2", st.kind, encodeStep(t, session, st))
		got := outcomeOfWire(t, st.kind, status, body, err)
		if got.status != http.StatusMisdirectedRequest || got.code != api.CodeRouteMoved || got.owner != "n3" {
			t.Fatalf("forwarded %s to a non-owner: %+v, want 421 route_moved owned by n3", st.what, got)
		}
		if d := ledgerOf(ctrls[1], "").minus(before); d != (ledger{}) {
			t.Fatalf("forwarded %s to a non-owner moved its ledger: %+v", st.what, d)
		}
	}
	if _, err := lc.binTo(t, 2).Session(session).Status(ctx, false); err != nil {
		t.Fatalf("session disturbed by misrouted forwards: %v", err)
	}
}
