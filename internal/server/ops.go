package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"entangled/internal/api"
	"entangled/internal/stream"
	"entangled/internal/wire"
)

// handler binds one wire.Op to the function serving it on this node.
// The HTTP, binary and forward adapters are generic over handlers:
// adding an operation means one descriptor in internal/wire and one
// serve function bound in bindOps.
type handler struct {
	op *wire.Op
	// serve runs the op here; a zero status means op.Status.
	serve func(ctx context.Context, req any) (rep any, status int, err error)
	// after, when set, runs on the binary connection once a success
	// reply is written.
	after func(wc *wireConn, req any)
}

// bind adapts a typed serve function to the op's untyped values,
// checking once, at startup, that the types agree with the descriptor.
func bind[Q, R any](op *wire.Op, serve func(context.Context, *Q) (*R, int, error)) *handler {
	if _, ok := op.NewReq().(*Q); !ok {
		panic("server: " + op.Name + " bound to a serve function of another request type")
	}
	if op.NewRep != nil {
		if _, ok := op.NewRep().(*R); !ok {
			panic("server: " + op.Name + " bound to a serve function of another reply type")
		}
	}
	return &handler{op: op, serve: func(ctx context.Context, req any) (any, int, error) {
		rep, status, err := serve(ctx, req.(*Q))
		if status == 0 {
			status = op.Status
		}
		if rep == nil {
			return nil, status, err // no typed nil inside the interface
		}
		return rep, status, err
	}}
}

// bindOps binds every operation of wire.Ops to its serve function.
func (s *Server) bindOps() []*handler {
	sub := bind(wire.OpSubscribe, s.subscribe)
	// Reply before flushing the backlog, so the client observes
	// "subscribed" before the first notification.
	sub.after = func(wc *wireConn, req any) { s.push.subscribe(wc, req.(*wire.SessionReq).Session) }
	return []*handler{
		bind(wire.OpCoordinate, s.coordinate),
		bind(wire.OpCreateSession, s.createSession),
		bind(wire.OpJoin, s.join),
		bind(wire.OpLeave, s.leave),
		bind(wire.OpStatus, s.sessionStatus),
		bind(wire.OpDeleteSession, s.deleteSession),
		sub,
		bind(wire.OpHealth, s.health),
		bind(wire.OpCluster, s.clusterStatus),
		bind(wire.OpRecovery, s.recoveryStatus),
		bind(wire.OpMetrics, s.metrics),
		bind(wire.OpTenants, s.tenants),
	}
}

// outcome is one request's result, ready for either protocol's writer:
// a reply value served here, or a reply payload relayed from the
// owning node, or an error.
type outcome struct {
	status int
	rep    any
	// relay is the payload a forward came back with, passed on byte for
	// byte over the binary protocol; from names the node that sent it.
	relay []byte
	from  string
	// cost is the exact DBQueries the reply reports, for the edge
	// tenant's ledger.
	cost int64
	err  error
}

// exec runs one decoded request where it belongs. At the edge node
// admission gates it first (a batch is gated per request by its
// scatter); a session-placed request the ring gives to another node
// forwards there, anything else is served here; the gate is then
// settled exactly once with the DBQueries the reply reports.
func (s *Server) exec(ctx context.Context, h *handler, req any) outcome {
	op := h.op
	var settle func(int64)
	if op.Place != wire.PlaceBatch && !forwarded(ctx) {
		var err error
		if settle, err = s.gate(ctx, op.Gate); err != nil {
			return outcome{err: err}
		}
	}
	var o outcome
	if node, ok := s.ownerElsewhere(op, req); ok {
		o = s.forward(ctx, op, req, node)
	} else {
		o.rep, o.status, o.err = h.serve(ctx, req)
		if o.err == nil && op.Cost != nil {
			o.cost = op.Cost(o.rep)
		}
	}
	if settle != nil {
		settle(o.cost)
	}
	return o
}

// gate decides one request against its tenant's policy. The returned
// settle, when non-nil, must be called exactly once with the work's
// DBQueries: it frees the in-flight slot and lands the charge. Metered
// ops are never throttled.
func (s *Server) gate(ctx context.Context, g wire.Gate) (func(int64), error) {
	if s.adm == nil || g == wire.GateNone {
		return nil, nil
	}
	ten := s.tenantOf(ctx)
	if g == wire.GateMeter {
		return func(dbq int64) { s.adm.ChargeDB(ten, dbq) }, nil
	}
	if err := s.adm.Decide(ten); err != nil {
		return nil, err
	}
	return func(dbq int64) { s.adm.Done(ten, dbq) }, nil
}

// badRequest is the bad_request failure both protocols report verbatim.
func badRequest(format string, args ...any) error {
	return &wire.ReplyError{Status: http.StatusBadRequest, Code: api.CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// coordinate serves a batch: every request is admitted into the shared
// batcher individually, so requests from concurrent calls coalesce
// into the same CoordinateMany dispatches. Rejections (queue full,
// draining, throttled) come back inline as that request's error — the
// call itself succeeds so one hot spot cannot fail a whole batch.
func (s *Server) coordinate(ctx context.Context, q *wire.CoordinateReq) (*api.CoordinateResponse, int, error) {
	if n := len(q.Requests); n == 0 {
		return nil, 0, badRequest("empty batch")
	} else if n > s.opts.MaxBatch {
		return nil, 0, badRequest("batch of %d exceeds the %d-request cap", n, s.opts.MaxBatch)
	}
	return &api.CoordinateResponse{Responses: s.serveBatchRouted(ctx, q.Requests)}, 0, nil
}

// createSession creates one named (or, with an empty name, generated)
// session.
func (s *Server) createSession(_ context.Context, q *wire.CreateSessionReq) (*api.CreateSessionResponse, int, error) {
	if err := s.writeGate(); err != nil {
		return nil, 0, err
	}
	h, err := s.reg.create(q.ID, q.ParkUnsafe)
	if err != nil {
		return nil, 0, err
	}
	return &api.CreateSessionResponse{ID: h.name}, 0, nil
}

func (s *Server) join(ctx context.Context, q *wire.JoinReq) (*api.Update, int, error) {
	return s.sessionEvent(ctx, q.Session, stream.Event{Kind: stream.JoinEvent, Query: q.Query})
}

func (s *Server) leave(ctx context.Context, q *wire.LeaveReq) (*api.Update, int, error) {
	return s.sessionEvent(ctx, q.Session, stream.Event{Kind: stream.LeaveEvent, ID: q.QueryID})
}

// sessionEvent resolves the session and posts the event through its
// mailbox, metering the trip. A parked arrival answers 202 Accepted
// with the update: the query is queued for retry, not live. The
// degraded gate runs before the event touches the session: a rejected
// event was never applied, so its fate is known and the client can
// retry it freely.
func (s *Server) sessionEvent(ctx context.Context, name string, ev stream.Event) (*api.Update, int, error) {
	if err := s.writeGate(); err != nil {
		return nil, 0, err
	}
	h, err := s.reg.get(name)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	up, err := h.post(ctx, ev)
	s.met.sessionLatency.observe(time.Since(start))
	s.met.sessionEvents.Add(1)
	if err != nil {
		return nil, 0, err
	}
	u := api.UpdateFrom(up)
	if up.Parked {
		return &u, http.StatusAccepted, nil
	}
	return &u, 0, nil
}

// sessionStatus snapshots one session as its API DTO.
func (s *Server) sessionStatus(_ context.Context, q *wire.StatusReq) (*api.SessionStatus, int, error) {
	h, err := s.reg.get(q.Session)
	if err != nil {
		return nil, 0, err
	}
	h.touch()
	// One locked snapshot: Result's indices must agree with Queries
	// even while other clients join and leave this session.
	snap, err := h.sess.Status(q.Trace)
	if err != nil {
		return nil, 0, fmt.Errorf("reading session state: %v", err)
	}
	return &api.SessionStatus{
		ID:       h.name,
		Live:     len(snap.Queries),
		Parked:   snap.Parked,
		Queries:  snap.Queries,
		Result:   snap.Result,
		Totals:   api.TotalsFrom(snap.Totals),
		Trace:    snap.Trace,
		TeamSize: snap.Result.Size(),
	}, 0, nil
}

// deleteSession removes one session. Deletion is a write: it drops the
// journal from the data directory, and a drop the degraded filesystem
// loses would resurrect the session on restart.
func (s *Server) deleteSession(_ context.Context, q *wire.SessionReq) (*struct{}, int, error) {
	if err := s.writeGate(); err != nil {
		return nil, 0, err
	}
	return nil, 0, s.reg.remove(q.Session)
}

// subscribe checks the session exists; the binding's after hook then
// registers the connection for its pushes.
func (s *Server) subscribe(_ context.Context, q *wire.SessionReq) (*struct{}, int, error) {
	_, err := s.reg.get(q.Session)
	return nil, 0, err
}

// health reports liveness and drain state. Always answered (never an
// error): the work endpoints are the ones that reject during a drain,
// and a health probe that can still be answered should be.
func (s *Server) health(context.Context, *struct{}) (*api.Health, int, error) {
	h := &api.Health{
		Status:   "ok",
		Sessions: s.reg.open(),
		UptimeS:  time.Since(s.met.start).Seconds(),
	}
	if s.opts.Persist != nil && s.opts.Persist.Degraded() {
		h.Status = "degraded"
		h.Degraded = true
		if cause := s.opts.Persist.DegradeCause(); cause != nil {
			h.DegradedCause = cause.Error()
		}
	}
	if c := s.opts.Cluster; c != nil {
		h.Cluster = c.Health()
	}
	// Draining wins: a shutting-down server is past caring about its
	// disk, and probes should steer traffic away either way.
	if s.draining() {
		h.Status = "draining"
	}
	return h, 0, nil
}

// clusterStatus reports the node's membership view; a standalone server
// answers enabled=false so clients can probe for cluster mode.
func (s *Server) clusterStatus(context.Context, *struct{}) (*api.ClusterStatus, int, error) {
	cs := api.ClusterStatus{}
	if c := s.opts.Cluster; c != nil {
		cs = c.Status()
	}
	return &cs, 0, nil
}

// recoveryStatus reports what this process replayed at startup; with
// no durable backend it answers enabled=false, so clients can probe
// for durability. Degraded state is live (sampled per request), not a
// startup snapshot.
func (s *Server) recoveryStatus(context.Context, *struct{}) (*api.RecoveryStatus, int, error) {
	rec := s.recovery
	if s.opts.Persist != nil && s.opts.Persist.Degraded() {
		rec.Degraded = true
		if cause := s.opts.Persist.DegradeCause(); cause != nil {
			rec.DegradedCause = cause.Error()
		}
	}
	return &rec, 0, nil
}

// tenants reports each tenant's effective policy and live accounting.
// Without admission it answers enabled=false, so clients can probe for
// the feature.
func (s *Server) tenants(context.Context, *struct{}) (*api.TenantsStatus, int, error) {
	ts := &api.TenantsStatus{}
	if s.adm != nil {
		ts.Enabled = true
		for _, sn := range s.adm.Snapshot() {
			ts.Tenants = append(ts.Tenants, api.TenantStatus{
				Tenant:         string(sn.Tenant),
				Policy:         sn.Policy,
				InFlight:       sn.InFlight,
				QueueDepth:     s.batch.queueDepth(sn.Tenant),
				Admitted:       sn.Admitted,
				Throttled:      sn.Throttled(),
				DBQueriesSpent: sn.DBQueriesSpent,
				DBBalance:      sn.DBBalance,
			})
		}
	}
	return ts, 0, nil
}

// metrics reports counters, latency histograms, plan-cache and
// per-session stats, and the cluster, admission and persistence blocks
// of the layers that are on.
func (s *Server) metrics(context.Context, *struct{}) (*api.Metrics, int, error) {
	m := &api.Metrics{
		UptimeS: time.Since(s.met.start).Seconds(),
		Coordinate: api.CoordinateMetrics{
			Requests:  s.met.coordRequests.Load(),
			Batches:   s.met.coordBatches.Load(),
			Errors:    s.met.coordErrors.Load(),
			Rejected:  s.met.coordRejected.Load(),
			DBQueries: s.met.coordQueries.Load(),
			Latency:   s.met.coordLatency.snapshot(),
		},
		Sessions: api.SessionMetrics{
			Created: s.reg.created.Load(),
			Evicted: s.reg.evicted.Load(),
			Events:  s.met.sessionEvents.Load(),
			Latency: s.met.sessionLatency.snapshot(),
		},
	}
	handles := s.reg.snapshot()
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	for _, h := range handles {
		t := h.sess.Totals()
		m.Sessions.Open++
		m.Sessions.DBQueries += t.DBQueries
		m.Sessions.PerSession = append(m.Sessions.PerSession, api.SessionCounters{
			ID:        h.name,
			Live:      h.sess.Size(),
			Parked:    h.sess.ParkedCount(),
			Events:    t.Events,
			DBQueries: t.DBQueries,
		})
	}
	if pc, ok := planStats(s.e.Store()); ok {
		m.PlanCache = &pc
	}
	if c := s.opts.Cluster; c != nil {
		m.Cluster = c.Metrics()
	}
	if s.adm != nil {
		m.Admission = s.admissionMetrics()
	}
	if s.opts.Persist != nil {
		pm := s.opts.Persist.Metrics()
		m.Persist = &api.PersistMetrics{
			StoreAppends:    pm.StoreAppends,
			StoreBytes:      pm.StoreBytes,
			StoreSyncs:      pm.StoreSyncs,
			StoreRotations:  pm.StoreRotations,
			SessionAppends:  pm.SessionAppends,
			SessionBytes:    pm.SessionBytes,
			SessionSyncs:    pm.SessionSyncs,
			OpenJournals:    pm.OpenJournals,
			SnapshotSeq:     pm.SnapshotSeq,
			Compactions:     pm.Compactions,
			Degraded:        pm.Degraded,
			DegradeEvents:   pm.DegradeEvents,
			Probes:          pm.Probes,
			ProbeFailures:   pm.ProbeFailures,
			PendingAppends:  pm.PendingAppends,
			CompactFailures: pm.CompactFailures,
		}
	}
	return m, 0, nil
}
