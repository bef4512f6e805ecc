package server

import (
	"context"

	"entangled/internal/api"
	"entangled/internal/wire"
)

// serveBatchRouted is the cluster-aware batch path: a standalone server
// (or a forwarded sub-batch — forwards are terminal, a receiver never
// re-scatters) serves everything locally; a cluster node scatter-gathers
// the batch across owners with its own slice going through serveBatch.
//
// Admission gates here, at the edge: the node that received the batch
// from a client decides each request against the tenant's policy,
// scatter-gathers only the admitted subset (forwarded sub-batches are
// pre-admitted and never re-gated), and settles the exact DBQueries
// charge when the gathered responses come back — so a tenant's spend
// accrues on the nodes it talks to, not wherever the ring placed its
// data.
func (s *Server) serveBatchRouted(ctx context.Context, reqs []api.Request) []api.Response {
	c := s.opts.Cluster
	fwd := forwarded(ctx)
	serve := func(reqs []api.Request) []api.Response {
		if c == nil || fwd {
			return s.serveBatch(ctx, reqs)
		}
		return c.ServeBatch(ctx, reqs, s.serveBatch)
	}
	if s.adm == nil || fwd {
		return serve(reqs)
	}
	ten := s.tenantOf(ctx)
	out := make([]api.Response, len(reqs))
	admitted := make([]api.Request, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, rq := range reqs {
		if err := s.adm.Decide(ten); err != nil {
			// Inline, like the other per-request rejections: one throttled
			// tenant in a mixed batch must not fail its batchmates.
			s.met.coordRequests.Add(1)
			s.met.coordRejected.Add(1)
			out[i] = api.Response{ID: rq.ID, Error: api.WireError(err)}
			continue
		}
		admitted = append(admitted, rq)
		idx = append(idx, i)
	}
	if len(admitted) > 0 {
		resps := serve(admitted)
		for j, i := range idx {
			out[i] = resps[j]
			var dbq int64
			if resps[j].Result != nil {
				dbq = resps[j].Result.DBQueries
			}
			s.adm.Done(ten, dbq)
		}
	}
	return out
}

// forwardedKey marks a request unwrapped from a KindForward envelope.
type forwardedKey struct{}

// forwarded reports whether the request arrived as a cluster forward.
// Forwards are terminal and pre-admitted: the node that received one
// never forwards, scatters or gates it again.
func forwarded(ctx context.Context) bool { return ctx.Value(forwardedKey{}) != nil }

// ownerElsewhere reports the peer owning a session-placed request;
// ok=false when this node serves it (standalone, or the ring says the
// session is ours). An empty session name (an auto-named create) is
// served wherever it lands: the registry generates self-owned names.
func (s *Server) ownerElsewhere(op *wire.Op, req any) (string, bool) {
	c := s.opts.Cluster
	if c == nil || op.Session == nil || *op.Session(req) == "" {
		return "", false
	}
	owner := c.Owner(*op.Session(req))
	return owner, owner != c.Self()
}

// forward is the cluster hop for a request owned by node: one wrapped
// frame to the owner, whose reply payload comes back to be relayed as
// this node's own — byte for byte over the binary protocol, decoded
// for HTTP — with a service-level failure relayed verbatim and a
// transport failure typed. A forwarded request (forwards are terminal)
// and an owner-only op answer route_moved instead. The reply is decoded
// here only for ops with a Cost, to settle the edge tenant's exact
// DBQueries.
func (s *Server) forward(ctx context.Context, op *wire.Op, req any, node string) outcome {
	if forwarded(ctx) || op.Place == wire.PlaceOwner {
		return outcome{err: s.opts.Cluster.RouteMoved("session", *op.Session(req))}
	}
	status, body, err := s.opts.Cluster.Forward(ctx, node, op.Kind, func(e *wire.Enc) { op.PutReq(e, req) })
	o := outcome{status: status, relay: body, from: node, err: err}
	if err == nil && op.Cost != nil && status < 300 {
		rep := op.NewRep()
		d := wire.NewDec(body)
		if op.GetRep(d, rep); d.Finish() == nil {
			o.rep, o.cost = rep, op.Cost(rep)
		}
	}
	return o
}
