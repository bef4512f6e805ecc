package wire

import (
	"net/http"

	"entangled/internal/api"
)

// Placement says which node of a cluster serves an operation.
type Placement uint8

const (
	// PlaceLocal ops are served by whichever node receives them.
	PlaceLocal Placement = iota
	// PlaceSession ops belong to the node owning their session name; any
	// other node forwards them there in one terminal hop.
	PlaceSession
	// PlaceOwner ops must arrive at their session's owner and are never
	// forwarded: anywhere else they answer route_moved.
	PlaceOwner
	// PlaceBatch ops split their requests by owner and scatter-gather.
	PlaceBatch
)

// Gate says how tenant admission treats an operation at the edge node,
// the one the client talked to. Forwarded requests were decided there
// and are never gated again.
type Gate uint8

const (
	// GateNone ops are neither decided nor charged.
	GateNone Gate = iota
	// GateAdmit ops are decided before any work or forward and charged
	// their exact DBQueries. A batch is decided per request.
	GateAdmit
	// GateMeter ops are never throttled (shedding load must not block
	// releasing it) but are charged their exact DBQueries.
	GateMeter
)

// Op describes one service operation once, for both protocols, both
// ends of the connection and the cluster hop.
//
// Request values are pointers to the op's request struct (an empty
// struct when it has none), reply values pointers to its api reply
// DTO. Over HTTP a POST carries the request as a JSON body (the request
// structs' JSON matches the api request DTOs), a {id} route segment
// carries the session name, and Flag rides as the query parameter
// ?trace=1; GET and DELETE carry no body. Over the binary protocol the
// request body and reply payload use the codecs below.
type Op struct {
	// Name identifies the op in diagnostics.
	Name string
	// Kind is the binary request kind; zero for HTTP-only ops.
	Kind Kind
	// Method and Route are the HTTP method and path pattern; empty for
	// binary-only ops.
	Method, Route string
	Place         Placement
	Gate          Gate
	// Status is the HTTP(-equivalent) success status.
	Status int

	// NewReq returns a zeroed request value.
	NewReq func() any
	// NewRep returns a zeroed reply value; nil when the op replies
	// with its status alone.
	NewRep func() any
	// PutReq and GetReq are the binary request body codec; PutRep and
	// GetRep the reply payload codec (nil without a reply).
	PutReq func(e *Enc, req any)
	GetReq func(d *Dec, req any)
	PutRep func(e *Enc, rep any)
	GetRep func(d *Dec, rep any)
	// Session points at the request's session name (nil for ops not
	// placed by session). An empty name on a create asks the serving
	// node to generate one it owns.
	Session func(req any) *string
	// Flag points at the request's boolean query parameter, if any.
	Flag func(req any) *bool
	// Cost reads the exact DBQueries a reply reports, for gated ops
	// whose work touches the store.
	Cost func(rep any) int64
}

// newOp fills o's codecs from typed request (Q) and reply (R) codecs.
// A nil putQ means the request has no binary body; a nil putR means
// the op replies with its status alone.
func newOp[Q, R any](o Op, putQ func(Q, *Enc), getQ func(*Dec) Q, putR func(*Enc, R), getR func(*Dec) R) *Op {
	o.NewReq = func() any { return new(Q) }
	o.PutReq = func(*Enc, any) {}
	o.GetReq = func(*Dec, any) {}
	if putQ != nil {
		o.PutReq = func(e *Enc, req any) { putQ(*req.(*Q), e) }
		o.GetReq = func(d *Dec, req any) { *req.(*Q) = getQ(d) }
	}
	if putR != nil {
		o.NewRep = func() any { return new(R) }
		o.PutRep = func(e *Enc, rep any) { putR(e, *rep.(*R)) }
		o.GetRep = func(d *Dec, rep any) { *rep.(*R) = getR(d) }
	}
	return &o
}

// updateCost is the Cost of the session events.
func updateCost(rep any) int64 { return rep.(*api.Update).Stats.DBQueries }

// The service's operations. Adding one means one descriptor here and
// one serve function bound to it in internal/server.
var (
	OpCoordinate = newOp(Op{Name: "coordinate", Kind: KindCoordinate,
		Method: http.MethodPost, Route: "/v1/coordinate",
		Place: PlaceBatch, Gate: GateAdmit, Status: http.StatusOK},
		CoordinateReq.Encode, DecodeCoordinateReq,
		func(e *Enc, r api.CoordinateResponse) { PutResponses(e, r.Responses) },
		func(d *Dec) api.CoordinateResponse { return api.CoordinateResponse{Responses: GetResponses(d)} })

	OpCreateSession = newOp(Op{Name: "create_session", Kind: KindCreateSession,
		Method: http.MethodPost, Route: "/v1/sessions",
		Place: PlaceSession, Gate: GateAdmit, Status: http.StatusCreated,
		Session: func(req any) *string { return &req.(*CreateSessionReq).ID }},
		CreateSessionReq.Encode, DecodeCreateSessionReq,
		func(e *Enc, r api.CreateSessionResponse) { e.String(r.ID) },
		func(d *Dec) api.CreateSessionResponse { return api.CreateSessionResponse{ID: d.String()} })

	OpJoin = newOp(Op{Name: "join", Kind: KindJoin,
		Method: http.MethodPost, Route: "/v1/sessions/{id}/join",
		Place: PlaceSession, Gate: GateAdmit, Status: http.StatusOK,
		Session: func(req any) *string { return &req.(*JoinReq).Session },
		Cost:    updateCost},
		JoinReq.Encode, DecodeJoinReq, PutUpdate, GetUpdate)

	OpLeave = newOp(Op{Name: "leave", Kind: KindLeave,
		Method: http.MethodPost, Route: "/v1/sessions/{id}/leave",
		Place: PlaceSession, Gate: GateMeter, Status: http.StatusOK,
		Session: func(req any) *string { return &req.(*LeaveReq).Session },
		Cost:    updateCost},
		LeaveReq.Encode, DecodeLeaveReq, PutUpdate, GetUpdate)

	OpStatus = newOp(Op{Name: "status", Kind: KindStatus,
		Method: http.MethodGet, Route: "/v1/sessions/{id}",
		Place: PlaceSession, Status: http.StatusOK,
		Session: func(req any) *string { return &req.(*StatusReq).Session },
		Flag:    func(req any) *bool { return &req.(*StatusReq).Trace }},
		StatusReq.Encode, DecodeStatusReq, PutSessionStatus, GetSessionStatus)

	OpDeleteSession = newOp[SessionReq, struct{}](Op{Name: "delete_session", Kind: KindDeleteSession,
		Method: http.MethodDelete, Route: "/v1/sessions/{id}",
		Place: PlaceSession, Status: http.StatusNoContent,
		Session: func(req any) *string { return &req.(*SessionReq).Session }},
		SessionReq.Encode, DecodeSessionReq, nil, nil)

	// OpSubscribe registers the connection for one session's push
	// notifications; push flows only from the owner's session loop.
	OpSubscribe = newOp[SessionReq, struct{}](Op{Name: "subscribe", Kind: KindSubscribe,
		Place: PlaceOwner, Status: http.StatusOK,
		Session: func(req any) *string { return &req.(*SessionReq).Session }},
		SessionReq.Encode, DecodeSessionReq, nil, nil)

	OpHealth = newOp[struct{}](Op{Name: "health", Kind: KindHealth,
		Method: http.MethodGet, Route: "/healthz", Status: http.StatusOK},
		nil, nil, PutHealth, GetHealth)

	OpCluster = newOp[struct{}](Op{Name: "cluster", Kind: KindCluster,
		Method: http.MethodGet, Route: "/v1/cluster", Status: http.StatusOK},
		nil, nil, PutClusterStatus, GetClusterStatus)

	OpRecovery = httpOnly[api.RecoveryStatus]("recovery", "/v1/recovery")
	OpMetrics  = httpOnly[api.Metrics]("metrics", "/metrics")
	OpTenants  = httpOnly[api.TenantsStatus]("tenants", "/v1/tenants")
)

// httpOnly describes a read-only GET served over HTTP alone.
func httpOnly[R any](name, route string) *Op {
	return &Op{Name: name, Method: http.MethodGet, Route: route, Status: http.StatusOK,
		NewReq: func() any { return new(struct{}) },
		NewRep: func() any { return new(R) }}
}

// Ops is the operation table, in wire-kind order, HTTP-only ops last.
var Ops = []*Op{
	OpCoordinate, OpCreateSession, OpJoin, OpLeave, OpStatus, OpDeleteSession,
	OpSubscribe, OpHealth, OpCluster, OpRecovery, OpMetrics, OpTenants,
}
