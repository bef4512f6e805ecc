package wire

import (
	"fmt"

	"entangled/internal/api"
	"entangled/internal/eq"
)

// Kind discriminates message payloads. Client-to-server kinds name an
// operation — its route, codecs and placement are its descriptor in
// Ops — or wrap one in an envelope; server-to-client frames are either
// a Reply correlated to a request id or an unsolicited Push.
type Kind uint8

// Operation kinds.
const (
	KindCoordinate    Kind = 1
	KindCreateSession Kind = 2
	KindJoin          Kind = 3
	KindLeave         Kind = 4
	KindStatus        Kind = 5
	KindDeleteSession Kind = 6
	KindSubscribe     Kind = 7
	KindHealth        Kind = 8
	KindCluster       Kind = 10
)

const (
	// KindForward wraps another request for node-to-node forwarding
	// inside a cluster: origin metadata, then the inner kind and its
	// body verbatim. Forwarded frames are terminal — a receiver that
	// does not own the target answers route_moved instead of forwarding
	// again, so a request crosses at most one node boundary.
	KindForward Kind = 9
	// KindTenant wraps another client request with a tenant identity
	// for admission accounting: the tenant name, then the inner kind
	// and its body verbatim to the end of the frame (the binary
	// analogue of the HTTP X-Tenant header). The envelope must be
	// outermost: tenant-in-tenant and tenant-in-forward are protocol
	// errors, and forwards never carry one — admission is decided and
	// accounted at the edge node.
	KindTenant Kind = 11

	// KindReply answers the request with the same id.
	KindReply Kind = 0x80
	// KindPush is an unsolicited server notification (id 0).
	KindPush Kind = 0x81
)

// kindNames names every declared kind.
var kindNames = map[Kind]string{
	KindCoordinate: "coordinate", KindCreateSession: "create_session", KindJoin: "join",
	KindLeave: "leave", KindStatus: "status", KindDeleteSession: "delete_session",
	KindSubscribe: "subscribe", KindHealth: "health", KindForward: "forward",
	KindCluster: "cluster", KindTenant: "tenant", KindReply: "reply", KindPush: "push",
}

// String names the kind for diagnostics.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Header is the fixed prefix of every frame payload: the message kind
// and the pipelining id correlating replies to requests (0 for push).
type Header struct {
	Kind Kind
	ID   uint64
}

// PutHeader appends a message header.
func PutHeader(e *Enc, h Header) {
	e.Byte(byte(h.Kind))
	e.Uvarint(h.ID)
}

// GetHeader reads a message header.
func GetHeader(d *Dec) Header {
	return Header{Kind: Kind(d.Byte()), ID: d.Uvarint()}
}

// --- request bodies (client to server) ---
//
// Each request struct's JSON is its HTTP body: the session name rides
// the route instead, so it is excluded.

// CoordinateReq is the body of a KindCoordinate request.
type CoordinateReq struct {
	Requests []api.Request `json:"requests"`
}

// Encode appends the request body.
func (m CoordinateReq) Encode(e *Enc) { PutRequests(e, m.Requests) }

// DecodeCoordinateReq reads a KindCoordinate body.
func DecodeCoordinateReq(d *Dec) CoordinateReq {
	return CoordinateReq{Requests: GetRequests(d)}
}

// CreateSessionReq is the body of a KindCreateSession request.
type CreateSessionReq struct {
	ID         string `json:"id,omitempty"`
	ParkUnsafe bool   `json:"park_unsafe,omitempty"`
}

// Encode appends the request body.
func (m CreateSessionReq) Encode(e *Enc) {
	e.String(m.ID)
	e.Bool(m.ParkUnsafe)
}

// DecodeCreateSessionReq reads a KindCreateSession body.
func DecodeCreateSessionReq(d *Dec) CreateSessionReq {
	return CreateSessionReq{ID: d.String(), ParkUnsafe: d.Bool()}
}

// JoinReq is the body of a KindJoin request.
type JoinReq struct {
	Session string   `json:"-"`
	Query   eq.Query `json:"query"`
}

// Encode appends the request body.
func (m JoinReq) Encode(e *Enc) {
	e.String(m.Session)
	PutQuery(e, m.Query)
}

// DecodeJoinReq reads a KindJoin body.
func DecodeJoinReq(d *Dec) JoinReq {
	return JoinReq{Session: d.String(), Query: GetQuery(d)}
}

// LeaveReq is the body of a KindLeave request.
type LeaveReq struct {
	Session string `json:"-"`
	QueryID string `json:"id"`
}

// Encode appends the request body.
func (m LeaveReq) Encode(e *Enc) {
	e.String(m.Session)
	e.String(m.QueryID)
}

// DecodeLeaveReq reads a KindLeave body.
func DecodeLeaveReq(d *Dec) LeaveReq {
	return LeaveReq{Session: d.String(), QueryID: d.String()}
}

// StatusReq is the body of a KindStatus request.
type StatusReq struct {
	Session string `json:"-"`
	Trace   bool   `json:"-"`
}

// Encode appends the request body.
func (m StatusReq) Encode(e *Enc) {
	e.String(m.Session)
	e.Bool(m.Trace)
}

// DecodeStatusReq reads a KindStatus body.
func DecodeStatusReq(d *Dec) StatusReq {
	return StatusReq{Session: d.String(), Trace: d.Bool()}
}

// SessionReq is the body of KindDeleteSession and KindSubscribe: just
// the session name.
type SessionReq struct {
	Session string `json:"-"`
}

// Encode appends the request body.
func (m SessionReq) Encode(e *Enc) { e.String(m.Session) }

// DecodeSessionReq reads a session-name-only body.
func DecodeSessionReq(d *Dec) SessionReq { return SessionReq{Session: d.String()} }

// Forward is the body of a KindForward request: the origin node's name
// (diagnostics and metrics), a hop count (always 1 on the wire today —
// forwards are terminal — carried explicitly so the invariant is
// checkable), and the wrapped request verbatim. The reply to a forward
// is the reply the inner request would have received, so the origin
// relays the reply body byte-for-byte.
type Forward struct {
	Origin string
	Hops   int
	Kind   Kind
	Body   []byte
}

// Encode appends the forward envelope.
func (m Forward) Encode(e *Enc) {
	e.String(m.Origin)
	e.Int(m.Hops)
	e.Byte(byte(m.Kind))
	e.Uvarint(uint64(len(m.Body)))
	e.Raw(m.Body)
}

// DecodeForward reads a forward envelope.
func DecodeForward(d *Dec) Forward {
	f := Forward{Origin: d.String(), Hops: d.Int(), Kind: Kind(d.Byte())}
	n := d.Uvarint()
	if d.err != nil {
		return f
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Sprintf("forward body length %d exceeds remaining %d bytes", n, d.Remaining()))
		return f
	}
	f.Body = d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return f
}

// TenantReq is the body of a KindTenant envelope: the tenant identity,
// then the wrapped request verbatim — no length prefix, the inner body
// runs to the end of the frame. Decoding aliases the input buffer.
type TenantReq struct {
	Tenant string
	Kind   Kind
	Body   []byte
}

// Encode appends the tenant envelope.
func (m TenantReq) Encode(e *Enc) {
	e.String(m.Tenant)
	e.Byte(byte(m.Kind))
	e.Raw(m.Body)
}

// DecodeTenantReq reads a tenant envelope.
func DecodeTenantReq(d *Dec) TenantReq {
	t := TenantReq{Tenant: d.String(), Kind: Kind(d.Byte())}
	if d.err != nil {
		return t
	}
	t.Body = d.b[d.off:]
	d.off = len(d.b)
	return t
}

// --- replies (server to client) ---

// ReplyError is a service-level failure carried in a reply frame: the
// same status/code/message triple the HTTP error envelope carries, so
// the client layer reconstructs an identical typed error for both
// transports.
type ReplyError struct {
	Status  int
	Code    string
	Message string
	// Owner mirrors api.Error.Owner: the owning node on route_moved.
	Owner string
	// RetryAfterMS mirrors api.Error.RetryAfterMS: the capacity hint
	// on throttled.
	RetryAfterMS int64
}

// Error implements the error interface.
func (e *ReplyError) Error() string {
	return fmt.Sprintf("%s: %s (HTTP-equivalent %d)", e.Code, e.Message, e.Status)
}

// PutReplyErr appends a complete error reply body.
func PutReplyErr(e *Enc, status int, we *api.Error) {
	e.Bool(false)
	e.Int(status)
	e.String(we.Code)
	e.String(we.Message)
	e.String(we.Owner)
	e.Int64(we.RetryAfterMS)
}

// PutReplyOK appends the success prefix of a reply body; the
// kind-specific payload follows.
func PutReplyOK(e *Enc, status int) {
	e.Bool(true)
	e.Int(status)
}

// GetReply reads a reply body's prefix: the HTTP-equivalent status on
// success, or a *ReplyError. The kind-specific payload (on success)
// remains in the decoder.
func GetReply(d *Dec) (status int, err error) {
	ok := d.Bool()
	status = d.Int()
	if d.err != nil {
		return 0, d.err
	}
	if ok {
		return status, nil
	}
	re := &ReplyError{Status: status, Code: d.String(), Message: d.String(), Owner: d.String(), RetryAfterMS: d.Int64()}
	if d.err != nil {
		return 0, d.err
	}
	return status, re
}

// Push is an unsolicited server notification: a previously parked
// unsafe arrival in Session was admitted by the departure that cleared
// its conflict. Seq is the session update sequence number of the event
// that admitted it. The HTTP analogue is the client polling session
// status after its join came back 202 "parked":true.
type Push struct {
	Session string
	QueryID string
	Seq     int
}

// Encode appends the push body.
func (p Push) Encode(e *Enc) {
	e.String(p.Session)
	e.String(p.QueryID)
	e.Int(p.Seq)
}

// DecodePush reads a push body.
func DecodePush(d *Dec) Push {
	return Push{Session: d.String(), QueryID: d.String(), Seq: d.Int()}
}
