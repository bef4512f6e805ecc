// Package client is the typed Go client for the coordination service
// (internal/server): batch coordination, streaming sessions, and the
// operational surface, as one API over interchangeable transports.
//
// An "http://" or "https://" base URL speaks HTTP/JSON; a "tcp://" (or
// "binary://") base URL speaks the binary wire protocol (internal/wire)
// over one persistent pipelined connection, which also carries
// server-push notifications for parked arrivals. A
// "cluster://host:port" base URL treats the address as a seed node of
// a coordserve cluster: the client fetches the membership from
// /v1/cluster, rebuilds the consistent-hash ring locally, and routes
// each call by its operation's placement over one pooled binary
// connection per node — refreshing the ring and re-routing once when a
// node answers route_moved. Every transport is one call driven by the
// operation table wire.Ops, so callers switch protocols by changing
// the URL and nothing else.
//
// Errors reconstruct the service's stable codes as typed values:
// errors.Is(err, coord.ErrUnsafeArrival), errors.Is(err,
// stream.ErrUnknownID) and friends hold across the network exactly as
// they do in-process, over every transport; IsRetryable identifies
// backpressure, throttling, routing and transport failures worth
// retrying, and FateKnown which of them are safe to retry blind.
package client
