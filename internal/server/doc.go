// Package server is the coordination service: it exposes an
// engine.Engine over HTTP/JSON and over the binary wire protocol
// (internal/wire), so coordination requests cross a real process
// boundary — the regime the paper's MySQL-backed prototype serves and
// the one where coordination cost is measurable as communication.
//
// Every operation is a descriptor in the table wire.Ops, bound here to
// one serve function (ops.go). One HTTP adapter (ServeHTTP), one binary
// adapter (ServeWire's dispatch) and one forward adapter (the cluster
// hop) serve the whole table through exec, which gates the request at
// the edge, forwards it when the ring places it on another node, and
// settles the tenant's exact DBQueries once. Around that:
//
//   - the batch path: each request of a batch is admitted into a
//     bounded queue, and one dispatcher greedily coalesces whatever is
//     queued — across concurrent calls — into single
//     engine.CoordinateMany dispatches (see batcher.go). A full queue
//     rejects requests with the typed code "overloaded" (inline in the
//     batch response) instead of building backlog.
//   - the session registry: named stream.Sessions over the shared
//     store, each serialized on its own goroutine behind a bounded
//     mailbox, evicted after an idle timeout, drained (not dropped) on
//     shutdown (see registry.go). Park/retry admission outcomes
//     surface as typed wire errors; admitted parked arrivals are
//     pushed to subscribed binary connections.
//   - the operational surface: /healthz, /v1/cluster, /v1/recovery,
//     /v1/tenants, and /metrics with request throughput, latency
//     histograms, plan-cache hit rate and exact per-session DBQueries.
//
// Wire shapes and the error taxonomy live in internal/api; the typed
// Go client in internal/client. Result.DBQueries crosses the wire
// unchanged, so the paper's cost metric is end-to-end exact (the
// loopback integration tests pin this).
package server
