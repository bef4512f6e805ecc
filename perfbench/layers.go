package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// layerMetrics computes every per-layer metric of a traced run. u is
// the untraced half, t the traced half; sd, pd and syncs cover the
// traced timed phase; rs is the replay.
func layerMetrics(r *result, w *spec, u, t measured, sd serverDelta, pd probeSnap, syncs []int64, rs replayStats) {
	ut, tt := u.timed, t.timed
	exU, exT := u.exact, t.exact
	f := func(x int64) float64 { return float64(x) }

	// The op-type split, from the untraced half.
	batch, events := distOf(ut.batchLat), distOf(ut.eventLat)
	r.set("batch_req_per_s", ratio(float64(ut.reqs), ut.wall.Seconds()))
	r.set("batch_p50_us", batch.p50)
	r.set("batch_p99_us", batch.p99OrZero())
	r.set("events_per_s", ratio(float64(ut.events), ut.wall.Seconds()))
	r.set("event_p50_us", events.p50)
	r.set("event_p99_us", events.p99OrZero())
	r.set("fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
	r.set("dbq_per_req", ratio(f(exU.batchDBQ), float64(exU.reqs)))
	r.set("dbq_per_event", ratio(f(exU.eventDBQ), float64(exU.events)))
	r.linef("untraced half: %.3f s, %d ops, %.1f ops/s", ut.wall.Seconds(), ut.ops, float64(ut.ops)/ut.wall.Seconds())
	splitLines(r, w, ut)
	exactLine(r, exU)

	// server: the public /metrics histograms over the traced timed phase.
	batchMeanNS := ratio(f(sd.batchLatNS), f(sd.batchLatN))
	eventMeanNS := ratio(f(sd.eventLatNS), f(sd.eventLatN))
	streamNS := ratio(f(tt.elapsedNS), float64(tt.events))
	journalNS := ratio(f(pd.fsWrite.ns+pd.fsSync.ns), float64(tt.events))
	r.set("server.batch_factor", ratio(f(sd.reqs), f(sd.batches)))
	r.set("server.batch_us_mean", batchMeanNS/1e3)
	r.set("server.event_us_mean", eventMeanNS/1e3)
	mailbox := 0.0
	if tt.events > 0 {
		mailbox = (eventMeanNS - streamNS - journalNS) / 1e3
	}
	r.set("server.mailbox_us_per_event", mailbox)

	// transport: codec replay, socket counters, and client latency less
	// the server-side latency of the same ops.
	ops := float64(tt.ops)
	r.set("wire.codec_ns_per_op", rs.wireNS)
	r.set("api.json_ns_per_op", rs.jsonNS)
	r.set("net.bytes_per_op", ratio(f(pd.netRead.bytes+pd.netWrite.bytes), ops))
	r.set("net.writes_per_op", ratio(f(pd.netWrite.calls), ops))
	serverNS := float64(tt.batchCalls)*batchMeanNS + float64(tt.events)*eventMeanNS
	r.set("transport.us_per_op", ratio(f(tt.latNS)-serverNS, ops)/1e3)

	// admission
	r.set("admission.decide_ns", rs.decideNS)
	r.set("admission.throttled", f(sd.throttled))
	if sd.throttled != 0 {
		r.problem("admission throttled %d requests under a non-binding policy", sd.throttled)
	}

	// engine / coord / graph, from the replay.
	r.set("engine.us_per_req", rs.engineNS/1e3)
	r.set("coord.graph_us_per_req", rs.graphNS/1e3)

	// stream, from the servers' own per-event reports.
	r.set("stream.event_us", streamNS/1e3)
	r.set("stream.dirty_per_event", ratio(f(tt.dirty), float64(tt.events)))
	r.set("stream.reused_per_event", ratio(f(tt.reused), float64(tt.events)))
	r.set("stream.components_per_event", ratio(f(tt.components), float64(tt.events)))
	r.set("stream.us_per_dirty", ratio(f(tt.elapsedNS), f(tt.dirty))/1e3)

	// db: exact counts from the exact phase, timings from the timed one.
	// Engine time is the events' reconcile time plus the batch requests
	// at the replayed per-request cost.
	r.set("db.queries_per_op", ratio(f(exT.probeQueries), float64(exT.ops)))
	r.set("db.ns_per_query", ratio(f(pd.db.ns), f(pd.db.calls)))
	r.set("db.busy_share", ratio(f(pd.db.ns), f(tt.elapsedNS)+float64(tt.reqs)*rs.engineNS))
	r.set("db.plan_hit_rate", exT.planHitRate())

	// persist
	sync := distOf(syncs)
	r.set("persist.syncs_per_event", ratio(f(exT.probeSyncs), float64(exT.events)))
	r.set("persist.sync_us_p50", sync.p50)
	r.set("persist.sync_us_p99", sync.p99OrZero())
	r.set("persist.bytes_per_event", ratio(f(pd.fsWrite.bytes), float64(tt.events)))
	r.set("persist.journal_us_per_event", journalNS/1e3)

	// cluster
	forwardExtra := 0.0
	if len(tt.eventRemoteLat) > 0 && len(tt.eventLocalLat) > 0 {
		forwardExtra = distOf(tt.eventRemoteLat).p50 - distOf(tt.eventLocalLat).p50
	}
	r.set("cluster.forwards_per_event", ratio(f(exT.forwards-exT.batchForwards), float64(exT.remoteEvents)))
	r.set("cluster.forward_extra_us", forwardExtra)
	r.set("cluster.scatter_fanout", ratio(f(sd.scatterNodes), f(sd.scatterN)))

	// runtime, from the untraced half.
	uops := float64(ut.ops)
	r.set("runtime.gc_pause_us_per_op", ratio(float64(u.mem.gcPauseNS), uops)/1e3)
	r.set("runtime.alloc_bytes_per_op", ratio(float64(u.mem.allocBytes), uops))
	r.set("runtime.gc_cycles_per_kop", ratio(float64(u.mem.numGC)*1e3, uops))

	// trace: how much of the client-seen time the measured layers
	// explain, and what tracing cost. A batch call's requests run on the
	// engine's workers in parallel, so its engine time is divided by the
	// workers it could use.
	codecNS := rs.wireNS + rs.jsonNS
	workers := float64(min(runtime.GOMAXPROCS(0), max(1, w.batchReqs)))
	attributed := codecNS*ops +
		float64(tt.reqs)*(rs.decideNS+rs.engineNS/workers) +
		f(tt.elapsedNS) + f(pd.fsWrite.ns+pd.fsSync.ns) +
		forwardExtra*1e3*float64(tt.remoteEvents)
	r.set("trace.accounted_share", ratio(attributed, f(tt.latNS)))
	r.set("trace.overhead", ratio(ops/tt.wall.Seconds(), uops/ut.wall.Seconds()))

	r.linef("traced half: %.3f s, %d ops, %.1f ops/s", tt.wall.Seconds(), tt.ops, ops/tt.wall.Seconds())
	r.lines = append(r.lines, sync.line("fsyncs"))
	if len(tt.eventRemoteLat) > 0 {
		r.lines = append(r.lines, distOf(tt.eventLocalLat).line("traced owner-local events"))
		r.lines = append(r.lines, distOf(tt.eventRemoteLat).line("traced forwarded events"))
	}
}

// treeHash identifies a source tree that is not a git checkout: a
// SHA-256 over the path and contents of every Go source and module file
// under root, build output excluded.
func treeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
