package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"entangled/internal/api"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run (--trace 0): what a user
// of the service sees. An op is one client call: a batch call or one
// session join or leave.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"dbq_per_op", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). The op-type
// split and runtime figures come from the run's untraced half; layer
// figures from its traced half and from the replay. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"batch_req_per_s", "req/s", "higher"},
	{"batch_p50_us", "us", "lower"},
	{"batch_p99_us", "us", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"event_p50_us", "us", "lower"},
	{"event_p99_us", "us", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"dbq_per_req", "count", "lower"},
	{"dbq_per_event", "count", "lower"},
	{"server.batch_factor", "count", "higher"},
	{"server.batch_us_mean", "us", "lower"},
	{"server.event_us_mean", "us", "lower"},
	{"server.mailbox_us_per_event", "us", "lower"},
	{"wire.codec_ns_per_op", "ns", "lower"},
	{"api.json_ns_per_op", "ns", "lower"},
	{"net.bytes_per_op", "B", "lower"},
	{"net.writes_per_op", "count", "lower"},
	{"transport.us_per_op", "us", "lower"},
	{"admission.decide_ns", "ns", "lower"},
	{"admission.throttled", "count", "lower"},
	{"engine.us_per_req", "us", "lower"},
	{"coord.graph_us_per_req", "us", "lower"},
	{"stream.event_us", "us", "lower"},
	{"stream.dirty_per_event", "count", "lower"},
	{"stream.reused_per_event", "count", "higher"},
	{"stream.components_per_event", "count", "lower"},
	{"stream.us_per_dirty", "us", "lower"},
	{"db.queries_per_op", "count", "lower"},
	{"db.ns_per_query", "ns", "lower"},
	{"db.busy_share", "ratio", "lower"},
	{"db.plan_hit_rate", "ratio", "higher"},
	{"persist.syncs_per_event", "count", "lower"},
	{"persist.sync_us_p50", "us", "lower"},
	{"persist.sync_us_p99", "us", "lower"},
	{"persist.bytes_per_event", "B", "lower"},
	{"persist.journal_us_per_event", "us", "lower"},
	{"cluster.forwards_per_event", "count", "lower"},
	{"cluster.forward_extra_us", "us", "lower"},
	{"cluster.scatter_fanout", "count", "lower"},
	{"runtime.gc_pause_us_per_op", "us", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles_per_kop", "count", "lower"},
	{"trace.accounted_share", "ratio", "higher"},
	{"trace.overhead", "ratio", "higher"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minBeyond is the number of samples a reported percentile needs above
// it.
const minBeyond = 10

// dist summarises a latency sample.
type dist struct {
	n        int
	p50, p99 float64 // µs
	beyond99 int     // samples above the p99
	reported bool    // the p99 has at least minBeyond samples beyond it
}

func distOf(ns []int64) dist {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := dist{n: len(s)}
	if len(s) == 0 {
		return d
	}
	d.p50 = float64(s[rank(0.50, len(s))]) / 1e3
	i99 := rank(0.99, len(s))
	d.p99 = float64(s[i99]) / 1e3
	d.beyond99 = len(s) - 1 - i99
	d.reported = d.beyond99 >= minBeyond
	return d
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// line renders a distribution with its sample count.
func (d dist) line(name string) string {
	if d.n == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	p99 := fmt.Sprintf("%.1f us (%d beyond)", d.p99, d.beyond99)
	if !d.reported {
		p99 = fmt.Sprintf("not reported: %d beyond, need %d", d.beyond99, minBeyond)
	}
	return fmt.Sprintf("%s: n=%d p50 %.1f us, p99 %s", name, d.n, d.p50, p99)
}

// p99OrZero is the p99 when it may be reported, else 0.
func (d dist) p99OrZero() float64 {
	if d.reported {
		return d.p99
	}
	return 0
}

// memDelta is the Go runtime's view of one timed phase.
type memDelta struct {
	mallocs, allocBytes, gcPauseNS uint64
	numGC                          uint32
	liveHeap                       uint64 // after a forced GC at the end
}

func memBetween(m0, m1, after *runtime.MemStats) memDelta {
	return memDelta{
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcPauseNS:  m1.PauseTotalNs - m0.PauseTotalNs,
		numGC:      m1.NumGC - m0.NumGC,
		liveHeap:   after.HeapAlloc,
	}
}

// serverDelta sums the change in every node's /metrics over a phase.
type serverDelta struct {
	reqs, batches          int64
	batchLatNS, batchLatN  int64
	eventLatNS, eventLatN  int64
	throttled              int64
	scatterNodes, scatterN int64 // fan-out of batches touching >1 node
}

func serverBetween(m0, m1 []api.Metrics) serverDelta {
	var d serverDelta
	for i := range m1 {
		a, b := m0[i], m1[i]
		d.reqs += b.Coordinate.Requests - a.Coordinate.Requests
		d.batches += b.Coordinate.Batches - a.Coordinate.Batches
		d.batchLatNS += b.Coordinate.Latency.SumNS - a.Coordinate.Latency.SumNS
		d.batchLatN += b.Coordinate.Latency.Count - a.Coordinate.Latency.Count
		d.eventLatNS += b.Sessions.Latency.SumNS - a.Sessions.Latency.SumNS
		d.eventLatN += b.Sessions.Latency.Count - a.Sessions.Latency.Count
		if b.Admission != nil && a.Admission != nil {
			d.throttled += b.Admission.Throttled - a.Admission.Throttled
		}
		if b.Cluster != nil && a.Cluster != nil {
			for k := 1; k < len(b.Cluster.FanoutCounts); k++ {
				n := b.Cluster.FanoutCounts[k]
				if k < len(a.Cluster.FanoutCounts) {
					n -= a.Cluster.FanoutCounts[k]
				}
				d.scatterN += n
				d.scatterNodes += n * int64(k+1)
			}
		}
	}
	return d
}

// windowRates splits a phase's completed ops into k runs of equal count,
// in completion order, and returns each run's ops per second.
func windowRates(ph phase, k int) []float64 {
	ends := append([]int64(nil), ph.ends...)
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	k = min(k, len(ends))
	out := make([]float64, 0, k)
	prev, from := ph.start.UnixNano(), 0
	for i := 1; i <= k; i++ {
		to := i * len(ends) / k
		if dt := ends[to-1] - prev; dt > 0 {
			out = append(out, float64(to-from)/time.Duration(dt).Seconds())
		}
		prev, from = ends[to-1], to
	}
	return out
}
