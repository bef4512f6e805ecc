package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/engine"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// replayFor is how long each replay loop runs at least; every loop also
// covers its whole input at least once.
const replayFor = 250 * time.Millisecond

// loggedEvent is one acknowledged session event kept for the replay.
type loggedEvent struct {
	session string
	ev      event
	up      api.Update
}

// maxLoggedEvents bounds each client's event log.
const maxLoggedEvents = 512

// replayStats are the per-layer costs measured by replaying the run's
// own inputs through each layer's public functions, off the clock.
type replayStats struct {
	wireNS, jsonNS     float64 // codec round trip per client op
	engineNS, graphNS  float64 // per batch request
	decideNS           float64 // per Decide+Done pair
	engineReqs, events int
}

// replay measures the codec, engine, graph and admission layers on the
// inputs the clients sent: their batch pools (with the verified
// answers) and the events they logged.
func replay(ctx context.Context, st *stack, p *probes) (replayStats, error) {
	var rs replayStats
	var calls []*batchCall
	var evs []loggedEvent
	for _, cs := range st.clients {
		for _, c := range cs.pool {
			if c.verified() {
				calls = append(calls, c)
			}
		}
		evs = append(evs, cs.events...)
	}
	rs.events = len(evs)
	var err error
	if st.w.proto == "http" {
		rs.jsonNS, err = loop(p, "replay.json", func() error { return jsonRound(calls, evs) }, len(calls)+len(evs))
	} else {
		rs.wireNS, err = loop(p, "replay.wire", func() error { return wireRound(calls, evs) }, len(calls)+len(evs))
	}
	if err != nil || len(calls) == 0 {
		return rs, err
	}
	reqs := 0
	for _, c := range calls {
		reqs += len(c.reqs)
	}
	rs.engineReqs = reqs
	// One worker: the engine's CPU cost per request, without the
	// scheduling of the live run. The store is a fresh replica of the
	// serving store, wrapped so its queries are timed like the live ones.
	eng := engine.New(newStoreProbe(workload.NewStore(storeShards, tableRows, 0), p), engine.Options{Workers: 1})
	if rs.engineNS, err = loop(p, "replay.engine", func() error { return engineRound(ctx, eng, calls) }, reqs); err != nil {
		return rs, err
	}
	rs.graphNS, err = loop(p, "replay.graph", func() error {
		for _, c := range calls {
			for _, r := range c.reqs {
				coord.ComponentsOf(r.Queries)
			}
		}
		return nil
	}, reqs)
	if err != nil || !st.w.admission {
		return rs, err
	}
	ctrl := admission.NewController(tenantPolicy())
	rs.decideNS, err = loop(p, "replay.admission", func() error {
		for _, cs := range st.clients {
			t := admission.Tenant(tenantOf(cs.id))
			for _, c := range cs.pool {
				for _, w := range c.want {
					if err := ctrl.Decide(t); err != nil {
						return err
					}
					ctrl.Done(t, w.dbq())
				}
			}
		}
		return nil
	}, reqs)
	return rs, err
}

// loop runs round until replayFor has passed (at least once) and
// returns the mean time per unit, units being what one round covers.
func loop(p *probes, name string, round func() error, units int) (float64, error) {
	if units == 0 {
		return 0, nil
	}
	start := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(start) < replayFor {
		t0 := time.Now()
		if err := round(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		p.rec.record(0, 0, name, t0, time.Now())
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*units), nil
}

func engineRound(ctx context.Context, eng *engine.Engine, calls []*batchCall) error {
	for _, c := range calls {
		reqs := make([]engine.Request, len(c.reqs))
		for i, r := range c.reqs {
			reqs[i] = engine.Request{ID: r.ID, Queries: r.Queries}
		}
		for i, resp := range eng.CoordinateMany(ctx, reqs) {
			if resp.Err != nil {
				return resp.Err
			}
			if resp.Result.Size() != c.want[i].res.Size() {
				return fmt.Errorf("request %s: replayed set of %d, served %d", c.reqs[i].ID, resp.Result.Size(), c.want[i].res.Size())
			}
		}
	}
	return nil
}

// responsesOf rebuilds the wire responses a call received.
func responsesOf(c *batchCall) []api.Response {
	out := make([]api.Response, len(c.reqs))
	for i, r := range c.reqs {
		out[i] = api.Response{ID: r.ID, Result: c.want[i].res}
	}
	return out
}

// wireRound sends every op through the binary codec both ways: request
// frame encoded, framed, read and decoded; reply likewise.
func wireRound(calls []*batchCall, evs []loggedEvent) error {
	var e wire.Enc
	var frame, rbuf []byte
	roundTrip := func(kind wire.Kind, enc func(*wire.Enc)) (*wire.Dec, error) {
		e.Reset(e.Bytes())
		wire.PutHeader(&e, wire.Header{Kind: kind, ID: 1})
		enc(&e)
		frame = wire.AppendFrame(frame[:0], e.Bytes())
		payload, err := wire.ReadFrame(bytes.NewReader(frame), rbuf)
		if err != nil {
			return nil, err
		}
		rbuf = payload
		d := wire.NewDec(payload)
		wire.GetHeader(d)
		return d, nil
	}
	reply := func(kind wire.Kind, body func(*wire.Enc)) (*wire.Dec, error) {
		d, err := roundTrip(kind, func(e *wire.Enc) { wire.PutReplyOK(e, 200); body(e) })
		if err != nil {
			return nil, err
		}
		_, err = wire.GetReply(d)
		return d, err
	}
	for _, c := range calls {
		d, err := roundTrip(wire.KindCoordinate, wire.CoordinateReq{Requests: c.reqs}.Encode)
		if err != nil {
			return err
		}
		wire.DecodeCoordinateReq(d)
		if err := d.Finish(); err != nil {
			return err
		}
		resps := responsesOf(c)
		if d, err = reply(wire.KindCoordinate, func(e *wire.Enc) { wire.PutResponses(e, resps) }); err != nil {
			return err
		}
		wire.GetResponses(d)
		if err := d.Finish(); err != nil {
			return err
		}
	}
	for _, le := range evs {
		var d *wire.Dec
		var err error
		if le.ev.kind == joinEvent {
			d, err = roundTrip(wire.KindJoin, wire.JoinReq{Session: le.session, Query: le.ev.query}.Encode)
			if err == nil {
				wire.DecodeJoinReq(d)
			}
		} else {
			d, err = roundTrip(wire.KindLeave, wire.LeaveReq{Session: le.session, QueryID: le.ev.id}.Encode)
			if err == nil {
				wire.DecodeLeaveReq(d)
			}
		}
		if err != nil {
			return err
		}
		if err := d.Finish(); err != nil {
			return err
		}
		up := le.up
		if d, err = reply(wire.KindJoin, func(e *wire.Enc) { wire.PutUpdate(e, up) }); err != nil {
			return err
		}
		wire.GetUpdate(d)
		if err := d.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// jsonRound sends every op's HTTP bodies through encoding/json both
// ways, as the HTTP client and server do.
func jsonRound(calls []*batchCall, evs []loggedEvent) error {
	roundTrip := func(in, out any) error {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, out)
	}
	for _, c := range calls {
		var req api.CoordinateRequest
		if err := roundTrip(api.CoordinateRequest{Requests: c.reqs}, &req); err != nil {
			return err
		}
		var resp api.CoordinateResponse
		if err := roundTrip(api.CoordinateResponse{Responses: responsesOf(c)}, &resp); err != nil {
			return err
		}
	}
	for _, le := range evs {
		var err error
		if le.ev.kind == joinEvent {
			var req api.JoinRequest
			err = roundTrip(api.JoinRequest{Query: le.ev.query}, &req)
		} else {
			var req api.LeaveRequest
			err = roundTrip(api.LeaveRequest{ID: le.ev.id}, &req)
		}
		if err != nil {
			return err
		}
		var up api.Update
		if err := roundTrip(le.up, &up); err != nil {
			return err
		}
	}
	return nil
}
