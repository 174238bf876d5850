package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

// Stages of the replay. The blocking stages run in this order inside each
// request's root span; the shadow stages run after it ends, on the
// request's items, and touch only private replicas or stateless functions,
// never the fleet's own state.
const (
	stRequest uint8 = iota // root span, one per request
	stGenerate
	stReqEncode
	stReqDecode
	stBuild
	stAuthorize
	stRespEncode
	stRespDecode
	stTrust // first shadow stage
	stJudgeAllow
	stJudgeDeny
	stPredict
	stSeq
	stageCount
)

var stageNames = [stageCount]string{
	"request", "loadgen.generate", "cloud.req_encode", "cloud.req_decode", "instr.build",
	"fleet.authorize_batch", "cloud.resp_encode", "cloud.resp_decode",
	"trust.observe", "core.judge.allow", "core.judge.deny", "tree.predict", "seq.observe_judge",
}

// allocSamples is about how many requests a traced replay counts mallocs
// on. Each runs alone, so the count is its own.
const allocSamples = 128

// span is one timed stage of one request. Stage spans are one per request
// with an item count, not one per item, so tracing stays cheap.
type span struct {
	start, end int64 // ns since the replay began
	req        int32
	items      int32
	stage      uint8
}

// wireRequest and wireResponse are the bodies of POST /v1/fleet/authorize,
// declared over the exported cloud wire types.
type wireRequest struct {
	Items []cloud.FleetBatchItem `json:"items"`
}

type wireResponse struct {
	Results []cloud.FleetResult `json:"results"`
}

// replayMode says how much of a request's path a replay runs.
type replayMode int

const (
	// modeReference runs instr.Build and AuthorizeBatch only: the decisions the
	// untraced HTTP run is checked against, at a fraction of its cost.
	modeReference replayMode = iota
	// modeWire adds both bodies' JSON encoding and decoding: every blocking
	// stage, untimed, the baseline of the tracing overhead.
	modeWire
	// modeTraced times every blocking stage and runs the shadow stages.
	modeTraced
)

// replayer drives a generated stream in process through each layer's
// public functions: the stages the client and the server run for one
// request, without the network, from one goroutine per HTTP sender.
type replayer struct {
	st         *stack
	g          *gen
	mode       replayMode
	epoch      time.Time
	digests    []uint64        // each sender writes only its homes
	judger     *core.Judger    // private to the shadow stages
	replicas   []*trust.Engine // spoofed homes' trust engines, fed the fleet's pushes
	trackers   []seq.Tracker   // chained homes' sequence trackers
	allocEvery int
	excl       sync.RWMutex // see request
}

// counts is what a replay counts, per sender and in total.
type counts struct {
	tally      tally
	spans      []span
	reqBytes   int
	allocs     [stageCount]uint64 // mallocs of the sampled requests, per stage
	allocItems int                // items of the sampled requests
	anomalies  uint64             // sequence replicas' anomalies
	judged     int
	denied     int
}

func (c *counts) add(o *counts) {
	c.tally.add(o.tally)
	c.spans = append(c.spans, o.spans...)
	c.reqBytes += o.reqBytes
	for k := range o.allocs {
		c.allocs[k] += o.allocs[k]
	}
	c.allocItems += o.allocItems
	c.anomalies += o.anomalies
	c.judged += o.judged
	c.denied += o.denied
}

// replaySender is one sender's share of a replay.
type replaySender struct {
	counts
	rp          *replayer
	w, n        int
	mark        time.Time // end of the previous request, where generating the next began
	resp        bytes.Buffer
	decs        []core.Decision
	snaps       []sensor.Snapshot
	skip        []bool
	allow, deny []int
}

// replayRun is what one replay measured.
type replayRun struct {
	counts
	wall           time.Duration
	digest         string
	lowTrust       int // replica engines below threshold
	fleetLowTrust  int
	fleetAnomalies uint64
}

// runReplay replays the stream the HTTP run sent: the same warm-up, then
// per sender the same steps in the same batches. requests is the HTTP run's
// request count; it sizes the span buffers and the malloc sampling.
func runReplay(st *stack, g *gen, size int, steps []int, mode replayMode, requests int) (*replayRun, error) {
	rp := &replayer{st: st, g: g, mode: mode, digests: newDigests(len(g.ids))}
	if mode == modeTraced {
		judger, err := core.NewJudger(st.detector, st.models)
		if err != nil {
			return nil, err
		}
		rp.judger = judger
		rp.allocEvery = requests/allocSamples + 1
		rp.replicas = make([]*trust.Engine, len(g.ids))
		rp.trackers = make([]seq.Tracker, len(g.ids))
		for i := range g.ids {
			if g.spoofed[i] {
				if rp.replicas[i], err = newTrustEngine(); err != nil {
					return nil, err
				}
			}
		}
	}
	rounds, err := g.warmup()
	if err != nil {
		return nil, err
	}
	for _, pushes := range rounds {
		for i, id := range g.ids {
			snap, ok := pushes[id]
			if !ok {
				continue
			}
			if err := st.fleet.PushContext(id, snap); err != nil {
				return nil, err
			}
			if mode == modeTraced {
				rp.replicas[i].Observe("push", snap, snap.At)
			}
		}
	}

	senders := make([]*replaySender, len(steps))
	errs := make([]error, len(steps))
	rp.epoch = time.Now()
	var wg sync.WaitGroup
	for w := range steps {
		rs := &replaySender{rp: rp, w: w, n: len(steps), mark: rp.epoch}
		if mode == modeTraced {
			rs.spans = make([]span, 0, (requests/len(steps)+2)*int(stageCount))
		}
		senders[w] = rs
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b batch
			for s := 0; s < steps[w]; s++ {
				if err := g.step(&b, w, len(steps), s, s == steps[w]-1, size, rs.request); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	run := &replayRun{
		wall:           time.Since(rp.epoch),
		digest:         combine(rp.digests),
		fleetLowTrust:  st.fleet.LowTrustHomes(),
		fleetAnomalies: st.fleet.SeqAnomalies(),
	}
	for w, rs := range senders {
		if errs[w] != nil {
			return nil, errs[w]
		}
		run.add(&rs.counts)
	}
	for _, e := range rp.replicas {
		if e != nil && !e.Trusted("push") {
			run.lowTrust++
		}
	}
	return run, nil
}

// begin and end bracket one blocking stage. On sampled requests they read
// the malloc count outside the timed interval.
func (rs *replaySender) begin(sampled bool) (time.Time, uint64) {
	if rs.rp.mode != modeTraced {
		return time.Time{}, 0
	}
	var m uint64
	if sampled {
		m = mallocs()
	}
	return time.Now(), m
}

func (rs *replaySender) end(stage uint8, req, items int, t0 time.Time, m0 uint64, sampled bool) {
	if rs.rp.mode != modeTraced {
		return
	}
	rs.span(stage, req, items, t0, time.Now())
	if sampled {
		rs.allocs[stage] += mallocs() - m0
	}
}

func (rs *replaySender) span(stage uint8, req, items int, t0, t1 time.Time) {
	rs.spans = append(rs.spans, span{
		start: int64(t0.Sub(rs.rp.epoch)), end: int64(t1.Sub(rs.rp.epoch)),
		req: int32(req), items: int32(items), stage: stage,
	})
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// request is the replay's sink: one batch through the blocking stages its
// mode runs, then, when traced, the shadow stages. A failed stage fails the
// request, as a failed round trip does over HTTP.
//
// The blocking stages of both senders overlap, as two clients' requests do
// in the server. A malloc-sampled request and every request's shadow stages
// hold the replayer exclusively, so the sampled counts are the request's own
// and no blocking span is slowed by shadow work the server never does.
func (rs *replaySender) request(b *batch) error {
	rp := rs.rp
	local, n := rs.tally.requests, len(b.items)
	req := rs.w + rs.n*local
	tracing := rp.mode == modeTraced
	sampled := tracing && local%rp.allocEvery == 0
	if tracing {
		rs.span(stGenerate, req, n, rs.mark, time.Now())
	}
	lock, unlock := rp.excl.RLock, rp.excl.RUnlock
	if sampled {
		lock, unlock = rp.excl.Lock, rp.excl.Unlock
	}
	lock()
	results, items, idxs, err := rs.serve(b.items, req, sampled)
	unlock()
	if tracing {
		rs.span(stRequest, req, n, rs.mark, time.Now())
		if sampled {
			rs.allocItems += n
		}
	}
	rs.tally.record(rp.g, rp.digests, b, results, err)
	if tracing && err == nil {
		rp.excl.Lock()
		rs.shadow(req, items, idxs, b.owners)
		rp.excl.Unlock()
	}
	rs.mark = time.Now()
	return nil
}

// serve runs one request's blocking stages the way cloud.Client.FleetAuthorize
// and the server's handler run them, and returns the results the client
// decodes, with the fleet's items and their positions in the request.
func (rs *replaySender) serve(wire []cloud.FleetBatchItem, req int, sampled bool) ([]cloud.FleetResult, []fleet.BatchItem, []int, error) {
	rp, n := rs.rp, len(wire)
	if rp.mode != modeReference {
		t, m := rs.begin(sampled)
		body, err := json.Marshal(wireRequest{Items: wire})
		rs.end(stReqEncode, req, n, t, m, sampled)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("encode request: %w", err)
		}
		rs.reqBytes += len(body)

		t, m = rs.begin(sampled)
		var in wireRequest
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&in)
		rs.end(stReqDecode, req, n, t, m, sampled)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("decode request: %w", err)
		}
		wire = in.Items
	}

	t, m := rs.begin(sampled)
	results := make([]cloud.FleetResult, len(wire))
	items := make([]fleet.BatchItem, 0, len(wire))
	idxs := make([]int, 0, len(wire))
	for i, it := range wire {
		ins, err := rp.st.instrs.Build(it.Op, it.DeviceID, instr.OriginUser, it.Args)
		if err != nil {
			results[i] = cloud.FleetResult{Error: err.Error()}
			continue
		}
		items = append(items, fleet.BatchItem{Home: it.Home, In: ins, Context: it.Context})
		idxs = append(idxs, i)
	}
	rs.end(stBuild, req, n, t, m, sampled)

	t, m = rs.begin(sampled)
	out, err := rp.st.fleet.AuthorizeBatch(context.Background(), items, 0)
	rs.end(stAuthorize, req, n, t, m, sampled)
	if err != nil {
		return nil, nil, nil, err
	}

	t, m = rs.begin(sampled)
	for k, res := range out {
		i := idxs[k]
		if res.Err != "" {
			results[i] = cloud.FleetResult{Error: res.Err}
			continue
		}
		results[i] = cloud.FleetResult{
			Allowed:   res.Decision.Allowed,
			Sensitive: res.Decision.Sensitive,
			Model:     string(res.Decision.Model),
			Reason:    res.Decision.Reason,
		}
	}
	if rp.mode == modeReference {
		return results, items, idxs, nil
	}
	rs.resp.Reset()
	err = json.NewEncoder(&rs.resp).Encode(wireResponse{Results: results})
	rs.end(stRespEncode, req, n, t, m, sampled)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("encode response: %w", err)
	}

	t, m = rs.begin(sampled)
	var resp wireResponse
	err = json.NewDecoder(&rs.resp).Decode(&resp)
	rs.end(stRespDecode, req, n, t, m, sampled)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("decode response: %w", err)
	}
	return resp.Results, items, idxs, nil
}

// shadow times the layers the fleet runs inside AuthorizeBatch, one loop
// per layer over the request's items: the trust replicas observe the
// pushes the fleet's engines observed, a private judger judges what the
// fleet judged (split by verdict, since a deny also pays the explaining
// walk), the shared registry predicts the trees consulted, and the sequence
// replicas observe the chained homes' verdicts.
func (rs *replaySender) shadow(req int, items []fleet.BatchItem, idxs, owners []int) {
	rp := rs.rp
	t := time.Now()
	n := 0
	for k, it := range items {
		if e := rp.replicas[owners[idxs[k]]]; e != nil && it.Context != nil {
			e.Observe("push", *it.Context, it.Context.At)
			n++
		}
	}
	rs.span(stTrust, req, n, t, time.Now())

	// Untimed: what the fleet's judger decided, and which items it judged.
	// A sensitive item of a low-trust home fails closed before the judge.
	rs.decs, rs.snaps, rs.skip = rs.decs[:0], rs.snaps[:0], rs.skip[:0]
	rs.allow, rs.deny = rs.allow[:0], rs.deny[:0]
	for k, it := range items {
		var snap sensor.Snapshot
		if it.Context != nil {
			snap = *it.Context
		}
		e := rp.replicas[owners[idxs[k]]]
		dec, err := rp.judger.Judge(it.In, snap)
		skip := err != nil || (e != nil && !e.Trusted("push") && rp.st.detector.IsSensitive(it.In))
		rs.decs, rs.snaps, rs.skip = append(rs.decs, dec), append(rs.snaps, snap), append(rs.skip, skip)
		switch {
		case skip:
		case dec.Allowed:
			rs.allow = append(rs.allow, k)
		default:
			rs.deny = append(rs.deny, k)
		}
	}
	rs.judged += len(rs.allow) + len(rs.deny)
	rs.denied += len(rs.deny)

	t = time.Now()
	for _, k := range rs.allow {
		_, _ = rp.judger.Judge(items[k].In, rs.snaps[k]) // classified above; timed here
	}
	rs.span(stJudgeAllow, req, len(rs.allow), t, time.Now())
	t = time.Now()
	for _, k := range rs.deny {
		_, _ = rp.judger.Judge(items[k].In, rs.snaps[k]) // classified above; timed here
	}
	rs.span(stJudgeDeny, req, len(rs.deny), t, time.Now())

	t = time.Now()
	n = 0
	for k, dec := range rs.decs {
		if !rs.skip[k] && dec.Sensitive && dec.Model != "" {
			_, _ = rp.st.models.Judge(dec.Model, rs.snaps[k]) // the judger above already succeeded on it
			n++
		}
	}
	rs.span(stPredict, req, n, t, time.Now())

	t = time.Now()
	n = 0
	for k, dec := range rs.decs {
		i := owners[idxs[k]]
		if rs.skip[k] || !rp.g.chained[i] {
			continue
		}
		if v := rp.st.seqSet.ObserveJudge(&rp.trackers[i], dec.Model, dec.Sensitive, dec.Allowed, rs.snaps[k], rs.snaps[k].At); v.Anomalous {
			rs.anomalies++
		}
		n++
	}
	rs.span(stSeq, req, n, t, time.Now())
}

// writeSpans writes the spans as JSON lines. Stage spans name their
// request's root span as parent; shadow spans are marked and are no part
// of the request's self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		parent := `"request"`
		if s.stage == stRequest {
			parent = "null"
		}
		fmt.Fprintf(w, `{"req":%d,"name":%q,"parent":%s,"start_ns":%d,"end_ns":%d,"items":%d,"shadow":%t}`+"\n",
			s.req, stageNames[s.stage], parent, s.start, s.end, s.items, s.stage >= stTrust)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
