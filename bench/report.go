package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sloLimit is ROADMAP item 3's per-request latency limit.
const sloLimit = 10 * time.Millisecond

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// check is one correctness condition of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is one workload's run.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Steps     []int    `json:"steps_per_sender"`
	Requests  int      `json:"requests"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"`
	Checks    []check  `json:"checks"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *report) expect(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// provenance says where and from what a report was measured.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

func readProvenance() provenance {
	p := provenance{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the end-to-end metrics: set-up cost from every set-up
// and the rest from the untraced HTTP run's timed phase.
func endToEnd(run *httpRun, setups []setupStats) []metric {
	var secs, heap []float64
	for _, s := range setups {
		secs = append(secs, s.seconds)
		heap = append(heap, s.heapBytes/(1<<20))
	}
	decisions := float64(run.tally.items - run.tally.failed)
	wholeRate := ratio(decisions, run.wall.Seconds())
	wholeCPU := ratio(float64(run.cpu)/float64(time.Microsecond), decisions)
	rate, cpu := wholeRate, wholeCPU
	over := "the whole run, too short for windows"
	if ws := steadyWindows(run.windows); len(ws) > 0 {
		var rates, cpus []float64
		for _, w := range ws {
			rates = append(rates, float64(w.decisions)/w.wall.Seconds())
			if w.decisions > 0 {
				cpus = append(cpus, float64(w.cpu)/float64(time.Microsecond)/float64(w.decisions))
			}
		}
		rate = median(rates)
		if len(cpus) > 0 {
			cpu = median(cpus)
		}
		over = fmt.Sprintf("median of %d %v windows after %v of warm-up", len(ws), windowLen, warmup)
	}
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(secs), Note: fmt.Sprintf("median of %d set-ups", len(secs))},
		{Name: "setup_heap_mb", Unit: "MB", Value: median(heap), Note: fmt.Sprintf("median of %d set-ups", len(heap))},
		{Name: "decisions_per_s", Unit: "1/s", Value: rate,
			Note: fmt.Sprintf("%s; whole run %.0f decisions in %.2f s, %.0f/s", over, decisions, run.wall.Seconds(), wholeRate)},
		{Name: "cpu_us_per_decision", Unit: "us", Value: cpu,
			Note: fmt.Sprintf("whole process, generator included; %s; whole run %.4g", over, wholeCPU)},
		{Name: "alloc_bytes_per_decision", Unit: "B", Value: ratio(float64(run.allocBytes), decisions)},
	}
}

// warmup is the start of the timed phase that the window medians skip.
const warmup = time.Second

// steadyWindows are the windows after the warm-up.
func steadyWindows(ws []window) []window {
	skip := int(warmup / windowLen)
	if len(ws) <= skip {
		return nil
	}
	return ws[skip:]
}

// loadLayer derives the per-layer metrics the HTTP run measures by itself:
// what the load generator saw, and the fleet's and the runtime's counters.
func loadLayer(run *httpRun) []metric {
	lats := make([]time.Duration, len(run.samples))
	met := 0
	for i, s := range run.samples {
		lats[i] = s.latency
		if !s.failed && s.latency <= sloLimit {
			met++
		}
	}
	lat := sortedMs(lats)
	p99 := quantile(lat, 0.99)
	beyond := len(lat) - sort.SearchFloat64s(lat, math.Nextafter(p99, math.Inf(1)))
	decisions := float64(run.tally.items - run.tally.failed)
	return []metric{
		{Name: "loadgen.latency_p50_ms", Unit: "ms", Value: quantile(lat, 0.5),
			Note: fmt.Sprintf("%d requests; closed loop from send, open loop from due time", len(lat))},
		{Name: "loadgen.latency_p99_ms", Unit: "ms", Value: p99, Note: fmt.Sprintf("%d requests, %d beyond", len(lat), beyond)},
		{Name: "loadgen.slo_met_ratio", Unit: "ratio", Value: ratio(float64(met), float64(len(run.samples))),
			Note: fmt.Sprintf("requests within %v; a failed request misses", sloLimit)},
		{Name: "loadgen.failed_ratio", Unit: "ratio", Value: ratio(float64(run.tally.failed), float64(run.tally.items))},
		{Name: "loadgen.lag_p99_ms", Unit: "ms", Value: lagP99Ms(run.samples),
			Note: "open loop: send after due time; closed loop: send after the previous return"},
		{Name: "fleet.pushes_per_decision", Unit: "ratio", Value: ratio(run.pushes, run.decided)},
		{Name: "fleet.fail_closed_ratio", Unit: "ratio", Value: ratio(run.failClosed, run.decided)},
		{Name: "trust.low_trust_homes", Unit: "count", Value: float64(run.lowTrust)},
		{Name: "seq.anomalies", Unit: "count", Value: float64(run.seqAnoms)},
		{Name: "runtime.gc_cycles_per_1k_decisions", Unit: "count", Value: ratio(float64(run.gcCycles)*1000, decisions)},
		{Name: "runtime.gc_pause_p99_ms", Unit: "ms", Value: quantile(sortedMs(run.gcPauses), 0.99),
			Note: fmt.Sprintf("%d pauses", len(run.gcPauses))},
	}
}

// replayLayer derives the per-layer metrics of the traced replay, the
// untraced replay it is compared with, and the set-up that measured heap
// per home.
func replayLayer(run *httpRun, plain, traced *replayRun, homeBytes float64) []metric {
	var busy [stageCount]float64 // ns
	blocking := make(map[int32]float64)
	for _, s := range traced.spans {
		d := float64(s.end - s.start)
		busy[s.stage] += d
		if s.stage >= stReqEncode && s.stage <= stRespDecode {
			blocking[s.req] += d
		}
	}
	items := float64(traced.tally.items)
	requests := float64(traced.tally.requests)
	usPerItem := func(st uint8) float64 { return ratio(busy[st]/1e3, items) }
	nsPerItem := func(st uint8) float64 { return ratio(busy[st], items) }
	allocsPerItem := func(st uint8) float64 { return ratio(float64(traced.allocs[st]), float64(traced.allocItems)) }

	service := make([]time.Duration, len(run.samples))
	for i, s := range run.samples {
		service[i] = s.service
	}
	sums := make([]float64, 0, len(blocking))
	for _, v := range blocking {
		sums = append(sums, v/1e3)
	}
	sort.Float64s(sums)
	overhead := quantile(sortedMs(service), 0.5)*1e3 - quantile(sums, 0.5)

	return []metric{
		{Name: "loadgen.generate_us_per_item", Unit: "us", Value: usPerItem(stGenerate)},
		{Name: "cloud.req_decode_us_per_item", Unit: "us", Value: usPerItem(stReqDecode)},
		{Name: "cloud.req_decode_allocs_per_item", Unit: "allocs", Value: allocsPerItem(stReqDecode)},
		{Name: "cloud.req_bytes_per_item", Unit: "B", Value: ratio(float64(traced.reqBytes), items)},
		{Name: "cloud.resp_encode_us_per_item", Unit: "us", Value: usPerItem(stRespEncode)},
		{Name: "cloud.http_overhead_us_per_request", Unit: "us", Value: overhead,
			Note: "HTTP service p50 minus the replay's blocking-span p50"},
		{Name: "instr.build_us_per_item", Unit: "us", Value: usPerItem(stBuild)},
		{Name: "instr.build_allocs_per_item", Unit: "allocs", Value: allocsPerItem(stBuild)},
		{Name: "fleet.batch_us_per_item", Unit: "us", Value: usPerItem(stAuthorize)},
		{Name: "fleet.batch_allocs_per_item", Unit: "allocs", Value: allocsPerItem(stAuthorize)},
		{Name: "fleet.batch_us_per_request", Unit: "us", Value: ratio(busy[stAuthorize]/1e3, requests)},
		{Name: "fleet.heap_bytes_per_home", Unit: "B", Value: homeBytes},
		{Name: "core.judge_allow_ns_per_item", Unit: "ns", Value: nsPerItem(stJudgeAllow)},
		{Name: "core.judge_deny_ns_per_item", Unit: "ns", Value: nsPerItem(stJudgeDeny)},
		{Name: "core.deny_ratio", Unit: "ratio", Value: ratio(float64(traced.denied), float64(traced.judged))},
		{Name: "tree.predict_ns_per_item", Unit: "ns", Value: nsPerItem(stPredict)},
		{Name: "trust.observe_ns_per_item", Unit: "ns", Value: nsPerItem(stTrust)},
		{Name: "seq.observe_judge_ns_per_item", Unit: "ns", Value: nsPerItem(stSeq)},
		{Name: "trace.overhead_ratio", Unit: "ratio", Value: ratio(traced.wall.Seconds(), plain.wall.Seconds()),
			Note: "traced replay wall over untraced replay wall"},
	}
}

// lagP99Ms is how late the generator sent, at p99.
func lagP99Ms(samples []sample) float64 {
	lag := make([]time.Duration, len(samples))
	for i, s := range samples {
		lag[i] = s.lag
	}
	return quantile(sortedMs(lag), 0.99)
}

// fleetCounters are the fleet's own iotsid_fleet_* counters.
type fleetCounters struct {
	pushes, failClosed, decided float64
}

// readFleetCounters reads the counters from the stack's metric exposition.
func readFleetCounters(st *stack) (fleetCounters, error) {
	var c fleetCounters
	var buf bytes.Buffer
	if err := st.metrics.WriteText(&buf); err != nil {
		return c, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return c, fmt.Errorf("metric line %q: %w", line, err)
		}
		switch {
		case strings.HasPrefix(line, "iotsid_fleet_context_pushes_total "):
			c.pushes += v
		case strings.HasPrefix(line, "iotsid_fleet_decisions_total{"):
			c.decided += v
			if strings.Contains(line, `outcome="fail_closed"`) {
				c.failClosed += v
			}
		}
	}
	return c, nil
}

// print writes a report for a reader.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\nworkload %s  seed %d  steps/sender %v  requests %d  items %d  failed %d  digest %s\n",
		r.Workload, r.Seed, r.Steps, r.Requests, r.Attempted, r.Failed, r.Digest)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", status, c.Name, c.Detail)
	}
	for _, group := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range group {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
}
