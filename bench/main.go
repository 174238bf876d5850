package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, measures the chosen workloads and prints their
// reports, ending with one JSON result line. It returns 1 when a
// correctness check failed, after printing every metric.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "load seed: the same seed gives the same stream")
	seconds := fs.Int("seconds", 0, "measure for this many seconds; 0 runs each workload's pinned shape")
	traceFlag := fs.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
	jsonPath := fs.String("json", "", "write the full reports, provenance included, to this file")
	traceOut := fs.String("trace-out", "", "write the traced replay's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	if *name == "all" {
		chosen = workloads
	} else if wl, ok := findWorkload(*name); ok {
		chosen = []workload{wl}
	}
	if len(chosen) == 0 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -workload <name|all>, -seconds >= 0 and -trace 0 or 1")
		fs.Usage()
		return 2
	}
	traced := *traceFlag == 1

	prov := readProvenance()
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s, revision %s (modified %s)\n",
		prov.CPU, prov.NProc, prov.GOMAXPROCS, prov.GoVersion, prov.Revision, prov.Modified)
	var reports []*report
	for _, wl := range chosen {
		spans := ""
		if *traceOut != "" {
			spans = *traceOut
			if len(chosen) > 1 {
				spans = filepath.Join(filepath.Dir(spans), wl.name+"."+filepath.Base(spans))
			}
		}
		rep, err := measure(wl, *seed, *seconds, traced, spans, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		rep.print(stdout)
		reports = append(reports, rep)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(struct {
			Provenance provenance `json:"provenance"`
			Reports    []*report  `json:"reports"`
		}{prov, reports}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: write %s: %v\n", *jsonPath, err)
			return 1
		}
	}
	ok := printResult(stdout, reports, traced)
	if !ok {
		fmt.Fprintln(stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// printResult prints the machine-read last line: correctness, item counts,
// and the end-to-end metrics (per-layer when traced). With several
// workloads each metric name is prefixed by its workload's.
func printResult(w io.Writer, reports []*report, traced bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range reports {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.EndToEnd
		if traced {
			ms = r.PerLayer
		}
		for _, m := range ms {
			key := m.Name
			if len(reports) > 1 {
				key = r.Workload + "." + m.Name
			}
			out.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", data)
	return out.Correct
}

// extraSetups is how many set-ups a run times besides the two it uses.
const extraSetups = 7

// measure runs one workload: set-ups, the untraced HTTP run, the untraced
// replay that checks its decisions, and when traced one more set-up and the
// traced replay.
func measure(wl workload, seed int64, seconds int, traced bool, traceOut string, progress io.Writer) (*report, error) {
	rep := &report{Workload: wl.name, Seed: seed, Seconds: seconds}
	maxSteps := 0
	if seconds == 0 {
		maxSteps = wl.steps
	}
	g := newGen(fleetHomes, seed, wl.mix)

	// Set-up takes a fraction of a second, so it is sampled more often than
	// the two set-ups the runs need.
	var setups []setupStats
	for k := 0; k < extraSetups; k++ {
		st, stats, err := setup(g, nil, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		st.close()
		setups = append(setups, stats)
	}

	fmt.Fprintf(progress, "%s: HTTP run, %s\n", wl.name, lengthNote(seconds, wl.steps))
	st, stats, err := setup(g, nil, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, stats)
	run, err := runHTTP(st, g, wl, seed, time.Duration(seconds)*time.Second, maxSteps)
	st.close()
	if err != nil {
		return nil, fmt.Errorf("HTTP run: %w", err)
	}

	fmt.Fprintf(progress, "%s: replay\n", wl.name)
	st, stats, err = setup(g, nil, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, stats)
	g.reset()
	mode := modeReference
	if traced {
		mode = modeWire
	}
	plain, err := runReplay(st, g, wl.batch, run.steps, mode, run.tally.requests)
	st.close()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	rep.Steps, rep.Requests, rep.Digest = run.steps, run.tally.requests, run.digest
	rep.Attempted, rep.Failed = run.tally.items, run.tally.failed
	rep.EndToEnd = endToEnd(run, setups)
	rep.PerLayer = loadLayer(run)
	rep.expect("replay digest", plain.digest == run.digest, "HTTP %s, replay %s", run.digest, plain.digest)
	if seconds == 0 && seed == 1 {
		rep.expect("pinned digest", run.digest == wl.digest, "seed 1, %d steps: want %s", wl.steps, wl.digest)
		if wl.spoofed > 0 || wl.chained > 0 {
			rep.expect("pinned armed homes", g.nSpoof == wl.spoofed && g.nChain == wl.chained,
				"spoofed %d (want %d), chained %d (want %d)", g.nSpoof, wl.spoofed, g.nChain, wl.chained)
		}
	}
	t := run.tally
	rep.expect("unsafe allows", t.unsafe == 0, "%d sensitive allows for spoofed homes", t.unsafe)
	if g.nSpoof > 0 {
		rep.expect("low-trust homes", run.lowTrust == g.nSpoof, "%d low-trust of %d spoofed", run.lowTrust, g.nSpoof)
	}
	if g.nChain > 0 {
		rep.expect("chains blocked", t.chainBlocked == g.nChain && t.unsafeChain == 0,
			"%d blocked, %d allowed, %d chained homes", t.chainBlocked, t.unsafeChain, g.nChain)
		rep.expect("chain false blocks", t.chainFalse == 0, "%d benign chained events rejected", t.chainFalse)
	}
	if !traced {
		return rep, nil
	}

	fmt.Fprintf(progress, "%s: traced replay\n", wl.name)
	st, stats, err = setup(g, nil, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	g.reset()
	tr, err := runReplay(st, g, wl.batch, run.steps, modeTraced, run.tally.requests)
	st.close()
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	rep.expect("traced replay digest", tr.digest == run.digest, "HTTP %s, traced %s", run.digest, tr.digest)
	rep.expect("trust replicas", tr.lowTrust == tr.fleetLowTrust,
		"%d replica low-trust homes, fleet %d", tr.lowTrust, tr.fleetLowTrust)
	rep.expect("seq replicas", tr.anomalies == tr.fleetAnomalies,
		"%d replica anomalies, fleet %d", tr.anomalies, tr.fleetAnomalies)
	rep.PerLayer = append(rep.PerLayer, replayLayer(run, plain, tr, stats.homeBytes)...)
	if traceOut != "" {
		if err := writeSpans(traceOut, tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return rep, nil
}

func lengthNote(seconds, steps int) string {
	if seconds == 0 {
		return fmt.Sprintf("pinned shape of %d steps", steps)
	}
	return fmt.Sprintf("%d s", seconds)
}
