package main

import (
	"sync"
	"testing"
	"time"

	"iotsid/internal/core"
)

// trained is the one feature memory every test shares.
var trained = sync.OnceValues(train)

func memory(t *testing.T) *core.FeatureMemory {
	t.Helper()
	m, err := trained()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var defaultMix = mix{sensitive: 0.7, attack: 0.3}

// replayDigest replays homes × steps of the seed-1 stream in process from
// the given number of senders and returns the decision digest.
func replayDigest(t *testing.T, homes, steps, senders, size int, m mix, mode replayMode) (*gen, *replayRun) {
	t.Helper()
	g := newGen(homes, 1, m)
	st, _, err := setup(g, memory(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	perSender := make([]int, senders)
	for w := range perSender {
		perSender[w] = steps
	}
	run, err := runReplay(st, g, size, perSender, mode, homes*steps/size)
	if err != nil {
		t.Fatal(err)
	}
	if run.tally.failed != 0 {
		t.Fatalf("%d of %d items failed", run.tally.failed, run.tally.items)
	}
	return g, run
}

// TestGoldenDigests pins the ported generator to cmd/fleetload's digests
// at their full shapes (`fleetload -homes H -steps S -seed 1`, plus the
// attack flags for the last row).
func TestGoldenDigests(t *testing.T) {
	attack := mix{sensitive: 0.7, attack: 0.7, spoof: 0.1, chain: 0.1}
	for _, c := range []struct {
		homes, steps int
		mix          mix
		want         string
	}{
		{10000, 5, defaultMix, "284abdb8010ee900"},
		{500, 2, defaultMix, "d9b585056f18c11b"},
		{500, 5, defaultMix, "dfb649032d153415"},
		{500, 5, attack, "3d280ed0a4a9a56e"},
	} {
		g, run := replayDigest(t, c.homes, c.steps, clients, 256, c.mix, modeWire)
		if run.digest != c.want {
			t.Errorf("%d homes × %d steps %+v: digest %s, want %s", c.homes, c.steps, c.mix, run.digest, c.want)
		}
		if c.mix.spoof > 0 {
			tl := run.tally
			if g.nSpoof != 49 || run.fleetLowTrust != 49 || tl.unsafe != 0 {
				t.Errorf("spoof: %d armed, %d low-trust, %d unsafe allows; want 49, 49, 0", g.nSpoof, run.fleetLowTrust, tl.unsafe)
			}
			if g.nChain != 46 || tl.chainBlocked != 46 || tl.unsafeChain != 0 || tl.chainFalse != 0 {
				t.Errorf("chain: %d armed, %d blocked, %d allowed, %d false blocks; want 46, 46, 0, 0",
					g.nChain, tl.chainBlocked, tl.unsafeChain, tl.chainFalse)
			}
		}
	}
}

// TestDigestIndependentOfSenders replays one stream from one and from two
// senders, with different batch sizes.
func TestDigestIndependentOfSenders(t *testing.T) {
	m := mix{sensitive: 0.7, attack: 0.7, spoof: 0.1, chain: 0.1}
	_, one := replayDigest(t, 500, 5, 1, 64, m, modeReference)
	_, two := replayDigest(t, 500, 5, 2, 256, m, modeWire)
	if one.digest != two.digest {
		t.Fatalf("1 sender: %s, 2 senders: %s", one.digest, two.digest)
	}
}

// TestTimedRunReplays runs HTTP for a fixed time instead of a fixed step
// count, so the senders may finish different numbers of steps, and checks
// the reference replay of exactly those steps against it.
func TestTimedRunReplays(t *testing.T) {
	wl := workload{batch: 32, mix: mix{sensitive: 0.7, attack: 0.7, spoof: 0.1, chain: 0.1}}
	g := newGen(200, 5, wl.mix)
	st, _, err := setup(g, memory(t), false)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runHTTP(st, g, wl, 5, 200*time.Millisecond, 0)
	st.close()
	if err != nil {
		t.Fatal(err)
	}
	st, _, err = setup(g, memory(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	g.reset()
	ref, err := runReplay(st, g, wl.batch, run.steps, modeReference, run.tally.requests)
	if err != nil {
		t.Fatal(err)
	}
	if ref.digest != run.digest || ref.tally.items != run.tally.items || run.tally.failed != 0 {
		t.Fatalf("steps %v: HTTP %s over %d items (%d failed), replay %s over %d",
			run.steps, run.digest, run.tally.items, run.tally.failed, ref.digest, ref.tally.items)
	}
	if run.tally.chainBlocked != g.nChain || run.lowTrust != g.nSpoof {
		t.Fatalf("%d of %d chains blocked, %d of %d spoofed homes low-trust",
			run.tally.chainBlocked, g.nChain, run.lowTrust, g.nSpoof)
	}
}

// TestHTTPMatchesTracedReplay sends a small under_attack stream over HTTP,
// then checks that the traced replay decides it identically and that its
// trust and sequence replicas agree with the fleet's own counters.
func TestHTTPMatchesTracedReplay(t *testing.T) {
	wl := workload{batch: 64, mix: mix{sensitive: 0.7, attack: 0.7, spoof: 0.1, chain: 0.1}}
	g := newGen(500, 1, wl.mix)
	st, _, err := setup(g, memory(t), false)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runHTTP(st, g, wl, 1, time.Hour, 5)
	st.close()
	if err != nil {
		t.Fatal(err)
	}
	if run.digest != "3d280ed0a4a9a56e" || run.tally.failed != 0 {
		t.Fatalf("HTTP digest %s with %d failed items, want 3d280ed0a4a9a56e and none", run.digest, run.tally.failed)
	}
	if run.lowTrust != 49 || run.tally.chainBlocked != 46 {
		t.Fatalf("HTTP: %d low-trust homes, %d chains blocked; want 49 and 46", run.lowTrust, run.tally.chainBlocked)
	}

	st, _, err = setup(g, memory(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	g.reset()
	tr, err := runReplay(st, g, wl.batch, run.steps, modeTraced, run.tally.requests)
	if err != nil {
		t.Fatal(err)
	}
	if tr.digest != run.digest {
		t.Fatalf("traced replay digest %s, HTTP %s", tr.digest, run.digest)
	}
	if tr.lowTrust != tr.fleetLowTrust || tr.lowTrust != 49 {
		t.Fatalf("trust replicas: %d low-trust, fleet %d, want 49", tr.lowTrust, tr.fleetLowTrust)
	}
	if tr.anomalies != tr.fleetAnomalies || tr.anomalies < 46 {
		t.Fatalf("seq replicas: %d anomalies, fleet %d, want equal and at least the 46 chains", tr.anomalies, tr.fleetAnomalies)
	}
	perReq := map[int32]int{}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		perReq[s.req]++
	}
	if len(perReq) != run.tally.requests {
		t.Fatalf("spans name %d requests, the replay sent %d", len(perReq), run.tally.requests)
	}
	for req, n := range perReq {
		if n != int(stageCount) {
			t.Fatalf("request %d has %d spans, want one per stage (%d)", req, n, stageCount)
		}
	}
}
