package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// The load shape every workload shares: cmd/fleetload's population and
// shard count, driven by two clients over two connections.
const (
	fleetHomes  = 10000
	fleetShards = 16
	clients     = 2
)

// mix is the per-step traffic mix of cmd/fleetload's flags of the same
// names.
type mix struct {
	sensitive float64 // probability a step issues a sensitive control op
	attack    float64 // probability a sensitive op carries an attack scene
	spoof     float64 // fraction of homes armed with a trust engine and spoofed
	chain     float64 // fraction of homes armed with the sequence judge and chained
}

// workload is one frozen traffic mix. A change that claims a gain is
// measured against exactly these values, so they never change in place.
type workload struct {
	name  string
	open  bool    // open loop on a seeded Poisson schedule
	rate  float64 // open loop: requests per second, all senders together
	batch int     // items per request
	steps int     // the pinned shape: steps run when -seconds is 0
	mix   mix
	// digest is the decision digest of the pinned shape at seed 1, equal
	// to `fleetload -workers 2` with the same flags.
	digest string
	// spoofed and chained are the armed home counts at seed 1.
	spoofed, chained int
}

var workloads = []workload{
	{
		name:   "bulk_mixed",
		batch:  256,
		steps:  60,
		mix:    mix{sensitive: 0.7, attack: 0.3},
		digest: "bdf5ab08a3dcad28",
	},
	{
		name:   "interactive_open",
		open:   true,
		rate:   1600,
		batch:  16,
		steps:  40,
		mix:    mix{sensitive: 0.7, attack: 0.3},
		digest: "53d0afb57328649c",
	},
	{
		name:   "status_reads",
		batch:  256,
		steps:  200,
		mix:    mix{sensitive: 0, attack: 0.3},
		digest: "c41c65af336f59e5",
	},
	{
		name:    "under_attack",
		batch:   256,
		steps:   60,
		mix:     mix{sensitive: 0.7, attack: 0.7, spoof: 0.1, chain: 0.1},
		digest:  "9c9f8d454fb61683",
		spoofed: 1021,
		chained: 912,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// modelOps maps each evaluated device model to the sensitive control op
// every home draws from.
var modelOps = map[dataset.Model]struct{ op, device string }{
	dataset.ModelWindow:  {"window.open", "win-1"},
	dataset.ModelAircon:  {"aircon.on", "ac-1"},
	dataset.ModelLight:   {"light.on", "lamp-1"},
	dataset.ModelCurtain: {"curtain.open", "cur-1"},
	dataset.ModelTV:      {"tv.on", "tv-1"},
	dataset.ModelKitchen: {"cooker.start", "rc-1"},
}

// gen is the port of cmd/fleetload's seeded stream generator. Every home
// owns an RNG derived from the seed; spoofed and chained homes are pure
// hashes of the home ID. The stream a home receives is therefore a function
// of the seed and the home alone, independent of client, shard and batch
// counts.
type gen struct {
	seed    int64
	mix     mix
	models  []dataset.Model
	ids     []string
	spoofed []bool
	chained []bool
	rngs    []*rand.Rand       // nil for chained homes, which draw from plans
	plans   [][]seq.TraceEvent // chained homes' benign warm-up events
	nSpoof  int                // armed home counts
	nChain  int
}

func newGen(homes int, seed int64, m mix) *gen {
	g := &gen{
		seed:    seed,
		mix:     m,
		models:  dataset.Models(),
		ids:     make([]string, homes),
		spoofed: make([]bool, homes),
		chained: make([]bool, homes),
		rngs:    make([]*rand.Rand, homes),
		plans:   make([][]seq.TraceEvent, homes),
	}
	for i := range g.ids {
		id := fmt.Sprintf("home-%06d", i)
		g.ids[i] = id
		switch {
		case m.spoof > 0 && hashFrac(id) < m.spoof:
			g.spoofed[i] = true
			g.nSpoof++
		case m.chain > 0 && hashFrac("seq|"+id) < m.chain:
			g.chained[i] = true
			g.nChain++
			continue
		}
		g.rngs[i] = rand.New(rand.NewSource(seed + 9973*int64(i)))
	}
	return g
}

// reset rewinds every home's stream to its start, so one population serves
// the HTTP run and the replays.
func (g *gen) reset() {
	for i, rng := range g.rngs {
		if rng != nil {
			rng.Seed(g.seed + 9973*int64(i))
		}
	}
	clear(g.plans)
}

// hashFrac maps a home ID to a uniform fraction in [0, 1): FNV-64a mixed by
// a splitmix64 finalizer, as cmd/fleetload selects its armed homes.
func hashFrac(id string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id)) // hash.Hash writes never fail
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// event returns chained home i's s-th benign event. seq.LegalTrace draws
// its events in order, so a longer trace from the same seed extends a
// shorter one: the plan grows by regeneration without changing any event
// already served.
func (g *gen) event(i, s int) seq.TraceEvent {
	if s >= len(g.plans[i]) {
		n := 2*len(g.plans[i]) + 64
		if n <= s {
			n = s + 1
		}
		g.plans[i] = seq.LegalTrace(rand.New(rand.NewSource(g.seed+5741*int64(i))), n, 8, 13)
	}
	return g.plans[i][s]
}

// chainEpoch stamps a chain fired before any warm-up event.
var chainEpoch = time.Date(2021, 4, 1, 11, 0, 0, 0, time.UTC)

// batch is one request under construction: the wire items plus, per item,
// the owning home's index and whether the item is a chain tail.
type batch struct {
	items  []cloud.FleetBatchItem
	owners []int
	tails  []bool
}

func (b *batch) add(it cloud.FleetBatchItem, owner int, tail bool) {
	b.items = append(b.items, it)
	b.owners = append(b.owners, owner)
	b.tails = append(b.tails, tail)
}

// sink consumes one full or step-final batch.
type sink func(b *batch) error

// flush hands a non-empty batch to send and empties it.
func (b *batch) flush(send sink) error {
	if len(b.items) == 0 {
		return nil
	}
	err := send(b)
	b.items, b.owners, b.tails = b.items[:0], b.owners[:0], b.tails[:0]
	return err
}

// step appends sender w's (of n) items for step s, sending each batch as it
// fills and the remainder at the end of the step, so each home's stream
// stays ordered. On the final step chained homes fire their same-tick
// chain: three status reads and a sensitive tail, kept whole in one request.
func (g *gen) step(b *batch, w, n, s int, final bool, size int, send sink) error {
	for i := w; i < len(g.ids); i += n {
		if g.chained[i] {
			if final {
				if len(b.items)+4 > size {
					if err := b.flush(send); err != nil {
						return err
					}
				}
				g.chain(b, i, s)
			} else {
				e := g.event(i, s)
				op := "window.get_state"
				if e.Sensitive {
					op = "window.open"
				}
				snap := e.WindowScene()
				b.add(cloud.FleetItem(g.ids[i], op, "win-1", &snap), i, false)
			}
		} else if err := g.mixed(b, i); err != nil {
			return err
		}
		if len(b.items) >= size {
			if err := b.flush(send); err != nil {
				return err
			}
		}
	}
	return b.flush(send)
}

// mixed draws one step of the random mix for home i.
func (g *gen) mixed(b *batch, i int) error {
	rng := g.rngs[i]
	if rng.Float64() >= g.mix.sensitive {
		b.add(cloud.FleetItem(g.ids[i], "light.get_state", "lamp-1", nil), i, false)
		return nil
	}
	m := g.models[rng.Intn(len(g.models))]
	var snap sensor.Snapshot
	var err error
	if rng.Float64() < g.mix.attack {
		snap, err = dataset.AttackScene(m, rng)
	} else {
		snap, err = dataset.LegalScene(m, rng)
	}
	if err != nil {
		return fmt.Errorf("generate %s scene: %w", m, err)
	}
	spec := modelOps[m]
	b.add(cloud.FleetItem(g.ids[i], spec.op, spec.device, &snap), i, false)
	return nil
}

// chain appends chained home i's same-tick chain, stamped 40 s after its
// last warm-up event.
func (g *gen) chain(b *batch, i, s int) {
	burst := seq.TraceEvent{At: chainEpoch, Hour: 11, Voice: true, Occupied: true}
	if s > 0 {
		last := g.event(i, s-1)
		burst = seq.TraceEvent{At: last.At.Add(40 * time.Second), Hour: last.Hour, Voice: true, Occupied: last.Occupied}
	}
	for k := 0; k < 3; k++ {
		snap := burst.WindowScene()
		b.add(cloud.FleetItem(g.ids[i], "window.get_state", "win-1", &snap), i, false)
	}
	burst.Sensitive = true
	snap := burst.WindowScene()
	b.add(cloud.FleetItem(g.ids[i], "window.open", "win-1", &snap), i, true)
}

// warmup is the seeded spoofing plan: three rounds of one push per spoofed
// home whose event times run backwards, an hour after the scenes' fixed
// event time. The replays collapse every armed trust engine before the load
// starts, and every later push from a spoofed home is itself a replay.
func (g *gen) warmup() ([3]map[string]sensor.Snapshot, error) {
	var rounds [3]map[string]sensor.Snapshot
	if g.nSpoof == 0 {
		return rounds, nil
	}
	warm, err := dataset.LegalSceneSeeded(dataset.ModelWindow, g.seed+4242)
	if err != nil {
		return rounds, fmt.Errorf("spoof warm-up scene: %w", err)
	}
	t0 := warm.At.Add(time.Hour)
	for k := range rounds {
		rounds[k] = make(map[string]sensor.Snapshot, g.nSpoof)
		for i, id := range g.ids {
			if g.spoofed[i] {
				snap := warm.Clone()
				snap.At = t0.Add(-time.Duration(k) * 5 * time.Second)
				rounds[k][id] = snap
			}
		}
	}
	return rounds, nil
}

// FNV-64 parameters of the decision digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// tally counts one sender's outcomes and folds each into its home's digest.
type tally struct {
	requests      int
	failedReqs    int
	items         int
	failed        int
	allowed       int
	rejected      int
	unsafe        int // sensitive allows for spoofed homes
	chainAttempts int
	chainBlocked  int
	unsafeChain   int // chain tails allowed
	chainFalse    int // chained homes' benign events rejected
}

// record folds one request's results. A request error, or a result count
// that does not match, fails every item of the request; a failed item
// folds the tag 'e' into its home's digest, a decision folds fleetload's
// two tags (allowed or denied, sensitive or not).
func (t *tally) record(g *gen, digests []uint64, b *batch, res []cloud.FleetResult, err error) {
	t.requests++
	t.items += len(b.items)
	if err == nil && len(res) != len(b.items) {
		err = fmt.Errorf("%d results for %d items", len(res), len(b.items))
	}
	if err != nil {
		t.failedReqs++
	}
	for k, owner := range b.owners {
		d := digests[owner]
		if err != nil || res[k].Error != "" {
			t.failed++
			digests[owner] = (d ^ 'e') * fnvPrime
			continue
		}
		r := res[k]
		b0, b1 := byte('d'), byte('n')
		if r.Allowed {
			b0 = 'a'
			t.allowed++
		} else {
			t.rejected++
		}
		if r.Sensitive {
			b1 = 's'
		}
		d = (d ^ uint64(b0)) * fnvPrime
		digests[owner] = (d ^ uint64(b1)) * fnvPrime
		if r.Allowed && r.Sensitive && g.spoofed[owner] {
			t.unsafe++
		}
		switch {
		case b.tails[k]:
			t.chainAttempts++
			if r.Allowed {
				t.unsafeChain++
			} else {
				t.chainBlocked++
			}
		case g.chained[owner] && !r.Allowed:
			t.chainFalse++
		}
	}
}

func (t *tally) add(o tally) {
	t.requests += o.requests
	t.failedReqs += o.failedReqs
	t.items += o.items
	t.failed += o.failed
	t.allowed += o.allowed
	t.rejected += o.rejected
	t.unsafe += o.unsafe
	t.chainAttempts += o.chainAttempts
	t.chainBlocked += o.chainBlocked
	t.unsafeChain += o.unsafeChain
	t.chainFalse += o.chainFalse
}

func newDigests(homes int) []uint64 {
	d := make([]uint64, homes)
	for i := range d {
		d[i] = fnvOffset
	}
	return d
}

// combine folds the per-home digests in home order into the stream digest.
func combine(digests []uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range digests {
		for b := range buf {
			buf[b] = byte(d >> (8 * b))
		}
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
