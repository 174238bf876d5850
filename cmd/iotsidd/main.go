// Command iotsidd runs the full intrusion-detection deployment: the home
// simulator, the Xiaomi-style encrypted UDP gateway, the SmartThings-style
// REST bridge, the trigger-action automation engine, and the trained IDS
// framework gating every sensitive instruction on all three paths.
//
// It then fast-forwards simulated time, injecting periodic sensor-spoofing
// attacks, and reports every interception and camera warning.
//
// Usage:
//
//	iotsidd [-hours 24] [-step 1m] [-seed 7] [-attack-every 4h]
//	        [-miio-addr 127.0.0.1:0] [-st-addr 127.0.0.1:0] [-token HEX32]
//	        [-aux-fault 0.2] [-aux-staleness 30s] [-collection poll|push]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"iotsid/internal/automation"
	"iotsid/internal/bridge"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/miio"
	"iotsid/internal/obs"
	"iotsid/internal/resilience"
	"iotsid/internal/sensor"
	"iotsid/internal/smartthings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iotsidd:", err)
		os.Exit(1)
	}
}

func run() error {
	hours := flag.Float64("hours", 24, "simulated hours to run")
	step := flag.Duration("step", time.Minute, "simulation step")
	seed := flag.Int64("seed", 7, "world seed")
	attackEvery := flag.Duration("attack-every", 4*time.Hour, "inject a spoofed-sensor attack at this simulated interval")
	miioAddr := flag.String("miio-addr", "127.0.0.1:0", "gateway UDP listen address")
	stAddr := flag.String("st-addr", "127.0.0.1:0", "REST bridge listen address")
	tokenHex := flag.String("token", "00112233445566778899aabbccddeeff", "gateway device token (32 hex chars)")
	auditPath := flag.String("audit", "", "write the decision log as JSON lines to this file on exit")
	rulesPath := flag.String("rules", "", "load automation rules from this file instead of the builtin set")
	devmodeAddr := flag.String("devmode-addr", "127.0.0.1:0", "developer-mode event channel UDP address (empty = disabled)")
	saveMemory := flag.String("save-memory", "", "write the trained feature memory to this file")
	loadMemory := flag.String("load-memory", "", "load a previously trained feature memory instead of training")
	auxFault := flag.Float64("aux-fault", 0.2, "per-poll error probability of the optional aux sensor feed (0 disables chaos)")
	auxStaleness := flag.Duration("aux-staleness", 30*time.Second, "budget for serving the aux feed's last-good snapshot after a failed poll")
	collection := flag.String("collection", "poll", "sensor collection mode: poll (resilient multi-source polling) or push (event-driven epoch store)")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text), /healthz and /debug/pprof on this address (empty = disabled)")
	dumpMetrics := flag.Bool("dump-metrics", false, "print the final metrics exposition to stdout on exit")
	flag.Parse()

	metrics := obs.Default()

	// World.
	h, err := home.NewStandard(home.EnvConfig{Seed: *seed})
	if err != nil {
		return err
	}
	registry := instr.BuiltinRegistry()

	// IDS: questionnaire-derived detector + corpus-trained feature memory.
	detector, err := core.DefaultDetector()
	if err != nil {
		return err
	}
	var memory *core.FeatureMemory
	if *loadMemory != "" {
		f, err := os.Open(*loadMemory)
		if err != nil {
			return err
		}
		memory, err = core.Load(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded feature memory from %s (%d models)\n", *loadMemory, len(memory.Models()))
	} else {
		fmt.Println("training feature memory from the strategy corpus...")
		corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
		if err != nil {
			return err
		}
		memory, err = core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
		if err != nil {
			return err
		}
	}
	if *saveMemory != "" {
		f, err := os.Create(*saveMemory)
		if err != nil {
			return err
		}
		if err := memory.Save(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("feature memory written to %s\n", *saveMemory)
	}
	// Sensor context: two selectable collection paths.
	//
	// poll (default): a resilient two-source collector. The sim feed is the
	// required vendor gateway — if it cannot answer, sensitive instructions
	// fail closed. The aux feed is optional and chaos-wrapped, exercising
	// degraded mode (retry, breaker, bounded-stale fallback) in a live run.
	// It is declared first so the fresh required feed wins shared-feature
	// merges.
	//
	// push: an epoch store fed by the simulator's event stream (plus a
	// poll-to-push SmartThings adapter), so each Authorize is a pointer read
	// of the latest published view instead of a fan-out poll.
	health := resilience.NewRegistry()
	var (
		collector core.DetailedCollector
		auxChaos  *core.ChaosCollector
		store     *epoch.Store
	)
	switch *collection {
	case "poll":
		auxRetry := resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: *seed}
		auxChaos = &core.ChaosCollector{Inner: &core.SimCollector{Env: h.Env()}, Plan: core.ChaosPlan(*seed, *auxFault, 0, 0)}
		collector, err = core.NewMultiCollector(
			core.MultiConfig{Health: health, Metrics: metrics},
			core.Source{
				Name:      "aux",
				Collector: auxChaos,
				Staleness: *auxStaleness,
				Retry:     &auxRetry,
				Breaker: resilience.NewBreaker(resilience.BreakerConfig{
					Name: "aux", FailureThreshold: 5, OpenTimeout: 2 * time.Second,
					OnStateChange: core.BreakerTransitionHook(metrics, "aux"),
				}),
			},
			core.Source{
				Name:      "sim",
				Collector: &core.SimCollector{Env: h.Env()},
				Required:  true,
				Breaker: resilience.NewBreaker(resilience.BreakerConfig{
					Name:          "sim",
					OnStateChange: core.BreakerTransitionHook(metrics, "sim"),
				}),
			},
		)
		if err != nil {
			return err
		}
	case "push":
		// The sim source is pushed every step; the SmartThings source is
		// refreshed by the poll-to-push adapter on the same cadence. Both get
		// a two-step freshness budget so one missed refresh degrades rather
		// than fails.
		store, err = epoch.NewStore(epoch.Config{Now: h.Env().Now, Metrics: metrics},
			epoch.SourceConfig{Name: "sim", Required: true, FreshFor: 2 * *step},
			epoch.SourceConfig{Name: "smartthings", FreshFor: 2 * *step})
		if err != nil {
			return err
		}
		collector, err = core.NewEpochCollector(core.EpochCollectorConfig{Now: h.Env().Now}, store)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -collection mode %q (want poll or push)", *collection)
	}
	framework, err := core.New(core.Config{
		Detector:    detector,
		Collector:   collector,
		Memory:      memory,
		Metrics:     metrics,
		LogCapacity: auditCapacity,
	})
	if err != nil {
		return err
	}

	// Operator endpoints: Prometheus text at /metrics, liveness at
	// /healthz, pprof under /debug/pprof/.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			status := http.StatusOK
			body := map[string]any{"status": "ok"}
			if !health.Healthy() {
				status = http.StatusServiceUnavailable
				body["status"] = "degraded"
			}
			body["sources"] = health.Snapshot()
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(body)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = msrv.Serve(ln) }()
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
	}

	// Vendor paths, both gated by the IDS.
	token, err := miio.ParseToken(*tokenHex)
	if err != nil {
		return err
	}
	xiaomi := bridge.NewXiaomiHandler(h, registry)
	xiaomi.SetGate(framework.Gate)
	gw, err := miio.NewGateway(miio.GatewayConfig{Addr: *miioAddr, DeviceID: 0x4d41, Token: token, Handler: xiaomi})
	if err != nil {
		return err
	}
	defer gw.Close()
	stBackend := bridge.NewSTBackend(h, registry)
	stBackend.SetGate(framework.Gate)
	st, err := smartthings.NewServer(smartthings.ServerConfig{Addr: *stAddr, Token: "llat-iotsidd", Backend: stBackend})
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("miio gateway listening on %s (token %s)\n", gw.Addr(), token)
	fmt.Printf("smartthings bridge on %s (token llat-iotsidd)\n", st.URL())

	// Push mode: adapt the poll-only SmartThings bridge into the epoch store
	// by polling it over its real REST surface and pushing the decoded delta.
	var stPoller *bridge.STPoller
	if store != nil {
		stClient, err := smartthings.NewClient(st.URL(), "llat-iotsidd")
		if err != nil {
			return err
		}
		stPoller, err = bridge.NewSTPoller(stClient, store, "smartthings")
		if err != nil {
			return err
		}
	}

	// Developer-mode event channel: pushes every sensor change to
	// subscribers, as the vendor gateway's plaintext side channel does.
	var pump *bridge.EventPump
	var devmode *miio.DevMode
	if *devmodeAddr != "" {
		devmode, err = miio.NewDevMode(miio.DevModeConfig{Addr: *devmodeAddr})
		if err != nil {
			return err
		}
		defer devmode.Close()
		pump, err = bridge.NewEventPump(h.Env(), devmode)
		if err != nil {
			return err
		}
		fmt.Printf("devmode event channel on %s\n", devmode.Addr())
	}

	// Automation platform with the IDS interceptor.
	engine := automation.NewEngine(registry, h.Execute)
	engine.SetInterceptor(framework.Interceptor())
	if *rulesPath != "" {
		f, err := os.Open(*rulesPath)
		if err != nil {
			return err
		}
		n, err := automation.LoadRules(f, engine)
		_ = f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d automation rules from %s\n", n, *rulesPath)
	} else {
		rules := []struct{ name, text string }{
			{"fire vent", `WHEN smoke == TRUE THEN window.open @ window-1`},
			{"gas vent", `WHEN combustible_gas == TRUE THEN window.open @ window-1`},
			{"evening lights", `WHEN occupancy == TRUE AND hour_of_day >= 18 THEN light.on @ light-1`},
			{"cool when hot", `WHEN temperature_in > 28 AND occupancy == TRUE THEN aircon.set_cool @ aircon-1`},
			{"morning curtains", `WHEN hour_of_day >= 7 AND hour_of_day < 8 AND occupancy == TRUE THEN curtain.open @ curtain-1`},
		}
		for _, r := range rules {
			if err := engine.AddRuleText(r.name, r.text); err != nil {
				return err
			}
		}
	}
	warner := core.NewCameraWarner()

	// Simulated run.
	steps := int(*hours * float64(time.Hour) / float64(*step))
	attackSteps := int(*attackEvery / *step)
	fmt.Printf("\nsimulating %v hours (%d steps of %v)\n\n", *hours, steps, *step)
	var blocked, allowed int
	var degradedSteps, staleServes, contextOutages int
	for i := 0; i < steps; i++ {
		h.Env().Step(*step)
		if store != nil {
			// Event delivery: the simulator pushes its post-step state and the
			// SmartThings adapter re-polls the bridge, each publishing a new
			// epoch for the collector's pointer-read hot path.
			if err := store.Push("sim", h.Env().Snapshot()); err != nil {
				return err
			}
			pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
			_, perr := stPoller.Poll(pctx)
			pcancel()
			if perr != nil {
				return fmt.Errorf("smartthings poll-to-push: %w", perr)
			}
		}
		// Refresh the merged sensor context through the resilient collector —
		// the same collect a live cloud command would trigger — so the retry,
		// breaker and staleness machinery (and the health registry) run hot
		// for the whole simulation.
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, prov, cerr := collector.CollectDetailed(cctx)
		cancel()
		switch {
		case cerr != nil:
			contextOutages++
		case prov.Degraded():
			degradedSteps++
		}
		for _, s := range prov {
			if s.State == core.SourceStale {
				staleServes++
			}
		}
		if attackSteps > 0 && i > 0 && i%attackSteps == 0 {
			injectSpoof(h)
			fmt.Printf("%s  ATTACK injected: spoofed smoke sensor (clean air, empty home)\n",
				h.Env().Now().Format("Jan 2 15:04"))
		}
		snap := h.Env().Snapshot()
		if pump != nil {
			if _, err := pump.Tick(); err != nil {
				return err
			}
		}
		for _, ev := range engine.Evaluate(snap) {
			switch {
			case ev.Err != "":
				fmt.Printf("%s  rule %q error: %s\n", snap.At.Format("Jan 2 15:04"), ev.Rule, ev.Err)
			case ev.Allowed:
				allowed++
				fmt.Printf("%s  rule %q: %s @ %s ALLOWED (%s)\n",
					snap.At.Format("Jan 2 15:04"), ev.Rule, ev.Op, ev.DeviceID, ev.Reason)
			default:
				blocked++
				fmt.Printf("%s  rule %q: %s @ %s BLOCKED (%s)\n",
					snap.At.Format("Jan 2 15:04"), ev.Rule, ev.Op, ev.DeviceID, ev.Reason)
			}
		}
		for _, w := range warner.Observe(snap) {
			fmt.Printf("%s  camera warning: %s\n", snap.At.Format("Jan 2 15:04"), w)
		}
	}
	fmt.Printf("\nrun complete: %d automation firings allowed, %d blocked by the IDS\n", allowed, blocked)
	fmt.Printf("camera warnings by trigger: %v\n", warner.Stats())
	fmt.Printf("sensor context: %d/%d collects degraded (%d stale fallbacks, %d full outages)\n",
		degradedSteps, steps, staleServes, contextOutages)
	if auxChaos != nil {
		fmt.Printf("aux feed: %d poll attempts across %d collects — the surplus is faults absorbed by retry\n",
			auxChaos.Calls(), steps)
		fmt.Println("source health at shutdown:")
		for _, row := range health.Snapshot() {
			role := "optional"
			if row.Required {
				role = "required"
			}
			line := fmt.Sprintf("  %-4s %-8s state=%-8s", row.Name, role, row.State)
			if row.Breaker != "" {
				line += " breaker=" + row.Breaker
			}
			if row.LastError != "" {
				line += " last_error=" + row.LastError
			}
			fmt.Println(line)
		}
		if health.Healthy() {
			fmt.Println("  overall: healthy")
		} else {
			fmt.Println("  overall: DEGRADED — sensitive instructions fail closed")
		}
	}
	if store != nil {
		fmt.Printf("epoch store: %d epochs published across %d steps (2 sources per step)\n",
			store.View().Epoch, steps)
	}
	if devmode != nil {
		fmt.Printf("devmode subscribers at shutdown: %d\n", devmode.Subscribers())
	}
	decisions := framework.Log()
	rejected := 0
	for _, e := range decisions {
		if !e.Decision.Allowed {
			rejected++
		}
	}
	fmt.Printf("decision log: %d decisions recorded (%d allowed, %d rejected)\n",
		len(decisions), len(decisions)-rejected, rejected)
	if *auditPath != "" {
		if err := writeAudit(*auditPath, decisions); err != nil {
			return err
		}
		fmt.Printf("decision log written to %s\n", *auditPath)
	}
	if *dumpMetrics {
		fmt.Println("\nfinal metrics exposition:")
		if err := metrics.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// auditCapacity bounds the framework's decision ring, and so the -audit
// export, to the newest 8192 decisions.
const auditCapacity = 8192

// writeAudit exports the decision log as JSON lines, oldest first; each
// decision carries its rendered explanation.
func writeAudit(path string, decisions []core.LogEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range decisions {
		if err := enc.Encode(e); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// injectSpoof forges the smoke boolean with every correlate inconsistent —
// the paper's §III-A attack.
func injectSpoof(h *home.Home) {
	spoof := sensor.NewSnapshot(h.Env().Now())
	spoof.Set(sensor.FeatSmoke, sensor.Bool(true))
	spoof.Set(sensor.FeatGas, sensor.Bool(false))
	spoof.Set(sensor.FeatAirQuality, sensor.Number(30))
	spoof.Set(sensor.FeatMotion, sensor.Bool(false))
	spoof.Set(sensor.FeatOccupancy, sensor.Bool(false))
	spoof.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	spoof.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockUnlocked))
	h.Env().Apply(spoof)
}
