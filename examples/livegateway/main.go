// Livegateway drives the full network deployment: a simulated Xiaomi
// gateway on encrypted UDP and a SmartThings REST bridge, both backed by
// one home and gated by the IDS. The example then plays both roles — the
// multi-vendor collector pulling the sensor context over the wire, and an
// app issuing sensitive control instructions through each vendor path.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"iotsid/internal/bridge"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/miio"
	"iotsid/internal/resilience"
	"iotsid/internal/smartthings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livegateway:", err)
		os.Exit(1)
	}
}

func run() error {
	h, err := home.NewStandard(home.EnvConfig{Seed: 6})
	if err != nil {
		return err
	}
	registry := instr.BuiltinRegistry()

	// Vendor substrates.
	token, err := miio.ParseToken("a1b2c3d4e5f60718293a4b5c6d7e8f90")
	if err != nil {
		return err
	}
	xiaomi := bridge.NewXiaomiHandler(h, registry)
	gw, err := miio.NewGateway(miio.GatewayConfig{DeviceID: 0xBEEF, Token: token, Handler: xiaomi})
	if err != nil {
		return err
	}
	defer gw.Close()
	stBackend := bridge.NewSTBackend(h, registry)
	st, err := smartthings.NewServer(smartthings.ServerConfig{Token: "llat-demo", Backend: stBackend})
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("gateway: udp %s  bridge: %s\n", gw.Addr(), st.URL())

	// Clients (the collector's view of the world).
	miioClient, err := miio.Dial(gw.Addr().String(), token, miio.WithTimeout(2*time.Second))
	if err != nil {
		return err
	}
	defer miioClient.Close()
	stClient, err := smartthings.NewClient(st.URL(), "llat-demo")
	if err != nil {
		return err
	}

	// The IDS collects over BOTH vendor paths: the Xiaomi feed is required
	// (fail closed without it), the SmartThings feed is optional with a
	// 30s bounded-staleness fallback, and both are guarded by retry
	// policies and circuit breakers feeding a health registry.
	health := resilience.NewRegistry()
	retry := resilience.Policy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, Jitter: 0.2, Seed: 6}
	collector, err := core.NewMultiCollector(core.MultiConfig{Health: health},
		core.Source{
			Name: "miio", Required: true, Retry: &retry,
			Collector: &core.MiioCollector{Client: miioClient},
			Breaker:   resilience.NewBreaker(resilience.BreakerConfig{Name: "miio"}),
		},
		core.Source{
			Name: "smartthings", Staleness: 30 * time.Second, Retry: &retry,
			Collector: &core.STCollector{Client: stClient},
			Breaker:   resilience.NewBreaker(resilience.BreakerConfig{Name: "smartthings"}),
		},
	)
	if err != nil {
		return err
	}
	detector, err := core.DefaultDetector()
	if err != nil {
		return err
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		return err
	}
	fmt.Println("training feature memory...")
	memory, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		return err
	}
	framework, err := core.New(core.Config{Detector: detector, Collector: collector, Memory: memory})
	if err != nil {
		return err
	}
	xiaomi.SetGate(framework.Gate)
	stBackend.SetGate(framework.Gate)

	collectCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	snap, prov, err := collector.CollectDetailed(collectCtx)
	cancel()
	if err != nil {
		return err
	}
	fmt.Printf("collected %d features over the two vendor paths\n", len(snap.Values))
	for _, src := range prov {
		fmt.Printf("  source %-12s %s\n", src.Name, src.State)
	}
	fmt.Println()

	// Issue a sensitive instruction through each vendor path under the
	// current (benign daytime) context.
	fmt.Println("window.open via the encrypted Xiaomi path:")
	if _, err := miioClient.Call("execute", map[string]any{"op": "window.open", "device": "window-1"}); err != nil {
		fmt.Printf("  rejected: %v\n", err)
	} else {
		fmt.Println("  executed")
	}
	fmt.Println("curtain.open via the SmartThings REST path:")
	if _, err := stClient.CallService(context.Background(), "curtain", "open", map[string]any{"device_id": "curtain-1"}); err != nil {
		fmt.Printf("  rejected: %v\n", err)
	} else {
		fmt.Println("  executed")
	}

	// Now stage a burglary context and watch the same calls bounce.
	fmt.Println("\nstaging a burglary context (night, empty, unlocked, no hazard)...")
	attack, err := dataset.AttackSceneSeeded(dataset.ModelWindow, 99)
	if err != nil {
		return err
	}
	h.Env().Apply(attack)
	fmt.Println("window.open via the encrypted Xiaomi path:")
	if _, err := miioClient.Call("execute", map[string]any{"op": "window.open", "device": "window-1"}); err != nil {
		fmt.Printf("  rejected: %v\n", err)
	} else {
		fmt.Println("  executed")
	}
	log := framework.Log()
	fmt.Printf("\nIDS log: %d authorisations recorded\n", len(log))
	for _, e := range log {
		if !e.Decision.Allowed {
			fmt.Printf("  #%d %s @ %s rejected: %s\n", e.Seq, e.Op, e.DeviceID, e.Decision.Explain())
		}
	}
	return nil
}
