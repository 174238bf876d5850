// Cloudcontrol drives the platform's second control path (Fig 1): the
// mobile app is away from home, so its instructions go to the IoT cloud,
// which authenticates the user, verifies device ownership, runs the IDS
// against the live sensor context, and only then forwards to the
// device. The example logs in, binds devices, and shows a burglary-context
// window.open bouncing at the cloud while a thermostat command sails
// through.
package main

import (
	"fmt"
	"os"

	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/home"
	"iotsid/internal/instr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudcontrol:", err)
		os.Exit(1)
	}
}

func run() error {
	h, err := home.NewStandard(home.EnvConfig{Seed: 8})
	if err != nil {
		return err
	}

	// Train the IDS once; the cloud authorizes every command through it.
	fmt.Println("training feature memory...")
	detector, err := core.DefaultDetector()
	if err != nil {
		return err
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		return err
	}
	memory, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		return err
	}
	framework, err := core.New(core.Config{Detector: detector, Collector: &core.SimCollector{Env: h.Env()}, Memory: memory})
	if err != nil {
		return err
	}

	srv, err := cloud.NewServer(cloud.Config{
		Users:     map[string]string{"alice": "correct-horse"},
		Registry:  instr.BuiltinRegistry(),
		Forward:   h.Execute,
		Authorize: framework.Authorize,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, id := range []string{"window-1", "aircon-1", "light-1"} {
		if err := srv.BindDevice(id, "alice"); err != nil {
			return err
		}
	}
	fmt.Printf("cloud up at %s\n\n", srv.URL())

	app, err := cloud.NewClient(srv.URL())
	if err != nil {
		return err
	}
	if err := app.Login("alice", "correct-horse"); err != nil {
		return err
	}
	devices, err := app.Devices()
	if err != nil {
		return err
	}
	fmt.Printf("logged in; bound devices: %v\n\n", devices)

	// Stage a burglary context and try to open the window remotely.
	attack, err := dataset.AttackSceneSeeded(dataset.ModelWindow, 5)
	if err != nil {
		return err
	}
	h.Env().Apply(attack)
	fmt.Println("remote window.open against a burglary context:")
	if err := app.Command("window.open", "window-1", nil); err != nil {
		fmt.Printf("  cloud refused: %v\n", err)
	} else {
		fmt.Println("  forwarded (unexpected!)")
	}

	// Back in a legal scene (hot afternoon, family home), the same
	// pipeline lets a thermostat adjustment through.
	legal, err := dataset.LegalSceneSeeded(dataset.ModelAircon, 6)
	if err != nil {
		return err
	}
	h.Env().Apply(legal)
	fmt.Println("remote thermostat.set_target 22°C in a legal scene:")
	if err := app.Command("thermostat.set_target", "aircon-1", map[string]any{"target": 22}); err != nil {
		fmt.Printf("  cloud refused: %v\n", err)
	} else {
		fmt.Println("  forwarded to the device")
	}

	// A stolen-session attempt on somebody else's device also bounces.
	fmt.Println("remote vacuum.start on an unbound device:")
	if err := app.Command("vacuum.start", "vacuum-1", nil); err != nil {
		fmt.Printf("  cloud refused: %v\n", err)
	}

	hist, err := app.History()
	if err != nil {
		return err
	}
	fmt.Println("\ncloud command history:")
	for _, e := range hist {
		fmt.Printf("  %-22s %-10s %s\n", e.Op+" @ "+e.DeviceID, e.Outcome, e.Detail)
	}
	return nil
}
