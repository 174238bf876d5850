// Command attacksim runs a mixed attack campaign against a trained IDS
// deployment: six attack classes (one per evaluated device model), each
// staged in the home simulator and fired as a sensitive instruction,
// interleaved with legitimate commands from legal scenes.
//
// Usage:
//
//	attacksim [-rounds 100] [-seed 2021]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"iotsid/internal/eval"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}

func run() error {
	rounds := flag.Int("rounds", 100, "campaign rounds (each fires every attack class once)")
	seed := flag.Int64("seed", 0, "override the evaluation seed (0 = defaults)")
	flag.Parse()

	cfg := eval.DefaultConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	fmt.Println("training the IDS (survey + corpus + six models)...")
	s, err := eval.NewSuite(cfg)
	if err != nil {
		return err
	}
	r, err := s.Campaign(context.Background(), *rounds)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(r.Table())
	fmt.Println("note: tv_scare sits below the questionnaire's 50% high-threat bar")
	fmt.Println("(Table III), so the sensitive-command detector never escalates it —")
	fmt.Println("that row measures the framework's scope boundary, not a model miss.")
	return nil
}
