// Command benchgen regenerates every table and figure of the paper's
// evaluation and prints them side by side with the paper's reported
// numbers.
//
// Usage:
//
//	benchgen [-seed N] [-ablations] [-workers N] [-csv DIR]
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"iotsid/internal/eval"
	"iotsid/internal/instr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 0, "override the evaluation seed (0 = paper defaults)")
	ablations := flag.Bool("ablations", false, "also run the ablations, the extension experiments and every campaign table")
	csvDir := flag.String("csv", "", "also write table3/table6/fig6/fig7 as CSV into this directory")
	workers := flag.Int("workers", 0, "parallel workers for training and sweeps (0 = GOMAXPROCS); results are identical for every value")
	flag.Parse()

	cfg := eval.DefaultConfig()
	cfg.Workers = *workers
	if *seed != 0 {
		cfg.Seed = *seed
		cfg.CorpusSeed = *seed + 1
		cfg.DatasetSeed = *seed + 2
		cfg.TrainSeed = *seed + 3
	}
	fmt.Println("building evaluation suite (survey + corpus + six trained models)...")
	s, err := eval.NewSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(eval.RenderTableI())
	fmt.Println("Table II — questionnaire form (curtains/blinds example)")
	for _, line := range eval.TableII(instr.CatCurtain) {
		fmt.Println("  " + line)
	}
	fmt.Println()
	fmt.Println(s.RenderTableIII())
	fmt.Println(s.RenderFig4())
	fmt.Println(s.RenderTableIV())
	fmt.Println(s.RenderFig5())
	fmt.Println(s.RenderFig6())
	tv := eval.TableV()
	fmt.Printf("Table V — metric equations on TP=%d TN=%d FP=%d FN=%d:\n", tv.Matrix.TP, tv.Matrix.TN, tv.Matrix.FP, tv.Matrix.FN)
	fmt.Printf("  accuracy=%.4f recall=%.4f precision=%.4f FPR=%.4f FNR=%.4f\n\n",
		tv.Accuracy, tv.Recall, tv.Precision, tv.FPR, tv.FNR)
	fmt.Println(s.RenderTableVI())
	fmt.Println(s.RenderFig7())

	if *csvDir != "" {
		if err := writeCSVs(s, *csvDir); err != nil {
			return err
		}
		fmt.Printf("CSV tables written to %s\n\n", *csvDir)
	}

	if *ablations {
		out, err := s.RenderBaselines()
		if err != nil {
			return err
		}
		fmt.Println(out)
		crit, err := s.CriterionAblation()
		if err != nil {
			return err
		}
		fmt.Println("Criterion ablation — test accuracy")
		for _, r := range crit {
			fmt.Printf("  %-20s %-12s %.4f (FNR %.4f)\n", r.Model, r.Criterion, r.TestAcc, r.FNR)
		}
		fmt.Println()
		samp, err := s.SamplingAblation()
		if err != nil {
			return err
		}
		fmt.Println("Sampling ablation — test accuracy / recall")
		for _, r := range samp {
			fmt.Printf("  %-20s %-18s acc=%.4f recall=%.4f\n", r.Model, r.Sampling, r.TestAcc, r.Recall)
		}
		fmt.Println()
		forestOut, err := s.RenderForestComparison()
		if err != nil {
			return err
		}
		fmt.Println(forestOut)
		prevOut, err := s.RenderPrevention(400)
		if err != nil {
			return err
		}
		fmt.Println(prevOut)
		transferOut, err := s.RenderTransfer([]int64{1001, 2002, 3003, 4004, 5005})
		if err != nil {
			return err
		}
		fmt.Println(transferOut)
		for _, row := range s.CampaignRows() {
			r, err := row.Run(context.Background(), row.Rounds)
			if err != nil {
				return fmt.Errorf("%s campaign: %w", row.Name, err)
			}
			fmt.Println(r.Table())
		}
	}
	return nil
}

// writeCSVs exports the headline tables/figures as CSV files.
func writeCSVs(s *eval.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ff := func(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }

	table3 := [][]string{{"category", "high_pct", "low_pct", "none_pct", "sensitive"}}
	for _, r := range s.TableIII() {
		table3 = append(table3, []string{r.Title, ff(r.HighPct), ff(r.LowPct), ff(r.NonePct),
			strconv.FormatBool(r.Sensitive)})
	}
	if err := writeCSV(filepath.Join(dir, "table3.csv"), table3); err != nil {
		return err
	}

	table6 := [][]string{{"model", "train_acc", "test_acc", "recall", "precision", "fpr", "fnr", "cv_mean_acc"}}
	for _, r := range s.TableVI() {
		table6 = append(table6, []string{r.Title, ff(r.TrainAcc), ff(r.TestAcc), ff(r.Recall),
			ff(r.Prec), ff(r.FPR), ff(r.FNR), ff(r.CVMean)})
	}
	if err := writeCSV(filepath.Join(dir, "table6.csv"), table6); err != nil {
		return err
	}

	weights, err := s.Fig6()
	if err != nil {
		return err
	}
	fig6 := [][]string{{"attribute", "weight"}}
	for _, w := range weights {
		fig6 = append(fig6, []string{w.Attr, ff(w.Weight)})
	}
	if err := writeCSV(filepath.Join(dir, "fig6.csv"), fig6); err != nil {
		return err
	}

	fig7 := [][]string{{"trigger", "strategies", "share_pct"}}
	for _, r := range s.Fig7() {
		fig7 = append(fig7, []string{r.Trigger.String(), strconv.Itoa(r.Strategies), ff(r.SharePct)})
	}
	return writeCSV(filepath.Join(dir, "fig7.csv"), fig7)
}

func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
