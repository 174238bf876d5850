package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/mlearn/tree"
)

// suite is shared across the test binary; building it trains all six
// models once.
var sharedSuite *Suite

func suiteForTest(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite == nil {
		s, err := NewSuite(DefaultConfig())
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		sharedSuite = s
	}
	return sharedSuite
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Index != i+1 || r.Title == "" || r.Examples == "" {
			t.Errorf("row %d = %+v", i, r)
		}
	}
	if !strings.Contains(RenderTableI(), "Security camera") {
		t.Error("render missing category")
	}
}

func TestTableII(t *testing.T) {
	q := TableII(instr.CatCurtain)
	if len(q) != 3 || !strings.Contains(q[0], "Curtain") {
		t.Errorf("questions = %v", q)
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	s := suiteForTest(t)
	rows := s.TableIII()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[instr.Category]float64{
		instr.CatAlarm:           70.59,
		instr.CatKitchen:         67.65,
		instr.CatEntertainment:   26.47,
		instr.CatAirConditioning: 52.94,
		instr.CatCurtain:         55.88,
		instr.CatLighting:        64.71,
		instr.CatWindowDoorLock:  94.12,
		instr.CatVacuum:          41.18,
		instr.CatCamera:          94.12,
	}
	for _, r := range rows {
		if math.Abs(r.HighPct-want[r.Category]) > 0.01 {
			t.Errorf("%v high = %.2f, want %.2f", r.Category, r.HighPct, want[r.Category])
		}
		if r.Sensitive != (want[r.Category] > 50) {
			t.Errorf("%v sensitive = %v", r.Category, r.Sensitive)
		}
	}
	if !strings.Contains(s.RenderTableIII(), "94.12") {
		t.Error("render missing value")
	}
}

func TestFig4MatchesPaper(t *testing.T) {
	s := suiteForTest(t)
	f := s.Fig4()
	if math.Abs(f.ControlWorsePct-85.29) > 0.01 {
		t.Errorf("ControlWorsePct = %v", f.ControlWorsePct)
	}
	if math.Abs(f.CoveredPct-91.18) > 0.01 {
		t.Errorf("CoveredPct = %v", f.CoveredPct)
	}
	if f.ControlHighMeanPct <= f.StatusHighMeanPct {
		t.Error("control threat must exceed status threat (Fig 4)")
	}
	if s.RenderFig4() == "" {
		t.Error("empty render")
	}
}

func TestTableIV(t *testing.T) {
	s := suiteForTest(t)
	rows := s.TableIV(5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Users < rows[i].Users {
			t.Error("Table IV not sorted by popularity")
		}
	}
	if !strings.Contains(s.RenderTableIV(), "WHEN") {
		t.Error("render missing rule text")
	}
}

func TestTableV(t *testing.T) {
	c := TableV()
	m := c.Matrix
	if c.Accuracy != m.Accuracy() || c.Recall != m.Recall() || c.Precision != m.Precision() ||
		c.FPR != m.FPR() || c.FNR != m.FNR() {
		t.Error("Table V values inconsistent with the confusion matrix")
	}
	if math.Abs(c.Recall+c.FNR-1) > 1e-12 {
		t.Error("equation (2)+(5) identity broken")
	}
}

// TestTableVIReproducesPaperShape is the headline check: per model, the
// measured numbers sit near the paper's (test accuracy within 5 points,
// all ≥ 0.85; kitchen among the best; FNR small; FPR ≈ 0 outside window).
func TestTableVIReproducesPaperShape(t *testing.T) {
	s := suiteForTest(t)
	rows := s.TableVI()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	var kitchenAcc, minAcc, maxAcc float64
	minAcc = 1
	for _, r := range rows {
		p := PaperTableVI(r.Model)
		if math.Abs(r.TestAcc-p.TestAcc) > 0.05 {
			t.Errorf("%s test acc = %.4f, paper %.4f (off by >0.05)", r.Model, r.TestAcc, p.TestAcc)
		}
		if r.TestAcc < 0.85 {
			t.Errorf("%s below band: %v", r.Model, r.TestAcc)
		}
		if r.FNR > 0.16 {
			t.Errorf("%s FNR = %v", r.Model, r.FNR)
		}
		if r.FPR > 0.08 {
			t.Errorf("%s FPR = %v, want ≈0 (Table VI)", r.Model, r.FPR)
		}
		if r.Model == dataset.ModelKitchen {
			kitchenAcc = r.TestAcc
		}
		if r.TestAcc < minAcc {
			minAcc = r.TestAcc
		}
		if r.TestAcc > maxAcc {
			maxAcc = r.TestAcc
		}
	}
	// Kitchen is among the paper's best models ("the eigenvalue types of
	// kitchen appliances are relatively simple").
	if kitchenAcc < 0.93 {
		t.Errorf("kitchen acc %.4f, want near the top (max %.4f)", kitchenAcc, maxAcc)
	}
	// The headline: every model ≥ 89.23 %... our light model reproduces
	// exactly that minimum; allow a small band.
	if minAcc < 0.87 {
		t.Errorf("minimum accuracy %.4f below the paper's 0.8923 headline band", minAcc)
	}
	if !strings.Contains(s.RenderTableVI(), "Kitchen appliances") {
		t.Error("render missing row")
	}
}

func TestFig5Popularity(t *testing.T) {
	s := suiteForTest(t)
	pts := s.Fig5()
	if len(pts) < 8 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Users < pts[i].Users {
			t.Error("popularity not monotone over rank")
		}
	}
	// Heavy head (Fig 5's hero strategies).
	if pts[0].Users < 10000 {
		t.Errorf("top strategy users = %d", pts[0].Users)
	}
	if s.RenderFig5() == "" {
		t.Error("empty render")
	}
}

func TestFig6WeightShape(t *testing.T) {
	s := suiteForTest(t)
	weights, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != 9 {
		t.Fatalf("weights = %d, want the nine of Fig 6", len(weights))
	}
	if weights[0].Attr != "smoke" {
		t.Errorf("top feature = %s, want smoke", weights[0].Attr)
	}
	var sum, cluster float64
	discrete := map[string]bool{"smoke": true, "combustible_gas": true, "voice_command": true, "door_lock": true}
	for _, w := range weights {
		sum += w.Weight
		if discrete[w.Attr] {
			cluster += w.Weight
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	if cluster < 0.55 {
		t.Errorf("discrete cluster = %v, want dominant", cluster)
	}
	if !strings.Contains(s.RenderFig6(), "smoke") {
		t.Error("render missing feature")
	}
}

func TestFig7MatchesPaperShape(t *testing.T) {
	s := suiteForTest(t)
	rows := s.Fig7()
	total := 0
	for i, r := range rows {
		total += r.Strategies
		if i > 0 && rows[i-1].Strategies < r.Strategies {
			t.Error("Fig 7 categories not in descending order")
		}
	}
	if total != dataset.CameraWarnCount {
		t.Errorf("total warning strategies = %d, want %d", total, dataset.CameraWarnCount)
	}
	if rows[0].Trigger != dataset.WarnDoorWindowOpened {
		t.Errorf("top trigger = %v, want door/window opened", rows[0].Trigger)
	}
	if !strings.Contains(s.RenderFig7(), "319") {
		t.Error("render missing total")
	}
}

func TestBaselinesTreeCompetitive(t *testing.T) {
	s := suiteForTest(t)
	rows, err := s.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TreeAcc < 0.85 {
			t.Errorf("%s tree acc = %v", r.Model, r.TreeAcc)
		}
		// The paper picks the tree for this data: it must stay within two
		// points of whichever classifier wins on every model (rank flips
		// among near-equal classifiers are split noise).
		best := r.TreeAcc
		for _, acc := range []float64{r.KNNAcc, r.BayesAcc, r.SVMAcc} {
			if acc > best {
				best = acc
			}
		}
		if r.TreeAcc+0.02 < best {
			t.Errorf("%s: tree %.4f more than 2 points behind best %.4f", r.Model, r.TreeAcc, best)
		}
	}
	if _, err := s.RenderBaselines(); err != nil {
		t.Fatal(err)
	}
}

func TestCriterionAblation(t *testing.T) {
	s := suiteForTest(t)
	rows, err := s.CriterionAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 6 models × 3 criteria
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Gain ratio legitimately struggles on the window mix (its
		// split-info denominator disfavours the small crisp hazard
		// splits); everything else stays in the band.
		floor := 0.80
		if r.Criterion == tree.GainRatio {
			floor = 0.70
		}
		if r.TestAcc < floor {
			t.Errorf("%s/%s acc = %v", r.Model, r.Criterion, r.TestAcc)
		}
	}
}

func TestSamplingAblation(t *testing.T) {
	s := suiteForTest(t)
	rows, err := s.SamplingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TestAcc < 0.80 {
			t.Errorf("%s/%s acc = %v", r.Model, r.Sampling, r.TestAcc)
		}
	}
}

func TestScalingAblation(t *testing.T) {
	s := suiteForTest(t)
	rows, err := s.ScalingAblation(dataset.ModelWindow, []int{100, 400, 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More data must not make things dramatically worse.
	if rows[2].TestAcc+0.05 < rows[0].TestAcc {
		t.Errorf("accuracy degrades with data: %v -> %v", rows[0].TestAcc, rows[2].TestAcc)
	}
}

func TestTrainReportCriterionOverride(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.TrainReport(dataset.ModelKitchen, core.TrainConfig{
		Tree: tree.Config{Criterion: tree.Entropy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TestAccuracy < 0.85 {
		t.Errorf("entropy kitchen acc = %v", r.TestAccuracy)
	}
}

func TestForestComparison(t *testing.T) {
	s := suiteForTest(t)
	rows, err := s.ForestComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TreeAcc < 0.85 || r.ForestAcc < 0.85 {
			t.Errorf("%s accuracies tree=%v forest=%v", r.Model, r.TreeAcc, r.ForestAcc)
		}
		// The learned concepts are strongly rankable: AUC well above chance.
		if r.TreeAUC < 0.9 || r.ForestAUC < 0.9 {
			t.Errorf("%s AUC tree=%v forest=%v", r.Model, r.TreeAUC, r.ForestAUC)
		}
	}
	if _, err := s.RenderForestComparison(); err != nil {
		t.Fatal(err)
	}
}

func TestPreventionComparison(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.PreventionComparison(200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spoofs != 200 || r.Genuine != 200 {
		t.Fatalf("result = %+v", r)
	}
	idsRate := float64(r.IDSDetected) / float64(r.Spoofs)
	pvRate := float64(r.PVDetected) / float64(r.Spoofs)
	if idsRate < 0.7 {
		t.Errorf("IDS spoof detection = %v", idsRate)
	}
	// The paper's argument: pre-execution context judgment detects far
	// more than post-hoc event verification, and intercepts before any
	// action runs.
	if idsRate <= pvRate {
		t.Errorf("IDS %v must beat the event verifier %v", idsRate, pvRate)
	}
	if r.IDSExecutedBeforeStop != 0 {
		t.Error("IDS interception must be pre-execution")
	}
	if r.PVExecutedBeforeStop != r.Spoofs {
		t.Error("post-hoc verification runs after execution by construction")
	}
	if float64(r.IDSFalseAlarms)/float64(r.Genuine) > 0.15 {
		t.Errorf("IDS false alarms = %d/%d", r.IDSFalseAlarms, r.Genuine)
	}
	if _, err := s.RenderPrevention(50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PreventionComparison(0); err == nil {
		t.Error("want n error")
	}
}

func TestCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.Campaign(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerType) != 6 {
		t.Fatalf("attack types = %d", len(r.PerType))
	}
	for typ, c := range r.PerType {
		if c.Attempts != 40 {
			t.Errorf("%s attempts = %d", typ, c.Attempts)
		}
		rate := float64(c.Blocked) / float64(c.Attempts)
		if typ == AttackTVScare {
			// TV control is below the Table III sensitivity bar: the
			// detector never escalates it, so nothing is blocked — the
			// campaign documents that scope boundary.
			if rate != 0 {
				t.Errorf("tv_scare block rate = %v, want 0 (outside detector scope)", rate)
			}
			continue
		}
		if rate < 0.7 {
			t.Errorf("%s block rate = %v", typ, rate)
		}
	}
	if r.Safety() < 0.7 {
		t.Errorf("overall block rate = %v", r.Safety())
	}
	if r.FalseBlockRate() > 0.15 {
		t.Errorf("false block rate = %v", r.FalseBlockRate())
	}
	if out := r.Table(); !strings.Contains(out, "overall interception") {
		t.Errorf("rendered campaign missing its summary line:\n%s", out)
	}
}

func TestTransferAcrossHomes(t *testing.T) {
	s := suiteForTest(t)
	seeds := []int64{1001, 2002, 3003}
	rows, err := s.Transfer(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6*len(seeds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Trained once, deployed to a fresh home: accuracy must hold.
		if r.Accuracy < 0.85 {
			t.Errorf("%s seed %d accuracy = %v", r.Model, r.Seed, r.Accuracy)
		}
	}
	if _, err := s.RenderTransfer(seeds); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transfer(nil); err == nil {
		t.Error("want seeds error")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SurveyN != 340 || cfg.CorpusSeed == 0 || cfg.DatasetSeed == 0 || cfg.TrainSeed == 0 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestFig6Unavailable(t *testing.T) {
	s := &Suite{Memory: core.NewFeatureMemory()}
	if _, err := s.Fig6(); err == nil {
		t.Error("want untrained error")
	}
	if out := s.RenderFig6(); !strings.Contains(out, "unavailable") {
		t.Errorf("render = %q", out)
	}
}
