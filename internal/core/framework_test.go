package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"iotsid/internal/automation"
	"iotsid/internal/bridge"
	"iotsid/internal/dataset"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
	"iotsid/internal/smartthings"
)

func frameworkForTest(t *testing.T, c Collector) *Framework {
	t.Helper()
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: c,
		Memory:    memoryForTest(t),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// staticCollector returns a fixed snapshot.
type staticCollector struct{ snap sensor.Snapshot }

func (s staticCollector) Collect(context.Context) (sensor.Snapshot, error) { return s.snap, nil }

func TestFrameworkAuthorize(t *testing.T) {
	f := frameworkForTest(t, staticCollector{snap: attackCtx(t, dataset.ModelWindow)})
	dec, err := f.Authorize(context.Background(), buildInstr(t, "window.open", "window-1"))
	if err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if dec.Allowed {
		t.Errorf("attack context allowed: %+v", dec)
	}
	// Decision log records it.
	log := f.Log()
	if len(log) != 1 || log[0].Op != "window.open" || log[0].Decision.Allowed {
		t.Errorf("log = %+v", log)
	}

	f2 := frameworkForTest(t, staticCollector{snap: legalCtx(t, dataset.ModelWindow)})
	dec, err = f2.Authorize(context.Background(), buildInstr(t, "window.open", "window-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed {
		t.Errorf("legal context rejected: %+v", dec)
	}
}

// countingStatic wraps a fixed snapshot and counts Collect calls.
type countingStatic struct {
	snap  sensor.Snapshot
	calls int
}

func (c *countingStatic) Collect(context.Context) (sensor.Snapshot, error) {
	c.calls++
	return c.snap, nil
}

func TestFrameworkLogBoundedAndRecent(t *testing.T) {
	f, err := New(Config{
		Detector:    detectorForTest(t),
		Collector:   staticCollector{snap: legalCtx(t, dataset.ModelWindow)},
		Memory:      memoryForTest(t),
		LogCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "window-1")
	for i := 0; i < 1000; i++ {
		if _, err := f.Authorize(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	log := f.Log()
	if len(log) == 0 || len(log) > 64 {
		t.Fatalf("log retained %d entries, want bounded by 64", len(log))
	}
	// The retained window is the newest traffic.
	if log[len(log)-1].Seq != 1000 {
		t.Errorf("newest seq = %d, want 1000", log[len(log)-1].Seq)
	}
	recent := log[len(log)-3:]
	if recent[2].Seq != 1000 || recent[0].Seq != 998 {
		t.Errorf("recent window = [%d..%d]", recent[0].Seq, recent[2].Seq)
	}
}

func TestFrameworkValidation(t *testing.T) {
	if _, err := New(Config{Detector: detectorForTest(t), Memory: memoryForTest(t)}); err == nil {
		t.Error("want collector error")
	}
	if _, err := New(Config{Collector: staticCollector{}}); err == nil {
		t.Error("want judger construction error")
	}
	if _, err := New(Config{Detector: detectorForTest(t), Collector: staticCollector{}, Memory: memoryForTest(t), LogCapacity: MaxLogCapacity + 1}); err == nil {
		t.Error("want log capacity error")
	}
}

func TestFrameworkGate(t *testing.T) {
	f := frameworkForTest(t, staticCollector{})
	if err := f.Gate(buildInstr(t, "window.open", "window-1"), attackCtx(t, dataset.ModelWindow)); err == nil {
		t.Error("gate must block attack context")
	}
	if err := f.Gate(buildInstr(t, "window.open", "window-1"), legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Errorf("gate blocked legal context: %v", err)
	}
	// An unjudgeable sensitive instruction fails closed as missing context.
	if err := f.Gate(buildInstr(t, "window.open", "window-1"), sensor.NewSnapshot(sensorTime())); err == nil || !strings.Contains(err.Error(), ReasonMissing) {
		t.Errorf("gate on an empty scene = %v, want the %q rejection", err, ReasonMissing)
	}
}

func TestFrameworkInterceptorFailsClosed(t *testing.T) {
	f := frameworkForTest(t, staticCollector{})
	intercept := f.Interceptor()

	// Empty context: sensitive instruction cannot be judged -> blocked.
	allow, reason := intercept(buildInstr(t, "window.open", "window-1"), sensor.NewSnapshot(sensorTime()))
	if allow {
		t.Error("unjudgeable sensitive instruction must fail closed")
	}
	if reason != ReasonMissing {
		t.Errorf("reason = %q, want %q", reason, ReasonMissing)
	}
	// Empty context, non-sensitive instruction -> allowed (not judged).
	allow, _ = intercept(buildInstr(t, "vacuum.start", "vacuum-1"), sensor.NewSnapshot(sensorTime()))
	if !allow {
		t.Error("non-sensitive instruction must not be blocked by judgment errors")
	}
	// Normal paths.
	if allow, _ = intercept(buildInstr(t, "window.open", "window-1"), attackCtx(t, dataset.ModelWindow)); allow {
		t.Error("attack context allowed")
	}
	if allow, _ = intercept(buildInstr(t, "window.open", "window-1"), legalCtx(t, dataset.ModelWindow)); !allow {
		t.Error("legal context blocked")
	}
}

// TestFrameworkBlocksSpoofedSmokeAutomation reproduces the paper's
// motivating attack (§III-A): malicious code forges the smoke sensor so the
// platform's "if fire, open the window" rule fires while the burglar waits
// outside. The IDS sits between trigger and actuator and rejects the open.
func TestFrameworkBlocksSpoofedSmokeAutomation(t *testing.T) {
	h, err := home.NewStandard(home.EnvConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := frameworkForTest(t, &SimCollector{Env: h.Env()})

	engine := automation.NewEngine(instr.BuiltinRegistry(), h.Execute)
	engine.SetInterceptor(f.Interceptor())
	if err := engine.AddRuleText("fire vent", `WHEN smoke == TRUE THEN window.open @ window-1`); err != nil {
		t.Fatal(err)
	}

	// The attacker spoofs the smoke boolean only; every correlate stays
	// normal (clean air, no gas, nobody home, night).
	spoof := sensor.NewSnapshot(h.Env().Now())
	spoof.Set(sensor.FeatSmoke, sensor.Bool(true))
	spoof.Set(sensor.FeatGas, sensor.Bool(false))
	spoof.Set(sensor.FeatAirQuality, sensor.Number(32))
	spoof.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	spoof.Set(sensor.FeatMotion, sensor.Bool(false))
	spoof.Set(sensor.FeatOccupancy, sensor.Bool(false))
	spoof.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockUnlocked))
	h.Env().Apply(spoof)

	events := engine.Evaluate(h.Env().Snapshot())
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Allowed {
		t.Fatalf("spoofed smoke attack executed: %+v", events[0])
	}
	if h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window opened despite interception")
	}

	// A genuine fire (consistent correlates) is allowed through.
	real := sensor.NewSnapshot(h.Env().Now())
	real.Set(sensor.FeatSmoke, sensor.Bool(true))
	real.Set(sensor.FeatGas, sensor.Bool(false))
	real.Set(sensor.FeatAirQuality, sensor.Number(210))
	real.Set(sensor.FeatMotion, sensor.Bool(true))
	real.Set(sensor.FeatOccupancy, sensor.Bool(true))
	real.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockLocked))
	h.Env().Apply(real)
	// Force a fresh rising edge: clear then set.
	clear := sensor.NewSnapshot(h.Env().Now())
	clear.Set(sensor.FeatSmoke, sensor.Bool(false))
	h.Env().Apply(clear)
	engine.Evaluate(h.Env().Snapshot())
	h.Env().Apply(real)
	events = engine.Evaluate(h.Env().Snapshot())
	if len(events) != 1 || !events[0].Allowed {
		t.Fatalf("genuine fire blocked: %+v", events)
	}
	if !h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window did not open on a genuine fire")
	}
}

// TestFrameworkOverMiioPath exercises the full Xiaomi network path: the
// collector pulls the context through the encrypted UDP protocol and the
// framework gates an execute call on the same gateway.
func TestFrameworkOverMiioPath(t *testing.T) {
	h, err := home.NewStandard(home.EnvConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	token, err := miio.ParseToken("ffeeddccbbaa00112233445566778899")
	if err != nil {
		t.Fatal(err)
	}
	handler := bridge.NewXiaomiHandler(h, instr.BuiltinRegistry())
	gw, err := miio.NewGateway(miio.GatewayConfig{DeviceID: 0x2001, Token: token, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	client, err := miio.Dial(gw.Addr().String(), token, miio.WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f := frameworkForTest(t, &MiioCollector{Client: client})
	handler.SetGate(f.Gate)

	// Stage a burglary context, then try the sensitive open via the
	// vendor control path: the gate must reject it.
	attack := attackCtx(t, dataset.ModelWindow)
	h.Env().Apply(attack)
	if _, err := client.Call("execute", map[string]any{"op": "window.open", "device": "window-1"}); err == nil {
		t.Fatal("attack-context window.open executed over miio")
	}
	if h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window opened")
	}

	// Stage a legal context: allowed.
	h.Env().Apply(legalCtx(t, dataset.ModelWindow))
	if _, err := client.Call("execute", map[string]any{"op": "window.open", "device": "window-1"}); err != nil {
		t.Fatalf("legal window.open rejected: %v", err)
	}
	if !h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window did not open")
	}
	// The collector really works over the wire.
	snap, err := f.collector.Collect(context.Background())
	if err != nil {
		t.Fatalf("collect over miio: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("collected snapshot invalid: %v", err)
	}
}

// TestFrameworkOverSmartThingsPath mirrors the miio test on the REST path.
func TestFrameworkOverSmartThingsPath(t *testing.T) {
	h, err := home.NewStandard(home.EnvConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	backend := bridge.NewSTBackend(h, instr.BuiltinRegistry())
	srv, err := smartthings.NewServer(smartthings.ServerConfig{Token: "llat-x", Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := smartthings.NewClient(srv.URL(), "llat-x")
	if err != nil {
		t.Fatal(err)
	}

	f := frameworkForTest(t, &STCollector{Client: client})
	backend.SetGate(f.Gate)

	h.Env().Apply(attackCtx(t, dataset.ModelWindow))
	if _, err := client.CallService(context.Background(), "window", "open", map[string]any{"device_id": "window-1"}); err == nil {
		t.Fatal("attack-context window.open executed over REST")
	}
	h.Env().Apply(legalCtx(t, dataset.ModelWindow))
	if _, err := client.CallService(context.Background(), "window", "open", map[string]any{"device_id": "window-1"}); err != nil {
		t.Fatalf("legal window.open rejected: %v", err)
	}
	snap, err := f.collector.Collect(context.Background())
	if err != nil {
		t.Fatalf("collect over REST: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("collected snapshot invalid: %v", err)
	}
}

func TestMultiCollectorMergesVendors(t *testing.T) {
	a := sensor.NewSnapshot(time.Unix(1, 0))
	a.Set(sensor.FeatSmoke, sensor.Bool(false))
	a.Set(sensor.FeatTempIndoor, sensor.Number(20))
	b := sensor.NewSnapshot(time.Unix(2, 0))
	b.Set(sensor.FeatSmoke, sensor.Bool(true)) // later source wins
	b.Set(sensor.FeatMotion, sensor.Bool(true))

	srcs := required(staticCollector{snap: a}, staticCollector{snap: b})
	mc, err := NewMultiCollector(MultiConfig{}, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := mc.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Bool(sensor.FeatSmoke) || !snap.Bool(sensor.FeatMotion) {
		t.Errorf("merge lost values: %v", snap.Features())
	}
	if n, _ := snap.Number(sensor.FeatTempIndoor); n != 20 {
		t.Error("merge lost first-source value")
	}
	if _, err := NewMultiCollector(MultiConfig{}); err == nil {
		t.Error("want empty collector error")
	}
	failingSrcs := required(&SimCollector{})
	failing, err := NewMultiCollector(MultiConfig{}, failingSrcs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failing.Collect(context.Background()); err == nil {
		t.Error("want propagated source error")
	}
}

func TestCollectorValidation(t *testing.T) {
	if _, err := (&SimCollector{}).Collect(context.Background()); err == nil {
		t.Error("sim collector without env must fail")
	}
	if _, err := (&MiioCollector{}).Collect(context.Background()); err == nil {
		t.Error("miio collector without client must fail")
	}
	if _, err := (&STCollector{}).Collect(context.Background()); err == nil {
		t.Error("smartthings collector without client must fail")
	}
}

func TestFrameworkAuditTrace(t *testing.T) {
	snap := attackCtx(t, dataset.ModelWindow)
	f := frameworkForTest(t, staticCollector{snap: snap})
	if _, err := f.Authorize(context.Background(), buildInstr(t, "window.open", "window-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Authorize(context.Background(), buildInstr(t, "window.get_state", "window-1")); err != nil {
		t.Fatal(err)
	}
	log := f.Log()
	if len(log) != 2 {
		t.Fatalf("log entries = %d", len(log))
	}
	rej := log[0]
	if rej.Decision.Allowed || rej.Decision.Model != dataset.ModelWindow || rej.Decision.Outcome != OutcomeReject {
		t.Errorf("entry 0 = %+v", rej)
	}
	if rej.Seq != 1 || rej.Op != "window.open" || rej.DeviceID != "window-1" || !rej.At.Equal(snap.At) {
		t.Errorf("entry 0 = seq %d %s @ %s at %v, want seq 1 window.open @ window-1 at %v", rej.Seq, rej.Op, rej.DeviceID, rej.At, snap.At)
	}
	if why := rej.Decision.Explain(); !strings.HasSuffix(why, "class 0") {
		t.Errorf("entry 0 explanation = %q", why)
	}
	if !log[1].Decision.Allowed || log[1].Seq != 2 || log[1].Decision.Explain() != "" {
		t.Errorf("entry 1 = %+v", log[1])
	}
}

// TestLogEntryJSONRendersExplanation pins the audit export's line shape:
// an entry encodes its seq, context time, op, device and verdict, and the
// verdict carries the explanation rendered from its leaf (and no
// internal evidence or counter fields).
func TestLogEntryJSONRendersExplanation(t *testing.T) {
	snap := attackCtx(t, dataset.ModelWindow)
	snap.At = time.Date(2021, 4, 1, 10, 1, 0, 0, time.UTC)
	f := frameworkForTest(t, staticCollector{snap: snap})
	dec, err := f.Authorize(context.Background(), buildInstr(t, "window.open", "window-1"))
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(f.Log()[0])
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Seq      uint64
		At       time.Time
		Op       string
		DeviceID string `json:"device_id"`
		Decision map[string]any
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || !got.At.Equal(snap.At) || got.Op != "window.open" || got.DeviceID != "window-1" {
		t.Errorf("entry = %s", line)
	}
	want := map[string]any{"allowed": false, "sensitive": true, "model": "window", "reason": dec.Reason, "explanation": dec.Explain()}
	if len(got.Decision) != len(want) {
		t.Errorf("decision = %v, want exactly %v", got.Decision, want)
	}
	for k, v := range want {
		if got.Decision[k] != v {
			t.Errorf("decision.%s = %v, want %v", k, got.Decision[k], v)
		}
	}
	if !strings.HasSuffix(dec.Explain(), "class 0") {
		t.Errorf("explanation = %q", dec.Explain())
	}
}
