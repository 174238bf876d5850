package bridge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
	"iotsid/internal/smartthings"
)

var testToken = mustToken("000102030405060708090a0b0c0d0e0f")

func mustToken(s string) miio.Token {
	t, err := miio.ParseToken(s)
	if err != nil {
		panic(err)
	}
	return t
}

func newHome(t *testing.T) *home.Home {
	t.Helper()
	h, err := home.NewStandard(home.EnvConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func startXiaomi(t *testing.T, h *home.Home) (*XiaomiHandler, *miio.Client) {
	t.Helper()
	handler := NewXiaomiHandler(h, instr.BuiltinRegistry())
	gw, err := miio.NewGateway(miio.GatewayConfig{DeviceID: 0x1001, Token: testToken, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	client, err := miio.Dial(gw.Addr().String(), testToken, miio.WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return handler, client
}

func TestXiaomiGetPropRoundTrip(t *testing.T) {
	h := newHome(t)
	_, client := startXiaomi(t, h)

	names := XiaomiPropNames()
	raw, err := client.Call("get_prop", names)
	if err != nil {
		t.Fatalf("get_prop: %v", err)
	}
	var values []any
	if err := json.Unmarshal(raw, &values); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(values) != len(names) {
		t.Fatalf("got %d values for %d props", len(values), len(names))
	}
	payload := make(map[string]any, len(names))
	for i, n := range names {
		payload[n] = values[i]
	}
	snap, err := XiaomiNormalizer().Normalize(payload, time.Now())
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("normalized snapshot invalid: %v", err)
	}
	// The normalized snapshot must agree with the home's ground truth.
	truth := h.Env().Snapshot()
	for _, f := range truth.Features() {
		want, _ := truth.Get(f)
		got, ok := snap.Get(f)
		if !ok {
			t.Errorf("feature %q lost on the wire", f)
			continue
		}
		if wn, isNum := want.Number(); isNum {
			gn, _ := got.Number()
			if math.Abs(wn-gn) > 0.01 {
				t.Errorf("feature %q = %v, want %v", f, gn, wn)
			}
			continue
		}
		if !got.Equal(want) {
			t.Errorf("feature %q = %v, want %v", f, got, want)
		}
	}
}

func TestXiaomiGetPropErrors(t *testing.T) {
	h := newHome(t)
	_, client := startXiaomi(t, h)
	var rpcErr *miio.RPCError
	if _, err := client.Call("get_prop", []string{"warp_core"}); !errors.As(err, &rpcErr) {
		t.Errorf("unknown prop: %v", err)
	}
	if _, err := client.Call("get_prop", "not-an-array"); !errors.As(err, &rpcErr) {
		t.Errorf("bad params: %v", err)
	}
	if _, err := client.Call("teleport", nil); !errors.As(err, &rpcErr) {
		t.Errorf("unknown method: %v", err)
	}
}

func TestXiaomiInfoAndDevice(t *testing.T) {
	h := newHome(t)
	_, client := startXiaomi(t, h)
	raw, err := client.Call("miIO.info", nil)
	if err != nil {
		t.Fatalf("miIO.info: %v", err)
	}
	var info map[string]any
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info["model"] != "lumi.gateway.v3" {
		t.Errorf("info = %v", info)
	}
	raw, err = client.Call("get_device", []string{"window-1"})
	if err != nil {
		t.Fatalf("get_device: %v", err)
	}
	var st map[string]any
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st["status"] != "close" {
		t.Errorf("window state = %v", st)
	}
	var rpcErr *miio.RPCError
	if _, err := client.Call("get_device", []string{"ghost"}); !errors.As(err, &rpcErr) {
		t.Errorf("unknown device: %v", err)
	}
}

func TestXiaomiExecuteAndGate(t *testing.T) {
	h := newHome(t)
	handler, client := startXiaomi(t, h)

	// Ungated execute mutates the home.
	if _, err := client.Call("execute", executeParams{Op: "window.open", Device: "window-1"}); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window.open did not reach the home")
	}

	// A gate rejection blocks execution and surfaces on the wire.
	handler.SetGate(func(in instr.Instruction, ctx sensor.Snapshot) error {
		return fmt.Errorf("IDS: %s rejected", in.Op)
	})
	_, err := client.Call("execute", executeParams{Op: "window.close", Device: "window-1"})
	var rpcErr *miio.RPCError
	if !errors.As(err, &rpcErr) {
		t.Fatalf("want gated rpc error, got %v", err)
	}
	if h.Env().Snapshot().Bool(sensor.FeatWindowOpen) != true {
		t.Error("gated instruction executed anyway")
	}

	// Unknown opcodes are rejected before the gate.
	if _, err := client.Call("execute", executeParams{Op: "nope.nope", Device: "window-1"}); !errors.As(err, &rpcErr) {
		t.Errorf("unknown op: %v", err)
	}
}

func startST(t *testing.T, h *home.Home) (*STBackend, *smartthings.Client) {
	t.Helper()
	backend := NewSTBackend(h, instr.BuiltinRegistry())
	srv, err := smartthings.NewServer(smartthings.ServerConfig{Token: "llat-1", Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := smartthings.NewClient(srv.URL(), "llat-1")
	if err != nil {
		t.Fatal(err)
	}
	return backend, client
}

func TestSTStatesRoundTrip(t *testing.T) {
	h := newHome(t)
	_, client := startST(t, h)
	entities, err := client.States(context.Background())
	if err != nil {
		t.Fatalf("States: %v", err)
	}
	// All sensor entities plus the 10 device entities.
	if len(entities) < len(stEntities)+10 {
		t.Fatalf("entities = %d", len(entities))
	}
	snap, err := STDecodeStates(entities)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("decoded snapshot invalid: %v", err)
	}
	truth := h.Env().Snapshot()
	for _, f := range truth.Features() {
		got, ok := snap.Get(f)
		if !ok {
			t.Errorf("feature %q lost", f)
			continue
		}
		want, _ := truth.Get(f)
		if wn, isNum := want.Number(); isNum {
			gn, _ := got.Number()
			if math.Abs(wn-gn) > 0.01 {
				t.Errorf("feature %q = %v, want %v", f, gn, wn)
			}
			continue
		}
		if !got.Equal(want) {
			t.Errorf("feature %q = %v, want %v", f, got, want)
		}
	}
}

func TestSTSingleStateAndFeatureLookup(t *testing.T) {
	h := newHome(t)
	_, client := startST(t, h)
	e, err := client.State(context.Background(), "binary_sensor.smoke")
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if e.State != "off" {
		t.Errorf("smoke = %q", e.State)
	}
}

func TestSTServiceCallAndGate(t *testing.T) {
	h := newHome(t)
	backend, client := startST(t, h)
	changed, err := client.CallService(context.Background(), "light", "on", map[string]any{"device_id": "light-1"})
	if err != nil {
		t.Fatalf("CallService: %v", err)
	}
	if len(changed) != 1 || changed[0].Attributes["power"] != "on" {
		t.Errorf("changed = %+v", changed)
	}

	backend.SetGate(func(in instr.Instruction, ctx sensor.Snapshot) error {
		return errors.New("IDS: blocked")
	})
	_, err = client.CallService(context.Background(), "light", "off", map[string]any{"device_id": "light-1"})
	var apiErr *smartthings.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	d, _ := h.Device("light-1")
	if d.State()["power"] != "on" {
		t.Error("gated service call executed anyway")
	}

	// Missing device_id.
	if _, err := client.CallService(context.Background(), "light", "on", nil); !errors.As(err, &apiErr) {
		t.Errorf("missing device_id: %v", err)
	}
}

func TestSTDecodeSkipsForeignEntities(t *testing.T) {
	snap, err := STDecodeStates([]smartthings.Entity{
		{EntityID: "binary_sensor.smoke", State: "on"},
		{EntityID: "media_player.spotify", State: "playing"},
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !snap.Bool(sensor.FeatSmoke) {
		t.Error("smoke lost")
	}
	if snap.Len() != 1 {
		t.Errorf("values = %v", snap.Features())
	}
}

func TestSTDecodeBadState(t *testing.T) {
	if _, err := STDecodeStates([]smartthings.Entity{
		{EntityID: "sensor.temperature_indoor", State: "warm-ish"},
	}); err == nil {
		t.Error("want decode error")
	}
}
