package instr

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// hostileArgs are args documents a peer controls: deep nesting, huge and
// duplicate keys, and every non-object JSON value.
func hostileArgs() []string {
	return []string{
		`{}`,
		`{"level":3,"mode":"auto"}`,
		`{"a":1,"a":{"b":2},"a":[3]}`,
		`{"` + strings.Repeat("k", 64<<10) + `":true}`,
		`{"nested":` + strings.Repeat(`{"n":`, 200) + `null` + strings.Repeat(`}`, 200) + `}`,
		`{"list":` + strings.Repeat(`[`, 200) + strings.Repeat(`]`, 200) + `}`,
		`[1,2,3]`,
		`"args"`,
		`42`,
		`null`,
		`true`,
	}
}

// FuzzRegistryBuild feeds Registry.Build hostile args. Build must not
// panic; a known opcode must carry the caller's args unchanged, and the
// instruction must not share the caller's map: clearing and refilling the
// caller's map afterwards leaves the instruction's args as they were.
func FuzzRegistryBuild(f *testing.F) {
	for _, args := range hostileArgs() {
		f.Add("window.open", "win-1", args)
		f.Add("no.such_op", "", args)
	}
	reg := BuiltinRegistry()
	f.Fuzz(func(t *testing.T, op, device, argsJSON string) {
		var v any
		if json.Unmarshal([]byte(argsJSON), &v) != nil {
			return
		}
		args, ok := v.(map[string]any)
		if !ok {
			args = map[string]any{"value": v} // a non-object value, one level down
		}
		var want map[string]any
		if len(args) > 0 {
			want = make(map[string]any, len(args))
			for k, v := range args {
				want[k] = v
			}
		}
		in, err := reg.Build(op, device, OriginUser, args)
		if _, known := reg.specs[op]; !known {
			if err == nil {
				t.Fatalf("Build(%q) of an unknown opcode succeeded", op)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build(%q): %v", op, err)
		}
		if in.Op != op || in.DeviceID != device || !reflect.DeepEqual(in.Args, want) {
			t.Fatalf("Build(%q, %q) = %+v, want the caller's op, device and args", op, device, in)
		}
		clear(args)
		args["injected"] = true
		if !reflect.DeepEqual(in.Args, want) {
			t.Fatalf("instruction args changed with the caller's map: %v", in.Args)
		}
	})
}
