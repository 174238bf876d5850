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
		`{"cfg":{"level":1}}`,
		`{"cfg":[{"level":1},[2,{"x":[3]}]],"empty":{},"none":[]}`,
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
// instruction must share nothing with the caller's args: overwriting every
// map and slice in them, at any depth, afterwards leaves the instruction's
// args as they were.
func FuzzRegistryBuild(f *testing.F) {
	for _, args := range hostileArgs() {
		f.Add("window.open", "win-1", args)
		f.Add("no.such_op", "", args)
	}
	reg := BuiltinRegistry()
	decode := func(argsJSON string) (map[string]any, bool) {
		var v any
		if json.Unmarshal([]byte(argsJSON), &v) != nil {
			return nil, false
		}
		args, ok := v.(map[string]any)
		if !ok {
			args = map[string]any{"value": v} // a non-object value, one level down
		}
		return args, true
	}
	f.Fuzz(func(t *testing.T, op, device, argsJSON string) {
		args, ok := decode(argsJSON)
		if !ok {
			return
		}
		want, _ := decode(argsJSON) // the same args, sharing nothing with the caller's
		if len(want) == 0 {
			want = nil
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
		scribble(args)
		if !reflect.DeepEqual(in.Args, want) {
			t.Fatalf("instruction args changed with the caller's args: %v", in.Args)
		}
	})
}

// scribble overwrites every map entry and slice element reachable from v,
// innermost first, and adds a key to every map.
func scribble(v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			scribble(x)
			v[k] = 9.0
		}
		v["injected"] = true
	case []any:
		for i, x := range v {
			scribble(x)
			v[i] = 9.0
		}
	}
}
