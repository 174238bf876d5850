package cloud

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// FuzzFleetAuthorizeArgs drives the authorize handler with hostile args:
// deep nesting, huge and duplicate keys, out-of-range numbers and
// non-object values, on a fuzzed opcode, beside a plain status read. The
// server validates args and never decodes them, so the fuzz holds that
// validation to encoding/json: the handler must not panic, and it answers
// 400 exactly when decoding the body with args into a map[string]any
// fails, except that the args of an item over maxFleetItemBytes are only
// checked for syntax and the item gets its own error. Otherwise the
// answer is 200 with a result for every item, and the status read beside
// the hostile item is still judged and allowed.
func FuzzFleetAuthorizeArgs(f *testing.F) {
	for _, args := range []string{
		`{}`,
		`{"level":3,"mode":"auto"}`,
		`{"a":1,"a":{"b":2},"a":[3]}`,
		`{"` + strings.Repeat("k", 64<<10) + `":true}`,
		`{"nested":` + strings.Repeat(`{"n":`, 200) + `null` + strings.Repeat(`}`, 200) + `}`,
		`{"list":` + strings.Repeat(`[`, 200) + strings.Repeat(`]`, 200) + `}`,
		`{"n":[1,-2.5e10,{"tiny":1e-400}],"s":"1e400"}`,
		`{"x":1e400}`,
		`{"x":[{"y":-1e309}]}`,
		`{"x":01}`,
		`[1,2,3]`,
		`"args"`,
		`42`,
		`null`,
		`true`,
	} {
		f.Add("window.open", args)
		f.Add("no.such_op", args)
	}
	srv, _ := startFleetCloud(f, 1)
	c := login(f, srv, "gateway", "s3cret")
	f.Fuzz(func(t *testing.T, op, args string) {
		quoted, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		body := `{"items":[{"home":"home-00","op":` + string(quoted) + `,"device_id":"d","args":` + args +
			`},{"home":"home-00","op":"light.get_state","device_id":"lamp-1"}]}`
		var ref refAuthorizeRequest
		refErr := refDecode([]byte(body), &ref)
		rec := postDeclaringLength(c, srv.handleFleetAuthorize, "/v1/fleet/authorize", body, int64(len(body)))
		if rec.Code == http.StatusBadRequest {
			if refErr == nil {
				t.Fatalf("HTTP 400 %q for a body encoding/json decodes", rec.Body.String())
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d %q, want 200 or 400", rec.Code, rec.Body.String())
		}
		var resp fleetAuthorizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("response %q: %v", rec.Body.String(), err)
		}
		if len(resp.Results) != 2 {
			t.Fatalf("%d results for 2 items: %+v", len(resp.Results), resp.Results)
		}
		if refErr != nil && resp.Results[0].Error != errItemTooLarge {
			t.Fatalf("HTTP 200 %+v for a body encoding/json rejects: %v", resp.Results, refErr)
		}
		if got := resp.Results[1]; !got.Allowed || got.Error != "" {
			t.Fatalf("status read beside hostile args = %+v, want allow", got)
		}
	})
}
