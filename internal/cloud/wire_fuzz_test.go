package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// The fleet envelope codec is held to encoding/json, which it replaced:
// refDecode is how the handlers and the client decoded these bodies
// before, json.Marshal how the client encoded a request and
// json.Encoder.Encode how the server encoded a response. The one rule the
// codec changes, that an array decodes into fresh elements, the
// references follow through freshArray.

// refDecode decodes data into v the way the fleet endpoints used to: one
// value read from a stream, anything after it ignored.
func refDecode(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// freshArray is a slice encoding/json decodes into a new slice, so a
// repeated array field keeps nothing of the earlier one: the last array
// wins, its elements decoded from zero, as the codec decodes them.
type freshArray[T any] []T

func (a *freshArray[T]) UnmarshalJSON(data []byte) error {
	var xs []T
	err := json.Unmarshal(data, &xs)
	*a = xs
	return err
}

// refScene reads a scene with sensor.Snapshot's own decoder, which the
// sensor package holds to its own encoding/json reference. Since the
// sensor vocabulary is closed, that decoder refuses a scene naming an
// unknown feature, or giving a feature a value of another type or a label
// outside its domain, which would fail a whole body under encoding/json;
// the fleet codec instead rejects just the element. So the reference
// records such a scene in unknown, leaving the snapshot as it was, as the
// codec marks the element.
type refScene struct {
	sensor.Snapshot
	unknown bool
}

func (r *refScene) UnmarshalJSON(data []byte) error {
	err := r.Snapshot.UnmarshalJSON(data)
	var ve *sensor.VocabularyError
	r.unknown = errors.As(err, &ve)
	if r.unknown {
		return nil
	}
	return err
}

// refItem is an authorize item as the reference decodes it, args
// included: the codec only validates them, and must accept exactly the
// args the reference decodes.
type refItem struct {
	Home     string         `json:"home"`
	Op       string         `json:"op"`
	DeviceID string         `json:"device_id"`
	Args     map[string]any `json:"args"`
	Context  *refScene      `json:"context"`
}

// refPush is a push as the reference decodes it: like an authorize item,
// its scene is nil when absent or null.
type refPush struct {
	Home    string    `json:"home"`
	Context *refScene `json:"context"`
}

// refAuthorizeRequest, refContextRequest and refAuthorizeResponse are the
// envelopes as the reference decodes them: the same fields, with scenes
// read through refScene and arrays through freshArray.
type refAuthorizeRequest struct {
	Items freshArray[refItem] `json:"items"`
}

type refContextRequest struct {
	Pushes freshArray[refPush] `json:"pushes"`
}

type refAuthorizeResponse struct {
	Results freshArray[FleetResult] `json:"results"`
}

// wireRequest is the authorize request as the client encodes it.
type wireRequest struct {
	Items []FleetBatchItem `json:"items"`
}

// wireContextRequest is the context-push request as the client encodes
// it.
type wireContextRequest struct {
	Pushes []fleetContextPush `json:"pushes"`
}

// items returns the reference's items without their args, and which of
// them hold a scene naming an unknown feature.
func (r *refAuthorizeRequest) items() ([]FleetBatchItem, []bool) {
	if r.Items == nil {
		return nil, nil
	}
	out, unknown := make([]FleetBatchItem, len(r.Items)), make([]bool, len(r.Items))
	for i, it := range r.Items {
		out[i] = FleetBatchItem{Home: it.Home, Op: it.Op, DeviceID: it.DeviceID}
		if it.Context != nil {
			out[i].Context, unknown[i] = &it.Context.Snapshot, it.Context.unknown
		}
	}
	return out, unknown
}

// wireItems returns the decoded items as the client's items: the fields
// the server decodes.
func wireItems(items []fleet.BatchItem) []FleetBatchItem {
	if items == nil {
		return nil
	}
	out := make([]FleetBatchItem, len(items))
	for i, it := range items {
		out[i] = FleetBatchItem{Home: it.Home, Op: it.In.Op, DeviceID: it.In.DeviceID, Context: it.Context}
	}
	return out
}

// pushes is items for a context push: each push as an item of its home
// and scene.
func (r *refContextRequest) pushes() ([]FleetBatchItem, []bool) {
	if r.Pushes == nil {
		return nil, nil
	}
	out, unknown := make([]FleetBatchItem, len(r.Pushes)), make([]bool, len(r.Pushes))
	for i, p := range r.Pushes {
		out[i].Home = p.Home
		if p.Context != nil {
			out[i].Context, unknown[i] = &p.Context.Snapshot, p.Context.unknown
		}
	}
	return out, unknown
}

// contextPushes returns items as the client's pushes; an item without a
// scene pushes the zero scene, a heartbeat.
func contextPushes(items []FleetBatchItem) []fleetContextPush {
	if items == nil {
		return nil
	}
	out := make([]fleetContextPush, len(items))
	for i, it := range items {
		out[i].Home = it.Home
		if it.Context != nil {
			out[i].Context = *it.Context
		}
	}
	return out
}

// batchResults returns results as the fleet's results, which the server
// encodes a response from.
func batchResults(results []FleetResult) []fleet.BatchResult {
	if results == nil {
		return nil
	}
	out := make([]fleet.BatchResult, len(results))
	for i, r := range results {
		out[i] = fleet.BatchResult{
			Decision: core.Decision{Allowed: r.Allowed, Sensitive: r.Sensitive, Model: dataset.Model(r.Model), Reason: r.Reason},
			Err:      r.Error,
		}
	}
	return out
}

// refEncodeResponse encodes results the way the server used to.
func refEncodeResponse(results []FleetResult) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(fleetAuthorizeResponse{Results: results}); err != nil {
		panic(err) // bools and strings always encode
	}
	return buf.Bytes()
}

// wireCase is one body and whether encoding/json accepts it.
type wireCase struct {
	name string
	in   string
	ok   bool
}

// wireScene is a valid inline scene.
const wireScene = `{"at":"2021-03-14T15:09:26Z","values":{"smoke":false,"temperature_in":22.5,"outdoor_weather":"rain"}}`

// nested wraps v in n arrays.
func nested(n int, v string) string {
	return strings.Repeat("[", n) + v + strings.Repeat("]", n)
}

// hugeArgs is an args object of 120 members, over the 4 KiB per-item
// bound encoded.
func hugeArgs() string {
	var b strings.Builder
	b.WriteString(`{`)
	for i := 0; i < 120; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `"arg-%03d":[%d,"v<%d>",{"n":null,"t":true}]`, i, i, i)
	}
	b.WriteString(`}`)
	return b.String()
}

// envelopeCases are the cases every envelope shares, written for an
// array field arr whose elements carry the string field str and the
// scene field ctx.
func envelopeCases(arr, str, ctx string) []wireCase {
	r := strings.NewReplacer("ARR", arr, "STR", str, "CTX", ctx, "SCENE", wireScene)
	cases := []wireCase{
		{"whitespace", " \t\r\n{ \"ARR\" : [ { \"STR\" : \"h\" } ] } \n", true},
		{"null body", `null`, true},
		{"padded null body", " \n null\t", true},
		{"empty object", `{}`, true},
		{"null array", `{"ARR":null}`, true},
		{"null element", `{"ARR":[null,{"STR":"h"},null]}`, true},
		{"empty array", `{"ARR":[]}`, true},
		{"array object", `{"ARR":{}}`, false},
		{"array string", `{"ARR":"x"}`, false},
		{"array number", `{"ARR":5}`, false},
		{"array true", `{"ARR":true}`, false},
		{"element number", `{"ARR":[5]}`, false},
		{"element string", `{"ARR":["x"]}`, false},
		{"element array", `{"ARR":[[]]}`, false},
		{"element false", `{"ARR":[false]}`, false},
		{"string number", `{"ARR":[{"STR":5}]}`, false},
		{"string bool", `{"ARR":[{"STR":true}]}`, false},
		{"string object", `{"ARR":[{"STR":{}}]}`, false},
		{"string array", `{"ARR":[{"STR":["x"]}]}`, false},
		{"string null keeps", `{"ARR":[{"STR":"h","STR":null}]}`, true},
		{"duplicate string", `{"ARR":[{"STR":"a","STR":"b"}]}`, true},
		{"top array", `[]`, false},
		{"top number", `5`, false},
		{"top string", `"ARR"`, false},
		{"top true", `true`, false},
		{"escaped string", `{"ARR":[{"STR":"h\u00e9\n\"\\\/<>&\u2028\ud83d\ude00\b\f\r\t"}]}`, true},
		{"invalid utf-8 string", "{\"ARR\":[{\"STR\":\"h\xff\xfe\",\"x\xff\":\"\xed\xa0\x80\"}]}", true},
		{"lone surrogate", `{"ARR":[{"STR":"\ud800x"}]}`, true},
		{"non-ascii string", `{"ARR":[{"STR":"maison é"}]}`, true},
		{"bad escape", `{"ARR":[{"STR":"\q"}]}`, false},
		{"control char", "{\"ARR\":[{\"STR\":\"a\x01\"}]}", false},
		{"truncated", `{"ARR":[{"STR":"h","CTX":{"at":"2021-03-14T15:0`, false},
		{"truncated after element", `{"ARR":[{"STR":"h"},`, false},
		{"truncated string", `{"ARR":[{"STR":"h`, false},
		{"truncated literal", `nul`, false},
		{"bad literal", `nulL`, false},
		{"trailing bytes", `{"ARR":[{"STR":"h"}]} trailing`, true},
		{"trailing value", `{"ARR":[{"STR":"a"}]}{"ARR":[{"STR":"b"}]}`, true},
		{"trailing brace", `{"ARR":[]}}`, true},
		{"trailing after null", `nullx`, true},
		{"trailing after number", `5x`, false},
		{"empty input", ``, false},
		{"only space", "  \n", false},
		{"leading garbage", `x{}`, false},
		{"trailing comma", `{"ARR":[{"STR":"h"},]}`, false},
		{"trailing field comma", `{"ARR":[],}`, false},
		{"missing colon", `{"ARR" []}`, false},
		{"missing comma", `{"ARR":[{"STR":"a" "x":1}]}`, false},
		{"non-string key", `{"ARR":[{1:2}]}`, false},
		{"unknown fields", `{"x":[1,{"y":null},"z",-0.5e+3,true,false,[]],"ARR":[{"z":{},"STR":"h","":""}],"w":{}}`, true},
		{"unknown out of range", `{"x":1e400,"ARR":[{"y":-1e400}]}`, true},
		{"unknown leading zero", `{"ARR":[{"z":01}]}`, false},
		{"unknown bare minus", `{"":{"":-}}`, false},
		{"repeated arrays", `{"ARR":[{"STR":"a"},{"STR":"b","x":1}],"ARR":[{"STR":"c"}],"ARR":[{},{"y":2}]}`, true},
		{"repeated after empty", `{"ARR":[{"STR":"a"},{"STR":"b"}],"ARR":[],"ARR":[{},{}]}`, true},
		{"repeated after null", `{"ARR":[{"STR":"a"},{"STR":"b"}],"ARR":null,"ARR":[{},{}]}`, true},
		{"repeated longer", `{"ARR":[{"STR":"a"},{"STR":"b"},{"STR":"c"}],"ARR":[{"STR":"d"}],"ARR":[{},{},{},{},{}]}`, true},
		{"max nesting", `{"x":` + nested(9999, "") + `}`, true},
		{"over nesting", `{"x":` + nested(10000, "") + `}`, false},
		{"max nesting element", `{"ARR":[{"x":` + nested(9997, "") + `}]}`, true},
		{"over nesting element", `{"ARR":[{"x":` + nested(9998, "") + `}]}`, false},
	}
	if ctx != "" {
		cases = append(cases, []wireCase{
			{"scene", `{"ARR":[{"STR":"h","CTX":SCENE}]}`, true},
			{"null scene", `{"ARR":[{"CTX":null}]}`, true},
			{"scene then null", `{"ARR":[{"CTX":SCENE,"CTX":null}]}`, true},
			{"duplicate scene", `{"ARR":[{"CTX":{"values":{"smoke":true}},"CTX":{"at":"2021-03-14T15:09:26+01:00","values":{"motion":false}}}]}`, true},
			{"scene number", `{"ARR":[{"CTX":5}]}`, false},
			{"scene array", `{"ARR":[{"CTX":[]}]}`, false},
			{"scene string", `{"ARR":[{"CTX":"x"}]}`, false},
			{"scene true", `{"ARR":[{"CTX":true}]}`, false},
			{"scene bad value", `{"ARR":[{"CTX":{"values":{"x":{}}}}]}`, false},
			{"scene bad time", `{"ARR":[{"CTX":{"at":"yesterday"}}]}`, false},
			{"scene NaN", `{"ARR":[{"CTX":{"values":{"smoke":NaN}}}]}`, false},
			{"scene Infinity", `{"ARR":[{"CTX":{"values":{"x":Infinity}}}]}`, false},
			{"scene minus Inf", `{"ARR":[{"CTX":{"values":{"x":-Inf}}}]}`, false},
			{"scene NaN label", `{"ARR":[{"CTX":{"values":{"door_lock":"NaN","outdoor_weather":"-Infinity"}}}]}`, true},
			{"scene huge number", `{"ARR":[{"CTX":{"values":{"humidity":1e400}}}]}`, false},
			{"scene huge integer", `{"ARR":[{"CTX":{"values":{"humidity":123456789012345678901234567890,"illuminance":1e308}}}]}`, true},
			{"scene tiny number", `{"ARR":[{"CTX":{"values":{"humidity":1e-400}}}]}`, true},
			{"scene unknown feature", `{"ARR":[{"STR":"a","CTX":{"values":{"smoke":true,"ghost":1}}},{"STR":"b","CTX":SCENE}]}`, true},
			{"scene unknown feature replaced", `{"ARR":[{"CTX":{"values":{"ghost":1}},"CTX":SCENE},{"CTX":SCENE,"CTX":{"values":{"ghost":1}}}]}`, true},
			{"scene unknown feature then null", `{"ARR":[{"CTX":{"values":{"ghost":1}},"CTX":null}]}`, true},
			{"scene unknown feature kept", `{"ARR":[{"CTX":{"values":{"ghost":1}}}],"ARR":[{"STR":"h"}]}`, true},
			{"scene unknown feature then bad value", `{"ARR":[{"CTX":{"values":{"ghost":1,"smoke":{}}}}]}`, false},
			{"scene unknown feature then bad time", `{"ARR":[{"CTX":{"values":{"ghost":1},"at":"yesterday"}}]}`, false},
			{"scene unknown feature then bad element", `{"ARR":[{"CTX":{"values":{"ghost":1}}},5]}`, false},
			{"scene label outside its domain", `{"ARR":[{"STR":"a","CTX":{"values":{"smoke":true,"door_lock":"ajar"}}},{"STR":"b","CTX":SCENE}]}`, true},
			{"scene label under a bool feature", `{"ARR":[{"STR":"a","CTX":SCENE},{"STR":"b","CTX":{"values":{"motion":"locked"}}}]}`, true},
			{"scene number under a label feature", `{"ARR":[{"CTX":{"values":{"outdoor_weather":1}}},{"CTX":{"values":{"outdoor_weather":"rain"}}}]}`, true},
			{"scene outside value replaced", `{"ARR":[{"CTX":{"values":{"door_lock":"ajar"}},"CTX":SCENE},{"CTX":{"values":{"door_lock":"ajar","door_lock":"locked"}}}]}`, true},
			{"scene outside value then bad time", `{"ARR":[{"CTX":{"values":{"door_lock":"ajar"},"at":"yesterday"}}]}`, false},
			{"scene folded fields", `{"ARR":[{"CTX":{"AT":"2021-03-14T15:09:26Z","valueſ":{"smoke":true}}}]}`, true},
			{"repeated scenes", `{"ARR":[{"CTX":SCENE},{"STR":"b","CTX":{"values":{"motion":true}}}],"ARR":[{"STR":"c"}],"ARR":[{},{"STR":"d"}]}`, true},
			{"max nesting scene", `{"ARR":[{"CTX":{"x":` + nested(9996, "") + `}}]}`, true},
			{"over nesting scene", `{"ARR":[{"CTX":{"x":` + nested(9997, "") + `}}]}`, false},
		}...)
	}
	for i := range cases {
		cases[i].in = r.Replace(cases[i].in)
	}
	upper := `{"` + strings.ToUpper(arr) + `":[{"` + strings.ToUpper(str) + `":"h"}]}`
	cases = append(cases, wireCase{"upper-case fields", upper, true})
	escaped := fmt.Sprintf(`{"\u%04x%s":[{"%s\u%04x":"h"}]}`, arr[0], arr[1:], str[:len(str)-1], str[len(str)-1])
	cases = append(cases, wireCase{"escaped fields", escaped, true})
	if ctx != "" {
		upper = `{"` + arr + `":[{"` + strings.ToUpper(ctx) + `":` + wireScene + `}]}`
		cases = append(cases, wireCase{"upper-case scene field", upper, true})
	}
	return cases
}

// authorizeRequestCases add the authorize item's other fields to the
// shared cases.
var authorizeRequestCases = append(envelopeCases("items", "home", "context"), []wireCase{
	{"batch", `{"items":[{"home":"home-00","op":"window.open","device_id":"win-1","context":` + wireScene + `},{"home":"home-01","op":"light.get_state","device_id":"lamp-1"}]}`, true},
	{"folded fields", `{"ITEMS":[{"HOME":"h","Op":"o","DEVICE_ID":"d","ARGS":{"a":1},"CONTEXT":` + wireScene + `}]}`, true},
	{"long-s field", `{"itemſ":[{"home":"h"}],"itemS":[{"op":"o"}]}`, true},
	{"dotted capital I field", `{"İtems":[{"home":"h"}]}`, true},
	{"null fields", `{"items":[{"home":null,"op":null,"device_id":null,"args":null,"context":null}]}`, true},
	{"null keeps earlier", `{"items":[{"home":"h","home":null,"op":"o","op":null,"device_id":"d","device_id":null}]}`, true},
	{"args null resets", `{"items":[{"args":{"a":1},"args":null}]}`, true},
	{"op number", `{"items":[{"op":5}]}`, false},
	{"device_id number", `{"items":[{"device_id":-1.5}]}`, false},
	{"args array", `{"items":[{"args":[1]}]}`, false},
	{"args string", `{"items":[{"args":"x"}]}`, false},
	{"args number", `{"items":[{"args":1}]}`, false},
	{"args values", `{"items":[{"args":{"n":1.5,"s":"x\u00e9","b":true,"z":null,"a":[1,"2",{}],"o":{"k":[]}}}]}`, true},
	{"args out of range", `{"items":[{"args":{"x":1e400}}]}`, false},
	{"args bad syntax", `{"items":[{"args":{"x":01}}]}`, false},
	{"duplicate args merge", `{"items":[{"args":{"a":1,"b":"x"},"args":{"b":2,"c":null}}]}`, true},
	{"empty args", `{"items":[{"args":{}}]}`, true},
	{"huge args", `{"items":[{"home":"h","op":"o","args":` + hugeArgs() + `}]}`, true},
	{"repeated items", `{"items":[{"home":"a","op":"x","context":` + wireScene + `},{"home":"b","op":"y","args":{"k":1}}],"items":[{"home":"c"}],"items":[{"op":"z"},{"device_id":"d","args":{"j":2}}]}`, true},
	{"repeated items device IDs", `{"items":[{"device_id":"d0"},{"device_id":"d1","device_id":"d1b"}],"items":[{"home":"h"},{"device_id":"e1"},{"device_id":null}]}`, true},
	{"escaped device ID", `{"items":[{"home":"home-00","device_id":"a\u00e9\n\"b"},{"device_id":""}]}`, true},
	{"max nesting args", `{"items":[{"args":{"x":` + nested(9996, "") + `}}]}`, true},
	{"over nesting args", `{"items":[{"args":{"x":` + nested(9997, "") + `}}]}`, false},
}...)

// contextRequestCases add the push's fields to the shared cases.
var contextRequestCases = append(envelopeCases("pushes", "home", "context"), []wireCase{
	{"pushes", `{"pushes":[{"home":"home-00","context":` + wireScene + `},{"home":"home-01"}]}`, true},
	{"folded fields", `{"PUSHES":[{"HOME":"h","Context":` + wireScene + `}]}`, true},
	{"long-s field", `{"puſhes":[{"home":"h"}]}`, true},
	{"huge unknown field", `{"pushes":[{"home":"h","args":` + hugeArgs() + `}]}`, true},
	{"repeated pushes", `{"pushes":[{"home":"a","context":` + wireScene + `},{"home":"b","context":{"values":{"motion":true}}}],"pushes":[{"home":"c"}],"pushes":[{"context":null},{"home":"d"}]}`, true},
}...)

// authorizeResponseCases add the result's fields to the shared cases.
var authorizeResponseCases = append(envelopeCases("results", "reason", ""), []wireCase{
	{"results", `{"results":[{"allowed":true,"sensitive":true,"model":"window","reason":"window.open allowed"},{"allowed":false,"sensitive":false,"error":"unknown home \"x\""}]}`, true},
	{"folded fields", `{"RESULTS":[{"ALLOWED":true,"Sensitive":true,"MODEL":"m","REASON":"r","ERROR":"e"}]}`, true},
	{"long-s field", `{"reſults":[{"allowed":true}],"reſultſ":[{"sensitive":true}]}`, true},
	{"null fields", `{"results":[{"allowed":null,"sensitive":null,"model":null,"reason":null,"error":null}]}`, true},
	{"null keeps earlier", `{"results":[{"allowed":true,"allowed":null,"model":"m","model":null}]}`, true},
	{"bool number", `{"results":[{"allowed":1}]}`, false},
	{"bool string", `{"results":[{"sensitive":"true"}]}`, false},
	{"bool object", `{"results":[{"allowed":{}}]}`, false},
	{"bool truncated", `{"results":[{"allowed":tru}]}`, false},
	{"string bool", `{"results":[{"model":false}]}`, false},
	{"huge reason", `{"results":[{"reason":"` + strings.Repeat("sensor context <does not> match & ", 300) + `"}]}`, true},
	{"repeated results", `{"results":[{"allowed":true,"model":"a"},{"sensitive":true,"error":"b"}],"results":[{"allowed":false}],"results":[{"reason":"z"},{"model":"d"}]}`, true},
}...)

// maxFuzzSeed keeps the nesting-bound cases, tens of kilobytes each, out
// of the fuzz corpora (see the sensor package's FuzzSnapshotJSON);
// TestFleetWireCases checks them instead.
const maxFuzzSeed = 16 << 10

// addSeeds adds every case of every envelope to f, so each target also
// starts from the other shapes.
func addSeeds(f *testing.F) {
	for _, cases := range [][]wireCase{authorizeRequestCases, contextRequestCases, authorizeResponseCases} {
		for _, c := range cases {
			if len(c.in) <= maxFuzzSeed {
				f.Add([]byte(c.in))
			}
		}
	}
}

// requireSameVerdict fails unless the reference and the codec both
// accepted or both rejected data.
func requireSameVerdict(t *testing.T, what string, data []byte, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s %q: reference err %v, codec err %v", what, data, wantErr, gotErr)
	}
}

// requireSameEncoding fails unless the codec's encoding matches the
// reference's, errors included.
func requireSameEncoding(t *testing.T, what string, want, got []byte, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference err %v, codec err %v", what, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(want, got) {
		t.Fatalf("%s:\n codec     %s\n reference %s", what, got, want)
	}
}

// checkBatch holds a request's decoded elements got, with the codec's
// marks, to the reference's elements want and its unknown-feature flags.
// Two kinds of element are only validated by the codec, not decoded:
// those past the cap of maxFleetBatch+1, enough for the handler to reject
// the body, and the members of an element once it passes
// maxFleetItemBytes, which marks it oversized. The reference decodes
// both, so it may reject a type error in them the codec never decoded,
// and an oversized element's contents are not compared. Otherwise the
// verdicts must agree, the elements must be equal, and the codec must
// mark an element as holding an unknown feature exactly when the
// reference flags it. It reports whether the codec accepted the body and
// whether the elements were compared, and leaves the oversized elements
// of want and got zero.
func checkBatch[T any](t *testing.T, data []byte, want []T, unknown []bool, wantErr error, got []T, marks *batchMarks, gotErr error) (accepted, compared bool) {
	t.Helper()
	overCount := gotErr == nil && len(got) > maxFleetBatch
	if overCount && len(got) != maxFleetBatch+1 {
		t.Fatalf("decode: codec kept %d elements, want the cap plus one, %d", len(got), maxFleetBatch+1)
	}
	oversized := false
	for i := range got {
		oversized = oversized || marks.has(i, rejectOversized)
	}
	if gotErr == nil && wantErr != nil && (overCount || oversized) {
		return true, false
	}
	requireSameVerdict(t, "decode", data, wantErr, gotErr)
	if wantErr != nil {
		return false, false
	}
	if overCount && len(want) >= len(got) {
		want, unknown = want[:len(got)], unknown[:len(got)]
	}
	if len(want) != len(got) {
		t.Fatalf("decode of a %d B body: codec kept %d elements, reference %d", len(data), len(got), len(want))
	}
	for i := range got {
		if marks.has(i, rejectOversized) {
			var zero T
			want[i], got[i] = zero, zero
			continue
		}
		if marks.has(i, rejectVocabulary) != unknown[i] {
			t.Fatalf("decode %q: element %d unknown-feature mark %v, reference %v", data, i, !unknown[i], unknown[i])
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decode %q:\n codec     %#v\n reference %#v", data, got, want)
	}
	return true, !overCount
}

// checkAuthorizeRequest decodes data with the codec and the reference,
// holds the two to checkBatch, and requires the re-encoding to match
// json.Marshal byte for byte. The items compared are what the codec
// decodes, home, op, device ID and scene; the reference also decodes
// args, so the verdicts agree only if the codec accepts exactly the args
// encoding/json decodes. It reports whether the body was accepted.
func checkAuthorizeRequest(t *testing.T, data []byte) bool {
	t.Helper()
	var ref refAuthorizeRequest
	var got fleetAuthorizeRequest
	wantErr := refDecode(data, &ref)
	gotErr := got.unmarshal(data)
	requireNamedDecode(t, data, (*fleetAuthorizeRequest).unmarshal, &got, gotErr)
	want, unknown := ref.items()
	gotItems := wireItems(got.Items)
	if accepted, compared := checkBatch(t, data, want, unknown, wantErr, gotItems, &got.marks, gotErr); !compared {
		return accepted
	}
	wantOut, wantErr := json.Marshal(wireRequest{Items: want})
	gotOut, gotErr := appendAuthorizeRequest(nil, gotItems)
	requireSameEncoding(t, fmt.Sprintf("encode %q", data), wantOut, gotOut, wantErr, gotErr)
	return true
}

var (
	fuzzNamesOnce sync.Once
	fuzzNames     *wireNames
)

// requireNamedDecode decodes data with unmarshal as the server does, homes
// and ops resolved through wireNames and device IDs kept for the handler,
// and requires the items, marks and error the plain decode gave, once
// each kept device ID is put in its item.
func requireNamedDecode(t *testing.T, data []byte, unmarshal func(*fleetAuthorizeRequest, []byte) error, plain *fleetAuthorizeRequest, plainErr error) {
	t.Helper()
	fuzzNamesOnce.Do(func() {
		fuzzNames = &wireNames{fleet: fleetForCloudTest(t, 4), ops: instr.BuiltinRegistry()}
	})
	named := fleetAuthorizeRequest{names: fuzzNames}
	err := unmarshal(&named, data)
	for i := range named.Items {
		named.Items[i].In.DeviceID = named.refs.device(i)
	}
	if fmt.Sprint(err) != fmt.Sprint(plainErr) || !reflect.DeepEqual(wireItems(named.Items), wireItems(plain.Items)) || !reflect.DeepEqual(named.marks.rs, plain.marks.rs) {
		t.Fatalf("decode %q with names:\n named %#v, %v\n plain %#v, %v", data, wireItems(named.Items), err, wireItems(plain.Items), plainErr)
	}
}

// checkContextRequest is checkAuthorizeRequest for a context push, which
// the codec decodes into the same items.
func checkContextRequest(t *testing.T, data []byte) bool {
	t.Helper()
	var ref refContextRequest
	var got fleetAuthorizeRequest
	wantErr := refDecode(data, &ref)
	gotErr := got.unmarshalPushes(data)
	requireNamedDecode(t, data, (*fleetAuthorizeRequest).unmarshalPushes, &got, gotErr)
	want, unknown := ref.pushes()
	gotItems := wireItems(got.Items)
	if accepted, compared := checkBatch(t, data, want, unknown, wantErr, gotItems, &got.marks, gotErr); !compared {
		return accepted
	}
	wantOut, wantErr := json.Marshal(wireContextRequest{Pushes: contextPushes(want)})
	gotOut, gotErr := appendContextRequest(nil, contextPushes(gotItems))
	requireSameEncoding(t, fmt.Sprintf("encode %q", data), wantOut, gotOut, wantErr, gotErr)
	return true
}

// checkAuthorizeResponse decodes data with the codec and the reference,
// requires the same verdict and deeply equal results, and requires the
// re-encoding to match json.Encoder's, trailing newline included.
func checkAuthorizeResponse(t *testing.T, data []byte) bool {
	t.Helper()
	var ref refAuthorizeResponse
	var got fleetAuthorizeResponse
	wantErr := refDecode(data, &ref)
	gotErr := got.unmarshal(data)
	requireSameVerdict(t, "decode", data, wantErr, gotErr)
	if wantErr != nil {
		return false
	}
	want := fleetAuthorizeResponse{Results: ref.Results}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatalf("decode %q:\n codec     %#v\n reference %#v", data, got.Results, want.Results)
	}
	// The client decodes through an intern table: twice over one table,
	// so the second decode reads the strings the first stored.
	strs := new(internTable)
	for range 2 {
		interned := fleetAuthorizeResponse{strs: strs}
		if err := interned.unmarshal(data); err != nil || !reflect.DeepEqual(want.Results, interned.Results) {
			t.Fatalf("interned decode %q: %v\n codec     %#v\n reference %#v", data, err, interned.Results, want.Results)
		}
	}
	wantOut := refEncodeResponse(want.Results)
	gotOut := appendAuthorizeResponse(nil, batchResults(got.Results))
	requireSameEncoding(t, fmt.Sprintf("encode %q", data), wantOut, gotOut, nil, nil)
	return true
}

// FuzzFleetAuthorizeRequest holds the authorize request codec to
// encoding/json, with arrays decoded into fresh elements: the same verdict
// on arbitrary bytes, equal items, and a byte-identical re-encoding.
func FuzzFleetAuthorizeRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAuthorizeRequest(t, data)
	})
}

// FuzzFleetContextRequest is the same for the context-push request.
func FuzzFleetContextRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkContextRequest(t, data)
	})
}

// FuzzFleetAuthorizeResponse is the same for the authorize response,
// re-encoded against json.Encoder.Encode.
func FuzzFleetAuthorizeResponse(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAuthorizeResponse(t, data)
	})
}

func TestFleetWireCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases []wireCase
		check func(*testing.T, []byte) bool
	}{
		{"authorize request", authorizeRequestCases, checkAuthorizeRequest},
		{"context request", contextRequestCases, checkContextRequest},
		{"authorize response", authorizeResponseCases, checkAuthorizeResponse},
	} {
		for _, c := range tc.cases {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				if got := tc.check(t, []byte(c.in)); got != c.ok {
					t.Fatalf("accepted = %v, want %v", got, c.ok)
				}
			})
		}
	}
}

// TestFleetWireEncodeCases encodes values no decode produces, such as
// invalid UTF-8, unencodable scenes and unsupported args, and requires
// the codec's bytes and errors to match encoding/json's.
func TestFleetWireEncodeCases(t *testing.T) {
	at := time.Date(2021, 3, 14, 15, 9, 26, 500, time.FixedZone("", -(7*3600+30*60)))
	scene := sensor.NewSnapshot(at)
	scene.Set(sensor.FeatSmoke, sensor.Bool(true))
	scene.Set(sensor.FeatWeather, sensor.Label(sensor.WeatherRain))
	nan := sensor.NewSnapshot(at)
	nan.Set(sensor.FeatHour, sensor.Number(math.NaN()))
	badYear := sensor.NewSnapshot(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))
	odd := "k\xff<tag>&\u2028\u2029\x00\x1f\"\\\n\t\r\b\fé😀"

	requests := [][]FleetBatchItem{
		nil,
		{},
		{{}},
		{{Home: odd, Op: odd, DeviceID: odd}},
		{{Home: "h", Args: map[string]any{}}},
		{{Home: "h", Args: map[string]any{"b": 1.5, "a": odd, "n": nil, "l": []any{1, "x", true}, "m": map[string]any{"z": 1e21}, "i": 7, "raw": json.RawMessage(` { "x" : [ 1 , 2 ] } `)}}},
		{{Home: "h", Context: &scene}, {Home: "g", Context: &sensor.Snapshot{}}},
		{{Home: "h", Context: &nan}},
		{{Home: "h", Context: &badYear}},
		{{Home: "h", Args: map[string]any{"f": math.Inf(1)}}},
		{{Home: "h", Args: map[string]any{"c": make(chan int)}}},
	}
	for i, items := range requests {
		wantOut, wantErr := json.Marshal(wireRequest{Items: items})
		gotOut, gotErr := appendAuthorizeRequest(nil, items)
		requireSameEncoding(t, fmt.Sprintf("authorize request %d", i), wantOut, gotOut, wantErr, gotErr)
	}

	pushes := [][]fleetContextPush{
		nil,
		{},
		{{}},
		{{Home: odd, Context: scene}, {Home: "g"}},
		{{Home: "h", Context: nan}},
	}
	for i, ps := range pushes {
		wantOut, wantErr := json.Marshal(wireContextRequest{Pushes: ps})
		gotOut, gotErr := appendContextRequest(nil, ps)
		requireSameEncoding(t, fmt.Sprintf("context request %d", i), wantOut, gotOut, wantErr, gotErr)
	}

	responses := [][]FleetResult{
		nil,
		{},
		{{}},
		{{Allowed: true, Sensitive: true, Model: "window", Reason: "window.open allowed"}},
		{{Model: odd, Reason: odd, Error: odd}, {Sensitive: true, Error: "unknown opcode \"x\""}},
	}
	for i, results := range responses {
		want := refEncodeResponse(results)
		got := appendAuthorizeResponse(nil, batchResults(results))
		requireSameEncoding(t, fmt.Sprintf("authorize response %d", i), want, got, nil, nil)
	}
}

// TestFleetWireAppends pins that the encoders append to the buffer they
// are given rather than replace it.
func TestFleetWireAppends(t *testing.T) {
	prefix := []byte("prefix:")
	items := []FleetBatchItem{{Home: "h", Op: "o"}}
	got, err := appendAuthorizeRequest(append([]byte(nil), prefix...), items)
	want, _ := json.Marshal(wireRequest{Items: items})
	if err != nil || !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
		t.Fatalf("appendAuthorizeRequest = %q, %v", got, err)
	}
	results := []FleetResult{{Allowed: true}}
	if got := appendAuthorizeResponse(append([]byte(nil), prefix...), batchResults(results)); !bytes.Equal(got, append(append([]byte(nil), prefix...), refEncodeResponse(results)...)) {
		t.Fatalf("appendAuthorizeResponse = %q", got)
	}
}

// TestFleetWireOverCount holds the codec's cut at maxFleetBatch+1 elements
// to the reference on both request envelopes: the kept elements equal the
// reference's first ones, a type error past the cap is not decoded, and a
// syntax error past the cap still rejects the body.
func TestFleetWireOverCount(t *testing.T) {
	for _, tc := range []struct {
		field, elem string
		check       func(*testing.T, []byte) bool
	}{
		{"items", `{"home":"h%d","op":"window.open"}`, checkAuthorizeRequest},
		{"pushes", `{"home":"h%d","context":{"values":{"motion":true}}}`, checkContextRequest},
	} {
		var b strings.Builder
		b.WriteString(`{"` + tc.field + `":[`)
		for i := 0; i < maxFleetBatch+3; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, tc.elem, i)
		}
		body := b.String()
		for _, c := range []struct {
			name, tail string
			ok         bool
		}{
			{"well formed", `]}`, true},
			{"type error past the cap", `,{"home":5}]}`, true},
			{"syntax error past the cap", `,{"home":}]}`, false},
		} {
			t.Run(tc.field+"/"+c.name, func(t *testing.T) {
				if got := tc.check(t, []byte(body+c.tail)); got != c.ok {
					t.Fatalf("accepted = %v, want %v", got, c.ok)
				}
			})
		}
	}
}
