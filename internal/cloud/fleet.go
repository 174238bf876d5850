package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// Fleet endpoints: the multi-tenant face of the cloud. A gateway batches
// many homes' traffic into one round trip; the cloud fans it out across the
// fleet's shards and answers per item, so one tenant's bad request never
// aborts another tenant's instructions. Every item and push is checked
// against the home-to-account bindings (Server.BindHome) first: a session
// may only push context for, and authorize against, homes its account
// owns — otherwise any authenticated user could fabricate another
// tenant's sensor context and walk sensitive instructions past the gate.

// errHomeNotBound rejects an item or push naming a home outside the
// session's account (mirrors handleCommand's device-ownership error).
const errHomeNotBound = "home not bound to this account"

// FleetBatchItem is one instruction in a fleet batch, as a gateway sends
// it. Context, when present, is pushed as the home's newest sensor
// snapshot before judging ("push before judge" — the gateway ships state
// and commands together). The server validates Args and drops them: no
// judge reads them. It resolves Home and Op to strings of its own (see
// wireNames), and DeviceID, once Home is known bound to the caller, to
// the home's own copy (see itemRefs), so the strings it keeps, in a
// home's decision ring among others, are never a tenant's bytes.
type FleetBatchItem struct {
	Home     string           `json:"home"`
	Op       string           `json:"op"`
	DeviceID string           `json:"device_id"`
	Args     map[string]any   `json:"args,omitempty"`
	Context  *sensor.Snapshot `json:"context,omitempty"`
}

// fleetAuthorizeRequest is an authorize body as the server decodes it:
// straight into the items it hands the fleet. A context-push body decodes
// into it too, each push an item of its home and scene.
type fleetAuthorizeRequest struct {
	Items []fleet.BatchItem `json:"items"`
	// marks holds the rejected items.
	marks batchMarks
	// scenes holds the items' scenes: a decoded item's Context points at
	// its slot.
	scenes sceneSlots
	// names, when non-nil, resolves the items' homes and ops to the
	// server's strings, and has their homes and device IDs kept in refs.
	names *wireNames
	refs  itemRefs
}

// FleetResult mirrors one item: either a decision or a per-item
// error string (unknown home, unknown opcode, judge failure).
type FleetResult struct {
	Allowed   bool   `json:"allowed"`
	Sensitive bool   `json:"sensitive"`
	Model     string `json:"model,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Error     string `json:"error,omitempty"`
}

type fleetAuthorizeResponse struct {
	Results []FleetResult `json:"results"`
	// strs, when non-nil, interns the decoded model, reason and error
	// strings.
	strs *internTable
}

// maxFleetBatch bounds one request's item count — a fleet batch is a
// decision window's traffic, not a bulk import.
const maxFleetBatch = 65536

// maxFleetItemBytes bounds the encoded size of one item or push: a
// full-vocabulary scene with its instruction is well under 1 KiB. An item
// or push whose JSON object spans more gets a per-item error and is not
// built, pushed or judged, so no tenant can make an outsized scene its
// home's retained context.
const maxFleetItemBytes = 4 << 10

// errItemTooLarge rejects an item or push over maxFleetItemBytes.
var errItemTooLarge = fmt.Sprintf("item exceeds %d bytes", maxFleetItemBytes)

// errVocabulary rejects an item or push whose scene names a feature
// outside the sensor vocabulary, or gives a feature a value it does not
// admit: one of another type, or a label outside the feature's domain.
// The scene is not stored, pushed, judged or shown to the home's trust
// engine: the vocabulary is closed, as the paper's collector keeps only
// the features and states it maps, so no tenant can grow a home's state
// one new name at a time or hand its judges a value no model was trained
// on.
const errVocabulary = "context holds a feature or value outside the sensor vocabulary"

// rejectErr returns the error that answers element i of a batch decoded
// with marks, or "" when it is not rejected, and counts an
// out-of-vocabulary rejection against endpoint ep.
func (s *Server) rejectErr(marks *batchMarks, i int, ep fleetEndpoint) string {
	switch {
	case marks.has(i, rejectOversized):
		return errItemTooLarge
	case marks.has(i, rejectVocabulary):
		if c := s.vocabularyRejects[ep]; c != nil {
			c.Inc()
		}
		return errVocabulary
	}
	return ""
}

// maxFleetBodyBytes bounds a fleet request body (256 MiB), so the item
// cap above cannot be reached only after an unbounded body was read.
const maxFleetBodyBytes = maxFleetBatch * maxFleetItemBytes

// decodeFleetBody reads a fleet request body of at most limit bytes into
// a pooled buffer and decodes it with unmarshal. A body declared or read
// beyond the limit answers 413, any other read or decode failure 400; it
// reports whether the body was decoded.
func decodeFleetBody(w http.ResponseWriter, r *http.Request, limit int64, unmarshal func([]byte) error) bool {
	if r.ContentLength <= limit {
		buf := getBuf()
		data, err := readBody(*buf, http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
		if err == nil {
			err = unmarshal(data)
		}
		*buf = data
		putBuf(buf)
		var tooLarge *http.MaxBytesError
		switch {
		case err == nil:
			return true
		case !errors.As(err, &tooLarge):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON body"})
			return false
		}
	}
	writeTooLarge(w, limit)
	return false
}

// writeTooLarge answers 413 for a body over limit bytes.
func writeTooLarge(w http.ResponseWriter, limit int64) {
	writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", limit)})
}

// authorizeArena is the scratch of one fleet request, pooled across
// requests and shared by both fleet endpoints that take scenes: the
// decoded items, which /v1/fleet/authorize builds in place and hands to
// the fleet, the scene storage their scenes decode into, and the results
// the fleet writes and the response is encoded from. A /v1/fleet/context
// push decodes into an item's Home and Context and leaves the results
// unused. Decoding
// starts every item from zero and rewrites a scene slot's values whole,
// so what one request leaves in the arena never reaches the next one's
// items; reset clears the used elements and empties the scene slots
// anyway, so a pooled arena holds nothing of a tenant. The fleet copies a
// pushed scene into the home's own view, so no slot outlives its request
// in the fleet.
type authorizeArena struct {
	req fleetAuthorizeRequest
	out []fleet.BatchResult
}

var arenaPool = sync.Pool{New: func() any { return new(authorizeArena) }}

// sceneSlotBytes bounds one scene slot: its snapshot and the value
// storage the widest scene leaves it, 392 B.
const sceneSlotBytes = unsafe.Sizeof(sensor.Snapshot{}) + sensor.MaxValueBytes

// arenaItemBytes is one item's share of an arena: an element of each of
// its slices, its scene slot's storage included, 568 B. The device IDs'
// bytes are bounded on their own.
const arenaItemBytes = unsafe.Sizeof(fleet.BatchItem{}) + unsafe.Sizeof(fleet.BatchResult{}) + unsafe.Sizeof(itemRef{}) + sceneSlotBytes

func (a *authorizeArena) put() {
	if a.reset() {
		arenaPool.Put(a)
	}
}

// reset clears the elements the request used and empties the arena, so
// it can serve another request. It reports false, and clears nothing, for
// an arena sized past maxPooledBuf by an unusually large batch: that one
// is left to the garbage collector.
func (a *authorizeArena) reset() bool {
	refs := &a.req.refs
	if uintptr(max(cap(a.req.Items), cap(a.out), cap(a.req.scenes), cap(refs.at)))*arenaItemBytes > maxPooledBuf || cap(refs.buf) > maxPooledBuf {
		return false
	}
	clear(a.req.Items)
	clear(a.out)
	a.req.scenes.clear()
	// An earlier array of the body may have written past either's length.
	clear(refs.buf[:cap(refs.buf)])
	clear(refs.at[:cap(refs.at)])
	a.req = fleetAuthorizeRequest{Items: a.req.Items[:0], marks: a.req.marks.cleared(), scenes: a.req.scenes,
		refs: itemRefs{buf: refs.buf[:0], at: refs.at[:0]}}
	a.out = a.out[:0]
	return true
}

func (s *Server) handleFleetAuthorize(w http.ResponseWriter, r *http.Request) {
	user := s.sessionFor(w, r, http.MethodPost)
	if user == "" {
		return
	}
	a := arenaPool.Get().(*authorizeArena)
	defer a.put()
	a.req.names = &s.names
	if !decodeFleetBody(w, r, maxFleetBodyBytes, a.req.unmarshal) {
		return
	}
	items := a.req.Items
	if len(items) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	if len(items) > maxFleetBatch {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch exceeds %d items", maxFleetBatch)})
		return
	}
	out := slices.Grow(a.out[:0], len(items))[:len(items)]
	clear(out) // the fleet passes over an item whose result is already set
	a.out = out
	s.mu.Lock()
	for i := range items {
		if s.homes[items[i].Home] != user {
			out[i].Err = errHomeNotBound
		} else {
			out[i].Err = s.rejectErr(&a.req.marks, i, epAuthorize)
		}
	}
	s.mu.Unlock()
	// Build the other items' instructions in place, each device ID now
	// resolved against its bound home; an item that fails gets its error
	// in its result, which keeps the fleet off it.
	for i := range items {
		if it := &items[i]; out[i].Err == "" {
			var err error
			if it.In, err = s.cfg.Registry.Build(it.In.Op, a.req.refs.device(i), instr.OriginUser, nil); err != nil {
				out[i].Err = err.Error()
			}
		}
	}
	if err := s.cfg.Fleet.AuthorizeBatchInto(r.Context(), items, out, 0); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	buf := getBuf()
	*buf = appendAuthorizeResponse(*buf, out)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(*buf))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // a failed write means the gateway went away
	putBuf(buf)
}

// fleetContextPush is one home's snapshot in a context-push batch, as the
// client encodes it.
type fleetContextPush struct {
	Home    string          `json:"home"`
	Context sensor.Snapshot `json:"context"`
}

// FleetPushError locates one rejected push: the index into the request's
// push array plus the home it named, so a gateway batching thousands of
// pushes can retry or drop exactly the failed ones. Client.FleetPushContext
// sends its pushes sorted by home, so there Index is the home's position
// in that order.
type FleetPushError struct {
	Index int    `json:"index"`
	Home  string `json:"home"`
	Error string `json:"error"`
}

type fleetContextResponse struct {
	Accepted int              `json:"accepted"`
	Errors   []FleetPushError `json:"errors,omitempty"`
}

func (s *Server) handleFleetContext(w http.ResponseWriter, r *http.Request) {
	user := s.sessionFor(w, r, http.MethodPost)
	if user == "" {
		return
	}
	a := arenaPool.Get().(*authorizeArena)
	defer a.put()
	a.req.names = &s.names
	if !decodeFleetBody(w, r, maxFleetBodyBytes, a.req.unmarshalPushes) {
		return
	}
	pushes := a.req.Items
	if len(pushes) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty push batch"})
		return
	}
	if len(pushes) > maxFleetBatch {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch exceeds %d pushes", maxFleetBatch)})
		return
	}
	resp := fleetContextResponse{}
	s.mu.Lock()
	for i := range pushes {
		if s.homes[pushes[i].Home] != user {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: pushes[i].Home, Error: errHomeNotBound})
		}
	}
	s.mu.Unlock()
	// Push the owned pushes; unowned walks the ownership errors, which
	// are in index order, alongside.
	unowned := resp.Errors
	for i := range pushes {
		p := &pushes[i]
		if len(unowned) > 0 && unowned[0].Index == i {
			unowned = unowned[1:]
			continue
		}
		if err := s.rejectErr(&a.req.marks, i, epContext); err != "" {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: p.Home, Error: err})
			continue
		}
		var scene sensor.Snapshot // a push without a scene is a heartbeat
		if p.Context != nil {
			scene = *p.Context
		}
		if err := s.cfg.Fleet.PushContext(p.Home, scene); err != nil {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: p.Home, Error: err.Error()})
			continue
		}
		resp.Accepted++
	}
	slices.SortFunc(resp.Errors, func(a, b FleetPushError) int { return a.Index - b.Index })
	writeJSON(w, http.StatusOK, resp)
}

// FleetAuthorize submits a mixed-home batch and returns the per-item
// results (client side of POST /v1/fleet/authorize). The results are the
// caller's; their strings are interned per Client.
func (c *Client) FleetAuthorize(items []FleetBatchItem) ([]FleetResult, error) {
	resp := fleetAuthorizeResponse{Results: make([]FleetResult, 0, len(items)), strs: &c.strs}
	err := c.postFleet("/v1/fleet/authorize",
		func(b []byte) ([]byte, error) { return appendAuthorizeRequest(b, items) },
		resp.unmarshal)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// FleetItem builds one batch item for FleetAuthorize.
func FleetItem(home, op, deviceID string, ctx *sensor.Snapshot) FleetBatchItem {
	return FleetBatchItem{Home: home, Op: op, DeviceID: deviceID, Context: ctx}
}

// FleetPushContext pushes per-home snapshots (POST /v1/fleet/context),
// sorted by home. Rejected pushes are reported per home in the returned
// slice, each FleetPushError.Index the home's position in that sorted
// order; the error is reserved for transport/protocol failures, so a
// partially-accepted batch is (accepted, rejections, nil).
func (c *Client) FleetPushContext(pushes map[string]sensor.Snapshot) (int, []FleetPushError, error) {
	homes := make([]string, 0, len(pushes))
	for home := range pushes {
		homes = append(homes, home)
	}
	slices.Sort(homes)
	req := make([]fleetContextPush, len(homes))
	for i, home := range homes {
		req[i] = fleetContextPush{Home: home, Context: pushes[home]}
	}
	var resp fleetContextResponse
	err := c.postFleet("/v1/fleet/context",
		func(b []byte) ([]byte, error) { return appendContextRequest(b, req) },
		func(data []byte) error { return json.NewDecoder(bytes.NewReader(data)).Decode(&resp) })
	if err != nil {
		return 0, nil, err
	}
	return resp.Accepted, resp.Errors, nil
}

// FleetStats is the fleet summary served at GET /v1/fleet/stats.
type FleetStats struct {
	Homes  int      `json:"homes"`
	Shards int      `json:"shards"`
	Models []string `json:"models"`
	// LowTrustHomes counts homes whose context source currently sits
	// below its trust threshold — the fleet-wide spoofing signal.
	LowTrustHomes int `json:"low_trust_homes"`
	// SeqAnomalies counts sensitive instructions the sequence judge
	// rejected fleet-wide after the static tree allowed them — the
	// temporal-attack (automation chain, stale replay) signal.
	SeqAnomalies uint64 `json:"seq_anomalies"`
}

// FleetStats reads the fleet summary (GET /v1/fleet/stats).
func (c *Client) FleetStats() (FleetStats, error) {
	var resp FleetStats
	if err := c.do(http.MethodGet, "/v1/fleet/stats", nil, &resp); err != nil {
		return FleetStats{}, err
	}
	return resp, nil
}

func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	if s.sessionFor(w, r, http.MethodGet) == "" {
		return
	}
	f := s.cfg.Fleet
	resp := FleetStats{
		Homes:         f.HomeCount(),
		Shards:        f.ShardCount(),
		LowTrustHomes: f.LowTrustHomes(),
		SeqAnomalies:  f.SeqAnomalies(),
	}
	for _, m := range f.Registry().Models() {
		resp.Models = append(resp.Models, string(m))
	}
	writeJSON(w, http.StatusOK, resp)
}
