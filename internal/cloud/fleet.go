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

// FleetBatchItem is one instruction in a fleet batch. Context, when
// present, is pushed as the home's newest sensor snapshot before judging
// ("push before judge" — the gateway ships state and commands together).
type FleetBatchItem struct {
	Home     string           `json:"home"`
	Op       string           `json:"op"`
	DeviceID string           `json:"device_id"`
	Args     map[string]any   `json:"args,omitempty"`
	Context  *sensor.Snapshot `json:"context,omitempty"`
}

type fleetAuthorizeRequest struct {
	Items []FleetBatchItem `json:"items"`
	// marks holds the rejected items.
	marks batchMarks
	// used is one past the highest index any items array in the body
	// decoded into: the prefix of Items' backing array the decode wrote,
	// which a later, shorter array leaves beyond the slice's length.
	used int
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

// errUnknownFeature rejects an item or push whose scene names a feature
// outside the sensor vocabulary. The scene is not stored, pushed, judged
// or shown to the home's trust engine: the vocabulary is closed, as the
// paper's collector keeps only the features it maps, so no tenant can
// grow a home's state one new name at a time.
const errUnknownFeature = "context names a feature outside the sensor vocabulary"

// rejectErr returns the error that answers element i of a batch decoded
// with marks, or "" when it is not rejected, and counts an unknown-feature
// rejection against endpoint ep.
func (s *Server) rejectErr(marks *batchMarks, i int, ep fleetEndpoint) string {
	switch {
	case marks.has(i, rejectOversized):
		return errItemTooLarge
	case marks.has(i, rejectUnknownFeature):
		if c := s.unknownFeatures[ep]; c != nil {
			c.Inc()
		}
		return errUnknownFeature
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

// authorizeArena is the scratch of one /v1/fleet/authorize request, pooled
// across requests: the decoded items, the per-item results, the
// instructions handed to the fleet with their item indices, and the
// fleet's results. Every element within each slice's capacity is zero
// while the arena is pooled, because the decoder decodes item i over
// whatever is left at index i: an arena put back uncleared would hand one
// tenant's context and args to the next request's items.
type authorizeArena struct {
	req     fleetAuthorizeRequest
	results []FleetResult
	batch   []fleet.BatchItem
	idxs    []int
	out     []fleet.BatchResult
}

var arenaPool = sync.Pool{New: func() any { return new(authorizeArena) }}

// arenaItemBytes is one item's share of an arena: an element of each of
// its slices.
const arenaItemBytes = unsafe.Sizeof(FleetBatchItem{}) + unsafe.Sizeof(FleetResult{}) +
	unsafe.Sizeof(fleet.BatchItem{}) + unsafe.Sizeof(0) + unsafe.Sizeof(fleet.BatchResult{})

func (a *authorizeArena) put() {
	if a.reset() {
		arenaPool.Put(a)
	}
}

// reset clears the prefix of each slice the request used and empties
// them, so the arena can serve another request. It reports false, and
// clears nothing, for an arena sized past maxPooledBuf by an unusually
// large batch: that one is left to the garbage collector.
func (a *authorizeArena) reset() bool {
	n := max(cap(a.req.Items), cap(a.results), cap(a.batch), cap(a.idxs), cap(a.out))
	if uintptr(n)*arenaItemBytes > maxPooledBuf {
		return false
	}
	clear(a.req.Items[:min(a.req.used, cap(a.req.Items))])
	clear(a.results)
	clear(a.batch)
	clear(a.out)
	a.req = fleetAuthorizeRequest{Items: a.req.Items[:0], marks: a.req.marks.cleared()}
	a.results, a.batch, a.idxs, a.out = a.results[:0], a.batch[:0], a.idxs[:0], a.out[:0]
	return true
}

func (s *Server) handleFleetAuthorize(w http.ResponseWriter, r *http.Request) {
	user := s.sessionUser(r)
	if user == "" {
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "login required"})
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	a := arenaPool.Get().(*authorizeArena)
	defer a.put()
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
	results := slices.Grow(a.results, len(items))[:len(items)]
	a.results = results
	s.mu.Lock()
	for i := range items {
		if s.homes[items[i].Home] != user {
			results[i].Error = errHomeNotBound
		}
	}
	s.mu.Unlock()
	// Build the instructions of the owned items; items that fail get their
	// error recorded in place and the survivors keep their positions via
	// the index map.
	for i := range items {
		it := &items[i]
		if results[i].Error != "" {
			continue
		}
		if err := s.rejectErr(&a.req.marks, i, epAuthorize); err != "" {
			results[i].Error = err
			continue
		}
		in, err := s.cfg.Registry.Build(it.Op, it.DeviceID, instr.OriginUser, it.Args)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		a.batch = append(a.batch, fleet.BatchItem{Home: it.Home, In: in, Context: it.Context})
		a.idxs = append(a.idxs, i)
	}
	a.out = slices.Grow(a.out, len(a.batch))[:len(a.batch)]
	if err := s.cfg.Fleet.AuthorizeBatchInto(r.Context(), a.batch, a.out, 0); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	for k, res := range a.out {
		i := a.idxs[k]
		if res.Err != "" {
			results[i].Error = res.Err
			continue
		}
		results[i] = FleetResult{
			Allowed:   res.Decision.Allowed,
			Sensitive: res.Decision.Sensitive,
			Model:     string(res.Decision.Model),
			Reason:    res.Decision.Reason,
		}
	}
	buf := getBuf()
	*buf = appendAuthorizeResponse(*buf, results)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // a failed write means the gateway went away
	putBuf(buf)
}

// fleetContextPush is one home's snapshot in a context-push batch.
type fleetContextPush struct {
	Home    string          `json:"home"`
	Context sensor.Snapshot `json:"context"`
}

type fleetContextRequest struct {
	Pushes []fleetContextPush `json:"pushes"`
	// marks holds the rejected pushes.
	marks batchMarks
	// used is one past the highest index any pushes array in the body
	// decoded into, as fleetAuthorizeRequest.used.
	used int
}

// contextPool holds /v1/fleet/context's decoded requests across requests.
// Every push within a pooled request's capacity is zero, because the
// decoder decodes push i over whatever is left at index i: a home or a
// scene left behind would go into the next request's pushes that omit
// theirs.
var contextPool = sync.Pool{New: func() any { return new(fleetContextRequest) }}

func (req *fleetContextRequest) put() {
	if req.reset() {
		contextPool.Put(req)
	}
}

// reset clears the prefix of the pushes the decode wrote and empties req,
// as authorizeArena.reset does; it reports false, and clears nothing, for
// a request grown past maxPooledBuf.
func (req *fleetContextRequest) reset() bool {
	if uintptr(cap(req.Pushes))*unsafe.Sizeof(fleetContextPush{}) > maxPooledBuf {
		return false
	}
	clear(req.Pushes[:min(req.used, cap(req.Pushes))])
	*req = fleetContextRequest{Pushes: req.Pushes[:0], marks: req.marks.cleared()}
	return true
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
	user := s.sessionUser(r)
	if user == "" {
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "login required"})
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	req := contextPool.Get().(*fleetContextRequest)
	defer req.put()
	if !decodeFleetBody(w, r, maxFleetBodyBytes, req.unmarshal) {
		return
	}
	pushes := req.Pushes
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
		if err := s.rejectErr(&req.marks, i, epContext); err != "" {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: p.Home, Error: err})
			continue
		}
		if err := s.cfg.Fleet.PushContext(p.Home, p.Context); err != nil {
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
	if s.sessionUser(r) == "" {
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "login required"})
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
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
