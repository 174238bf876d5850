package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

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

// ownedHomes resolves, per input, whether the session's account owns the
// named home — one lock acquisition for the whole batch.
func (s *Server) ownedHomes(user string, homes func(i int) string, n int) []bool {
	owned := make([]bool, n)
	s.mu.Lock()
	for i := 0; i < n; i++ {
		owned[i] = s.homes[homes(i)] == user
	}
	s.mu.Unlock()
	return owned
}

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
	// oversized marks the items over maxFleetItemBytes.
	oversized oversized
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
	var req fleetAuthorizeRequest
	if !decodeFleetBody(w, r, maxFleetBodyBytes, req.unmarshal) {
		return
	}
	if len(req.Items) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	if len(req.Items) > maxFleetBatch {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch exceeds %d items", maxFleetBatch)})
		return
	}
	results := make([]FleetResult, len(req.Items))
	owned := s.ownedHomes(user, func(i int) string { return req.Items[i].Home }, len(req.Items))
	// Gate ownership and build the instructions first; items that fail
	// get their error recorded in place and the survivors keep their
	// positions via the index map.
	items := make([]fleet.BatchItem, 0, len(req.Items))
	idxs := make([]int, 0, len(req.Items))
	for i, it := range req.Items {
		if !owned[i] {
			results[i] = FleetResult{Error: errHomeNotBound}
			continue
		}
		if req.oversized.has(i) {
			results[i] = FleetResult{Error: errItemTooLarge}
			continue
		}
		in, err := s.cfg.Registry.Build(it.Op, it.DeviceID, instr.OriginUser, it.Args)
		if err != nil {
			results[i] = FleetResult{Error: err.Error()}
			continue
		}
		items = append(items, fleet.BatchItem{Home: it.Home, In: in, Context: it.Context})
		idxs = append(idxs, i)
	}
	out, err := s.cfg.Fleet.AuthorizeBatch(r.Context(), items, 0)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	for k, res := range out {
		i := idxs[k]
		if res.Err != "" {
			results[i] = FleetResult{Error: res.Err}
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
	// oversized marks the pushes over maxFleetItemBytes.
	oversized oversized
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
	var req fleetContextRequest
	if !decodeFleetBody(w, r, maxFleetBodyBytes, req.unmarshal) {
		return
	}
	if len(req.Pushes) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty push batch"})
		return
	}
	if len(req.Pushes) > maxFleetBatch {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch exceeds %d pushes", maxFleetBatch)})
		return
	}
	resp := fleetContextResponse{}
	owned := s.ownedHomes(user, func(i int) string { return req.Pushes[i].Home }, len(req.Pushes))
	for i, p := range req.Pushes {
		if !owned[i] {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: p.Home, Error: errHomeNotBound})
			continue
		}
		if req.oversized.has(i) {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: p.Home, Error: errItemTooLarge})
			continue
		}
		if err := s.cfg.Fleet.PushContext(p.Home, p.Context); err != nil {
			resp.Errors = append(resp.Errors, FleetPushError{Index: i, Home: p.Home, Error: err.Error()})
			continue
		}
		resp.Accepted++
	}
	writeJSON(w, http.StatusOK, resp)
}

// FleetAuthorize submits a mixed-home batch and returns the per-item
// results (client side of POST /v1/fleet/authorize).
func (c *Client) FleetAuthorize(items []FleetBatchItem) ([]FleetResult, error) {
	var resp fleetAuthorizeResponse
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
