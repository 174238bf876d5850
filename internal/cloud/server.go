// Package cloud implements the IoT cloud of the platform architecture
// (Fig 1): when the mobile app and the device are not on the same LAN, the
// app "sends the instructions to control the device to the IoT cloud; then
// the cloud performs the command verification and forwarding". The cloud
// authenticates users, checks device ownership, runs the IDS, forwards
// verified instructions to the device layer, and keeps a command history.
package cloud

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/resilience"
	"iotsid/internal/trust"
)

// Forwarder carries a verified instruction to the device layer — in a real
// deployment the cloud-to-gateway tunnel, here typically home.Execute or a
// miio execute call.
type Forwarder func(in instr.Instruction) error

// HistoryEntry records one command submission.
type HistoryEntry struct {
	User     string    `json:"user"`
	Op       string    `json:"op"`
	DeviceID string    `json:"device_id"`
	Outcome  string    `json:"outcome"` // forwarded | rejected | failed
	Detail   string    `json:"detail,omitempty"`
	At       time.Time `json:"at"`
}

// Outcome values for history entries.
const (
	OutcomeForwarded = "forwarded"
	OutcomeRejected  = "rejected"
	OutcomeFailed    = "failed"
)

// Config wires a cloud instance.
type Config struct {
	// Addr is the TCP listen address; ":0" picks a free port.
	Addr string
	// Users maps account name → secret.
	Users map[string]string
	// Registry validates opcodes.
	Registry *instr.Registry
	// Forward delivers verified instructions.
	Forward Forwarder
	// Authorize is the optional IDS hook — wire core.Framework.Authorize.
	// It collects the sensor context itself (bounded by ContextTimeout)
	// and returns the decision: an error is a 503 with no forward, a
	// denial is a 403, so /v1/command gets the same fail-closed contract
	// (missing, stale and low-trust context) as every other path.
	Authorize func(ctx context.Context, in instr.Instruction) (core.Decision, error)
	// Fleet, when non-nil, mounts the multi-tenant endpoints:
	// POST /v1/fleet/authorize (batch authorization across homes),
	// POST /v1/fleet/context (per-home context pushes), and
	// GET /v1/fleet/stats. All three require a session, and authorize
	// items / context pushes additionally require the named home to be
	// bound to the session's account via BindHome — the tenant analogue
	// of the device-ownership check in /v1/command.
	Fleet *fleet.Fleet
	// ContextTimeout bounds each command's authorization, context
	// collection included (default 10s) — a hung gateway turns into a
	// 503, not a wedged handler.
	ContextTimeout time.Duration
	// Health, when non-nil, is reported at /healthz: 200 while every
	// required sensor source is serving (fresh or within its staleness
	// budget), 503 otherwise. Wire it to the same resilience.Registry the
	// context collector updates.
	Health *resilience.Registry
	// Trust, when non-nil, adds sensor-trust rows to /healthz and degrades
	// it (503) while any required source sits below its trust threshold —
	// availability and truthfulness are reported through the same probe.
	// Wire it to the engine the authorizer's collector observes into.
	Trust *trust.Engine
	// Metrics, when non-nil, is served as Prometheus text at GET /metrics
	// (unauthenticated, like /healthz).
	Metrics *obs.Registry
	// Now stamps history entries; defaults to time.Now.
	Now func() time.Time
}

// Brute-force lockout: maxLoginFailures consecutive bad logins lock an
// account for lockoutWindow.
const (
	maxLoginFailures = 5
	lockoutWindow    = 5 * time.Minute
)

// maxSessions bounds the live sessions per account: a login past it ends
// the account's oldest session, so no account can grow server memory one
// login at a time.
const maxSessions = 16

// Server is a running cloud instance.
type Server struct {
	cfg  Config
	ln   net.Listener
	http *http.Server
	wg   sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]string   // session token → user
	logins   map[string][]string // user → live session tokens, oldest first
	devices  map[string]string   // device ID → owning user
	homes    map[string]string   // fleet home ID → owning account
	history  []HistoryEntry
	failures map[string]int       // user → consecutive failed logins
	lockedAt map[string]time.Time // user → lockout start

	// vocabularyRejects counts, per fleet endpoint, the items and pushes
	// rejected for a scene holding a feature or value outside the
	// vocabulary; nil cells without Config.Metrics.
	vocabularyRejects [fleetEndpoints]*obs.Counter
}

// fleetEndpoint indexes the fleet endpoints that take scenes.
type fleetEndpoint int

const (
	epAuthorize fleetEndpoint = iota
	epContext
	fleetEndpoints
)

// metricVocabularyRejects is the out-of-vocabulary rejection counter
// family.
const metricVocabularyRejects = "iotsid_cloud_fleet_vocabulary_rejects_total"

// NewServer validates the configuration, binds, and serves.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Users) == 0 {
		return nil, fmt.Errorf("cloud: server needs at least one user account")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cloud: server needs an instruction registry")
	}
	if cfg.Forward == nil {
		return nil, fmt.Errorf("cloud: server needs a forwarder")
	}
	if cfg.ContextTimeout <= 0 {
		cfg.ContextTimeout = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cloud: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		sessions: make(map[string]string),
		logins:   make(map[string][]string),
		devices:  make(map[string]string),
		homes:    make(map[string]string),
		failures: make(map[string]int),
		lockedAt: make(map[string]time.Time),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/login", s.handleLogin)
	mux.HandleFunc("/v1/devices", s.handleDevices)
	mux.HandleFunc("/v1/command", s.handleCommand)
	mux.HandleFunc("/v1/history", s.handleHistory)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Fleet != nil {
		mux.HandleFunc("/v1/fleet/authorize", s.handleFleetAuthorize)
		mux.HandleFunc("/v1/fleet/context", s.handleFleetContext)
		mux.HandleFunc("/v1/fleet/stats", s.handleFleetStats)
	}
	if cfg.Metrics != nil {
		mux.Handle("/metrics", cfg.Metrics.Handler())
		if cfg.Fleet != nil {
			vec := cfg.Metrics.NewCounterVec(metricVocabularyRejects,
				"Fleet items and pushes rejected because their scene holds a feature or value outside the sensor vocabulary, by endpoint.",
				"endpoint")
			s.vocabularyRejects[epAuthorize] = vec.With("authorize")
			s.vocabularyRejects[epContext] = vec.With("context")
		}
	}
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// URL returns the cloud's base URL.
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error {
	err := s.http.Close()
	s.wg.Wait()
	return err
}

// BindDevice registers a device as owned by a user (provisioning — in the
// vendor world this is the pairing flow).
func (s *Server) BindDevice(deviceID, user string) error {
	if _, ok := s.cfg.Users[user]; !ok {
		return fmt.Errorf("cloud: unknown user %q", user)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, bound := s.devices[deviceID]; bound && owner != user {
		return fmt.Errorf("cloud: device %q already bound to another account", deviceID)
	}
	s.devices[deviceID] = user
	return nil
}

// BindHome registers a fleet home as owned by an account (tenant
// provisioning — the fleet analogue of BindDevice). The fleet endpoints
// reject authorize items and context pushes naming homes the session's
// account does not own, so a home must be bound before any gateway can
// speak for it; rebinding to the same account is idempotent.
func (s *Server) BindHome(homeID, user string) error {
	if _, ok := s.cfg.Users[user]; !ok {
		return fmt.Errorf("cloud: unknown user %q", user)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, bound := s.homes[homeID]; bound && owner != user {
		return fmt.Errorf("cloud: home %q already bound to another account", homeID)
	}
	s.homes[homeID] = user
	return nil
}

// historyCap bounds the command history: only the newest historyCap
// submissions are retained, so no account can grow server memory one POST
// at a time.
const historyCap = 4096

// retained is the newest historyCap entries, oldest first. The caller
// holds s.mu.
func (s *Server) retained() []HistoryEntry {
	return s.history[max(0, len(s.history)-historyCap):]
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSONBody decodes the first JSON value of a login or command body
// into v. The body is bounded like one fleet item: reading past
// maxFleetItemBytes answers 413, any other decode failure 400. It reports
// whether the body was decoded.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFleetItemBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeTooLarge(w, maxFleetItemBytes)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON body"})
	}
	return false
}

type loginRequest struct {
	User   string `json:"user"`
	Secret string `json:"secret"`
}

type loginResponse struct {
	Session string `json:"session"`
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var req loginRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	// Brute-force lockout: too many consecutive failures freeze the
	// account for the lockout window.
	s.mu.Lock()
	if lockedAt, locked := s.lockedAt[req.User]; locked {
		if s.cfg.Now().Sub(lockedAt) < lockoutWindow {
			s.mu.Unlock()
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "account locked: too many failed logins"})
			return
		}
		delete(s.lockedAt, req.User)
		s.failures[req.User] = 0
	}
	s.mu.Unlock()

	secret, ok := s.cfg.Users[req.User]
	if !ok || subtle.ConstantTimeCompare([]byte(secret), []byte(req.Secret)) != 1 {
		s.mu.Lock()
		if ok { // only known accounts accumulate lockout state
			s.failures[req.User]++
			if s.failures[req.User] >= maxLoginFailures {
				s.lockedAt[req.User] = s.cfg.Now()
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "bad credentials"})
		return
	}
	s.mu.Lock()
	s.failures[req.User] = 0
	s.mu.Unlock()
	token, err := newToken()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "token generation failed"})
		return
	}
	s.mu.Lock()
	tokens := s.logins[req.User]
	if len(tokens) == maxSessions {
		delete(s.sessions, tokens[0])
		tokens = tokens[:copy(tokens, tokens[1:])]
	}
	s.logins[req.User] = append(tokens, token)
	s.sessions[token] = req.User
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, loginResponse{Session: token})
}

func newToken() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(buf[:]), nil
}

// sessionFor is every logged-in endpoint's gate: it authenticates the
// request by its "Session <token>" header and then checks its method, so
// an unauthenticated caller gets 401 before any 405 and learns nothing
// about the endpoint. It returns the session's user, or "" once it has
// written the error.
func (s *Server) sessionFor(w http.ResponseWriter, r *http.Request, method string) string {
	var user string
	if token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Session "); ok {
		s.mu.Lock()
		user = s.sessions[token]
		s.mu.Unlock()
	}
	switch {
	case user == "":
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "login required"})
	case r.Method != method:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: method + " only"})
		return ""
	}
	return user
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	user := s.sessionFor(w, r, http.MethodGet)
	if user == "" {
		return
	}
	s.mu.Lock()
	var ids []string
	for id, owner := range s.devices {
		if owner == user {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	slices.Sort(ids)
	writeJSON(w, http.StatusOK, ids)
}

type commandRequest struct {
	Op       string         `json:"op"`
	DeviceID string         `json:"device_id"`
	Args     map[string]any `json:"args,omitempty"`
}

type commandResponse struct {
	Outcome string `json:"outcome"`
	Detail  string `json:"detail,omitempty"`
}

func (s *Server) handleCommand(w http.ResponseWriter, r *http.Request) {
	user := s.sessionFor(w, r, http.MethodPost)
	if user == "" {
		return
	}
	var req commandRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	// Verification step 1: the opcode must exist.
	in, err := s.cfg.Registry.Build(req.Op, req.DeviceID, instr.OriginUser, req.Args)
	if err != nil {
		s.record(user, req, OutcomeRejected, err.Error())
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Verification step 2: the device must be bound to this account.
	s.mu.Lock()
	owner := s.devices[req.DeviceID]
	s.mu.Unlock()
	if owner != user {
		s.record(user, req, OutcomeRejected, "device not bound to this account")
		writeJSON(w, http.StatusForbidden, errorBody{Error: "device not bound to this account"})
		return
	}
	// Verification step 3: the IDS. Authorization is bounded by the
	// request context plus ContextTimeout; an unavailable context is 503 —
	// never a silent pass — and an open breaker additionally tells the
	// client when to come back via Retry-After.
	if s.cfg.Authorize != nil {
		authCtx, cancel := context.WithTimeout(r.Context(), s.cfg.ContextTimeout)
		dec, err := s.cfg.Authorize(authCtx, in)
		cancel()
		if err != nil {
			s.record(user, req, OutcomeFailed, "context unavailable: "+err.Error())
			var open *resilience.OpenError
			if errors.As(err, &open) {
				secs := int(open.RetryAfter / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "sensor context unavailable"})
			return
		}
		if !dec.Allowed {
			reason := "ids: " + dec.Reason
			s.record(user, req, OutcomeRejected, reason)
			writeJSON(w, http.StatusForbidden, errorBody{Error: reason})
			return
		}
	}
	// Forward.
	if err := s.cfg.Forward(in); err != nil {
		s.record(user, req, OutcomeFailed, err.Error())
		writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
		return
	}
	s.record(user, req, OutcomeForwarded, "")
	writeJSON(w, http.StatusOK, commandResponse{Outcome: OutcomeForwarded})
}

func (s *Server) record(user string, req commandRequest, outcome, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) == 2*historyCap {
		// Trim in bulk: copying the newest entries down once per
		// historyCap appends keeps recording amortised O(1).
		s.history = s.history[:copy(s.history, s.retained())]
	}
	s.history = append(s.history, HistoryEntry{
		User: user, Op: req.Op, DeviceID: req.DeviceID,
		Outcome: outcome, Detail: detail, At: s.cfg.Now(),
	})
}

// healthzBody is the /healthz response document.
type healthzBody struct {
	Status  string                    `json:"status"` // ok | degraded
	Sources []resilience.SourceHealth `json:"sources,omitempty"`
	Trust   []trust.SourceTrust       `json:"trust,omitempty"`
}

// handleHealthz reports per-source collection health and sensor trust:
// 200 "ok" while every required sensor source is serving AND at or above
// its trust threshold, 503 "degraded" otherwise. The endpoint is
// unauthenticated, as load balancers expect.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	body := healthzBody{Status: "ok"}
	status := http.StatusOK
	if s.cfg.Health != nil {
		body.Sources = s.cfg.Health.Snapshot()
		if !s.cfg.Health.Healthy() {
			body.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	if s.cfg.Trust != nil {
		body.Trust = s.cfg.Trust.Report()
		if s.cfg.Trust.LowTrustRequired() {
			body.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, body)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	user := s.sessionFor(w, r, http.MethodGet)
	if user == "" {
		return
	}
	s.mu.Lock()
	var out []HistoryEntry
	for _, e := range s.retained() {
		if e.User == user {
			out = append(out, e)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
