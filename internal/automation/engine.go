package automation

import (
	"fmt"
	"sync"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// Executor carries a triggered action to the device layer.
type Executor func(instr.Instruction) error

// Interceptor sits between trigger and execution — this is where the paper's
// IDS hooks in. It sees the instruction together with the sensor context in
// which it fired and decides whether it may run.
type Interceptor func(in instr.Instruction, ctx sensor.Snapshot) (allow bool, reason string)

// Event records one trigger firing and its outcome.
type Event struct {
	Rule     string    `json:"rule"`
	Op       string    `json:"op"`
	DeviceID string    `json:"device_id"`
	Allowed  bool      `json:"allowed"`
	Reason   string    `json:"reason,omitempty"`
	Err      string    `json:"err,omitempty"`
	At       time.Time `json:"at"`
}

// Engine evaluates the rule set against successive sensor snapshots and
// dispatches triggers. A plain rule fires when its condition goes
// false→true between consecutive snapshots (level-triggered rules would
// re-fire every evaluation); a FOR rule fires once its condition has held
// continuously for its dwell, once per continuous-true episode.
type Engine struct {
	registry *instr.Registry

	mu        sync.Mutex
	rules     []Rule
	ruleNames map[string]bool
	lastState map[string]bool
	condSince map[string]time.Time
	firedHold map[string]bool
	exec      Executor
	intercept Interceptor
}

// NewEngine builds an engine dispatching through exec. The interceptor is
// optional; without one every trigger is executed.
func NewEngine(reg *instr.Registry, exec Executor) *Engine {
	return &Engine{
		registry:  reg,
		ruleNames: make(map[string]bool),
		lastState: make(map[string]bool),
		condSince: make(map[string]time.Time),
		firedHold: make(map[string]bool),
		exec:      exec,
	}
}

// SetInterceptor installs (or clears) the execution gate.
func (e *Engine) SetInterceptor(i Interceptor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.intercept = i
}

// AddRule registers a validated rule. Rule names must be unique and
// non-empty.
func (e *Engine) AddRule(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("automation: rule with empty name")
	}
	if r.Condition == nil {
		return fmt.Errorf("automation: rule %q has no condition", r.Name)
	}
	if e.registry != nil {
		if _, ok := e.registry.Lookup(r.Action.Op); !ok {
			return fmt.Errorf("automation: rule %q uses unknown opcode %q", r.Name, r.Action.Op)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ruleNames[r.Name] {
		return fmt.Errorf("automation: duplicate rule name %q", r.Name)
	}
	e.ruleNames[r.Name] = true
	e.rules = append(e.rules, r)
	return nil
}

// AddRuleText parses and registers a DSL rule.
func (e *Engine) AddRuleText(name, src string) error {
	r, err := NewParser(e.registry).ParseRule(name, src)
	if err != nil {
		return err
	}
	return e.AddRule(r)
}

// Evaluate runs every rule against the snapshot and dispatches triggers:
// plain rules fire on the rising edge of their condition; FOR rules fire
// once their condition has held continuously for the dwell, once per
// continuous-true episode. It returns the events produced by this
// evaluation. A rule whose condition errors is skipped and reported as an
// event with Err set — one broken rule must not take the platform down.
func (e *Engine) Evaluate(snap sensor.Snapshot) []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fired []Event
	for _, r := range e.rules {
		state, err := r.Condition.Eval(snap)
		if err != nil {
			ev := Event{Rule: r.Name, Op: r.Action.Op, DeviceID: r.Action.DeviceID,
				Err: err.Error(), At: snap.At}
			fired = append(fired, ev)
			continue
		}
		was := e.lastState[r.Name]
		e.lastState[r.Name] = state
		if !state {
			delete(e.condSince, r.Name)
			delete(e.firedHold, r.Name)
			continue
		}
		if r.Dwell <= 0 {
			if was {
				continue // no rising edge
			}
			ev := e.dispatchLocked(r, snap)
			fired = append(fired, ev)
			continue
		}
		// Dwell rule: start (or continue) the hold timer.
		if !was {
			e.condSince[r.Name] = snap.At
		}
		since, ok := e.condSince[r.Name]
		if !ok {
			e.condSince[r.Name] = snap.At
			since = snap.At
		}
		if e.firedHold[r.Name] || snap.At.Sub(since) < r.Dwell {
			continue
		}
		e.firedHold[r.Name] = true
		ev := e.dispatchLocked(r, snap)
		fired = append(fired, ev)
	}
	return fired
}

func (e *Engine) dispatchLocked(r Rule, snap sensor.Snapshot) Event {
	ev := Event{Rule: r.Name, Op: r.Action.Op, DeviceID: r.Action.DeviceID, At: snap.At}
	var in instr.Instruction
	var err error
	if e.registry != nil {
		in, err = e.registry.Build(r.Action.Op, r.Action.DeviceID, instr.OriginAutomation, r.Action.Args)
		if err != nil {
			ev.Err = err.Error()
			return ev
		}
	} else {
		in = instr.Instruction{Op: r.Action.Op, DeviceID: r.Action.DeviceID,
			Args: r.Action.Args, Origin: instr.OriginAutomation}
	}
	if e.intercept != nil {
		allow, reason := e.intercept(in, snap)
		ev.Reason = reason
		if !allow {
			ev.Allowed = false
			return ev
		}
	}
	ev.Allowed = true
	if e.exec != nil {
		if err := e.exec(in); err != nil {
			ev.Err = err.Error()
		}
	}
	return ev
}

// ResetEdges clears the edge-detection and dwell state so every currently-
// true rule can fire again on the next evaluation.
func (e *Engine) ResetEdges() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastState = make(map[string]bool)
	e.condSince = make(map[string]time.Time)
	e.firedHold = make(map[string]bool)
}
