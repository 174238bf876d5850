package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// Decision is the command determiner's verdict on one instruction. It is
// also the decision ring's record: besides the verdict it carries the
// evidence Explain renders on read — the judging entry and the leaf its
// compiled tree reached, or the fail-closed missing-source text — so
// judging never builds a string nobody reads.
type Decision struct {
	Allowed   bool `json:"allowed"`
	Sensitive bool `json:"sensitive"`
	// Outcome is the counter row the decision counts in; State is the
	// context state it was decided under.
	Outcome Outcome      `json:"-"`
	State   ContextState `json:"-"`
	leaf    int32
	Model   dataset.Model `json:"model,omitempty"`
	Reason  string        `json:"reason"`
	entry   *Entry        // the tree that judged, nil when no tree did
	missing *string       // fail-closed missing-source text, cold path only
}

// MarshalJSON encodes the verdict with its explanation rendered.
func (d Decision) MarshalJSON() ([]byte, error) {
	type verdict Decision // the fields without this method
	return json.Marshal(struct {
		verdict
		Explanation string `json:"explanation,omitempty"`
	}{verdict(d), d.Explain()})
}

// Explain renders why the decision went the way it did: the decision path
// the context tree took (which sensor conditions were tested and how they
// resolved), the missing sources of a fail-closed decision, or "" when
// neither applies.
func (d Decision) Explain() string {
	switch {
	case d.missing != nil:
		return *d.missing
	case d.entry != nil:
		s, _ := d.entry.Tree.ExplainLeaf(int(d.leaf))
		return s
	}
	return ""
}

// opReasons holds the interned reason strings for one opcode. The judge
// hot path returns Decisions by value; before interning, the fmt.Sprintf
// building each Reason was the last allocation on the Authorize fast path.
// Opcodes come from the instruction registry, so the table's cardinality
// is bounded; reasonCap is a backstop against a caller judging raw,
// unregistered input.
type opReasons struct {
	notSensitive string
	allowed      string
	rejected     string
}

// reasonCap bounds the interning table; past it, reasons fall back to
// fmt.Sprintf (correct, just no longer allocation-free).
const reasonCap = 4096

// ModelStore is the judger's view of wherever the trained per-device-model
// entries live. Two implementations exist: the single-home FeatureMemory
// (RWMutex over its entry map) and the fleet's copy-on-write ModelRegistry
// (one atomic load, shared by every tenant). Entry must be safe for
// concurrent use and allocation-free.
type ModelStore interface {
	Entry(m dataset.Model) (*Entry, bool)
}

// Judger is the command determiner (§IV-D): sensitive instructions are
// allowed only when the trained context model confirms the live sensor
// snapshot matches a legal activity scene.
type Judger struct {
	detector *Detector
	memory   ModelStore

	// Reason interning: copy-on-write maps read via one atomic load on the
	// hot path; the mutex only serialises writers on first sight of an op
	// or category.
	mu         sync.Mutex
	reasons    atomic.Pointer[map[string]*opReasons]
	outOfScope atomic.Pointer[map[instr.Category]string]
}

// NewJudger wires the determiner over any model store — the single-home
// FeatureMemory or the fleet's shared registry.
func NewJudger(d *Detector, store ModelStore) (*Judger, error) {
	if d == nil {
		return nil, fmt.Errorf("core: judger needs a detector")
	}
	if store == nil {
		return nil, fmt.Errorf("core: judger needs a model store")
	}
	return &Judger{detector: d, memory: store}, nil
}

// reasonsFor interns the per-op reason strings on first sight and serves
// them allocation-free afterwards.
func (j *Judger) reasonsFor(op string) *opReasons {
	if m := j.reasons.Load(); m != nil {
		if r, ok := (*m)[op]; ok {
			return r
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cur := j.reasons.Load()
	if cur != nil {
		if r, ok := (*cur)[op]; ok {
			return r
		}
	}
	r := &opReasons{
		notSensitive: fmt.Sprintf("%s is not a sensitive instruction", op),
		allowed:      fmt.Sprintf("%s allowed: sensor context matches a legal activity scene", op),
		rejected:     fmt.Sprintf("%s rejected: sensor context does not match a legal activity scene", op),
	}
	var n int
	if cur != nil {
		n = len(*cur)
	}
	if n >= reasonCap {
		return r // table full: serve without storing
	}
	next := make(map[string]*opReasons, n+1)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[op] = r
	j.reasons.Store(&next)
	return r
}

// outOfScopeReason interns the per-category out-of-scope reason.
func (j *Judger) outOfScopeReason(c instr.Category) string {
	if m := j.outOfScope.Load(); m != nil {
		if r, ok := (*m)[c]; ok {
			return r
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cur := j.outOfScope.Load()
	if cur != nil {
		if r, ok := (*cur)[c]; ok {
			return r
		}
	}
	r := fmt.Sprintf("category %s is outside the context-model scope", c)
	var n int
	if cur != nil {
		n = len(*cur)
	}
	next := make(map[instr.Category]string, n+1)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[c] = r
	j.outOfScope.Store(&next)
	return r
}

// Judge decides one instruction against a sensor context. The steady-state
// allow path allocates nothing: reasons are interned per opcode, the
// feature vector is pooled, and the compiled tree walks a flat node slice.
//
//iot:hotpath
//iot:failclosed
func (j *Judger) Judge(in instr.Instruction, ctx sensor.Snapshot) (Decision, error) {
	if !j.detector.IsSensitive(in) {
		return Decision{
			Allowed: true,
			Reason:  j.reasonsFor(in.Op).notSensitive, //iot:allow hotcall reasons intern once per opcode; steady state is a lock-free map hit
		}, nil
	}
	m, ok := dataset.ModelForCategory(in.Category)
	if !ok {
		// Sensitive categories outside the evaluated six (alarms are
		// triggers, cameras get the warning linkage, locks guard
		// themselves — §V's Door/Alarm/Camera discussion).
		return Decision{
			Allowed:   true,
			Sensitive: true,
			Reason:    j.outOfScopeReason(in.Category), //iot:allow hotcall out-of-scope reasons intern once per category; steady state is a lock-free map hit //iot:allow failclosed the call returns the per-category interned string, never a fresh one
		}, nil
	}
	// One compiled walk answers allow/deny and leaves the leaf as the
	// evidence Explain renders when someone reads the decision.
	e, leaf, err := judgeLeaf(j.memory, m, ctx)
	if err != nil {
		return Decision{}, err
	}
	r := j.reasonsFor(in.Op) //iot:allow hotcall reasons intern once per opcode; steady state is a lock-free map hit
	if e.compiled.Label(leaf) != 1 {
		return Decision{Sensitive: true, Outcome: OutcomeReject, leaf: leaf, Model: m, Reason: r.rejected, entry: e}, nil
	}
	return Decision{Allowed: true, Sensitive: true, leaf: leaf, Model: m, Reason: r.allowed, entry: e}, nil
}
