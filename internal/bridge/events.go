package bridge

import (
	"fmt"

	"iotsid/internal/home"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
)

// EventPump feeds the gateway's developer-mode side channel: on every tick
// it diffs the home's sensor context against the previous tick and pushes
// one report per changed feature, in the vendor's encoding — exactly the
// report stream the paper's collector listened to.
type EventPump struct {
	env    *home.Environment
	dev    *miio.DevMode
	prev   sensor.Snapshot
	primed bool
}

// NewEventPump binds a pump to an environment and a developer-mode channel.
func NewEventPump(env *home.Environment, dev *miio.DevMode) (*EventPump, error) {
	if env == nil || dev == nil {
		return nil, fmt.Errorf("bridge: event pump needs an environment and a devmode channel")
	}
	return &EventPump{env: env, dev: dev}, nil
}

// Tick pushes reports for every feature whose value changed since the last
// tick and returns how many were pushed. The first tick only establishes
// the baseline. The baseline advances per pushed feature, not wholesale: a
// push failure mid-batch leaves the remaining changed features still
// marked dirty, so they are re-pushed on the next tick instead of being
// silently dropped.
func (p *EventPump) Tick() (int, error) {
	snap := p.env.Snapshot()
	if !p.primed {
		p.prev = snap
		p.primed = true
		return 0, nil
	}
	pushed := 0
	for _, prop := range xiaomiProps {
		cur, ok := snap.Get(prop.feature)
		if !ok {
			continue
		}
		old, hadOld := p.prev.Get(prop.feature)
		if hadOld && cur.Equal(old) {
			continue
		}
		data := map[string]any{prop.name: prop.encode(cur)}
		if err := p.dev.Push("lumi.sensor_"+prop.name, prop.feature.String(), data); err != nil {
			return pushed, fmt.Errorf("bridge: push %s: %w", prop.name, err)
		}
		p.prev.Set(prop.feature, cur)
		pushed++
	}
	p.prev.At = snap.At
	return pushed, nil
}
