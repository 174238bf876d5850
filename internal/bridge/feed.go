package bridge

import (
	"context"
	"fmt"

	"iotsid/internal/epoch"
	"iotsid/internal/smartthings"
)

// STPoller adapts the poll-only SmartThings surface to the push world:
// each Poll fetches the bridge's entity states once, folds them into a
// canonical snapshot and pushes it as one delta. It owns no timer — the
// caller decides the cadence, which doubles as the source's push interval
// against its FreshFor budget.
type STPoller struct {
	client *smartthings.Client
	store  *epoch.Store
	source string
}

// NewSTPoller binds a poller pushing into the named store source.
func NewSTPoller(client *smartthings.Client, store *epoch.Store, source string) (*STPoller, error) {
	if client == nil || store == nil || source == "" {
		return nil, fmt.Errorf("bridge: st poller needs a client, a store and a source name")
	}
	return &STPoller{client: client, store: store, source: source}, nil
}

// Poll performs one fetch-decode-push round trip and returns how many
// features the pushed delta carried.
func (p *STPoller) Poll(ctx context.Context) (int, error) {
	entities, err := p.client.States(ctx)
	if err != nil {
		return 0, fmt.Errorf("bridge: st poll: %w", err)
	}
	snap, err := STDecodeStates(entities)
	if err != nil {
		return 0, fmt.Errorf("bridge: st poll: %w", err)
	}
	if err := p.store.Push(p.source, snap); err != nil {
		return 0, err
	}
	return snap.Len(), nil
}
