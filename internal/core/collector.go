package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"iotsid/internal/bridge"
	"iotsid/internal/home"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
	"iotsid/internal/smartthings"
)

// Collector is the sensor data collector (§IV-B): it gathers the real-time
// readings of every relevant sensor and returns them as one unified
// snapshot. The context carries the caller's deadline and cancellation —
// collection is a network round trip on the vendor paths, and a decision
// point cannot wait forever for it.
type Collector interface {
	Collect(ctx context.Context) (sensor.Snapshot, error)
}

// CollectorFunc adapts a plain collect function to the Collector interface
// (closures in tests and benchmarks, constant contexts, …).
type CollectorFunc func(ctx context.Context) (sensor.Snapshot, error)

// Collect implements Collector.
func (f CollectorFunc) Collect(ctx context.Context) (sensor.Snapshot, error) { return f(ctx) }

// SimCollector reads the home simulator directly — the zero-network path
// used by training, examples and benchmarks.
type SimCollector struct {
	Env *home.Environment
}

var _ Collector = (*SimCollector)(nil)

// Collect implements Collector.
func (c *SimCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	if c.Env == nil {
		return sensor.Snapshot{}, fmt.Errorf("core: sim collector has no environment")
	}
	if err := ctx.Err(); err != nil {
		return sensor.Snapshot{}, err
	}
	return c.Env.Snapshot(), nil
}

// MiioCollector gathers sensor data over the encrypted Xiaomi-style UDP
// protocol (§IV-B-1): one get_prop round trip for the full property list,
// then normalisation into the unified JSON snapshot form.
type MiioCollector struct {
	Client *miio.Client
	// Props lists the vendor property names to poll; defaults to the full
	// bridge table.
	Props []string
	// Normalizer decodes the vendor encodings; defaults to the bridge's.
	Normalizer *sensor.Normalizer
	// Now stamps the snapshot; defaults to time.Now.
	Now func() time.Time
}

var _ Collector = (*MiioCollector)(nil)

// Collect implements Collector. The context bounds the whole get_prop
// round trip, retries included.
func (c *MiioCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	if c.Client == nil {
		return sensor.Snapshot{}, fmt.Errorf("core: miio collector has no client")
	}
	props := c.Props
	if props == nil {
		props = bridge.XiaomiPropNames()
	}
	norm := c.Normalizer
	if norm == nil {
		norm = bridge.XiaomiNormalizer()
	}
	now := c.Now
	if now == nil {
		now = time.Now
	}
	raw, err := c.Client.CallContext(ctx, "get_prop", props)
	if err != nil {
		return sensor.Snapshot{}, fmt.Errorf("core: miio get_prop: %w", err)
	}
	var values []any
	if err := json.Unmarshal(raw, &values); err != nil {
		return sensor.Snapshot{}, fmt.Errorf("core: miio get_prop result: %w", err)
	}
	if len(values) != len(props) {
		return sensor.Snapshot{}, fmt.Errorf("core: miio returned %d values for %d props", len(values), len(props))
	}
	payload := make(map[string]any, len(props))
	for i, name := range props {
		payload[name] = values[i]
	}
	snap, err := norm.Normalize(payload, now())
	if err != nil {
		return sensor.Snapshot{}, fmt.Errorf("core: miio normalize: %w", err)
	}
	return snap, nil
}

// STCollector gathers sensor data through the Home-Assistant-style REST
// bridge (§IV-B-2): GET /api/states with the long-lived token, then decode
// the entity documents.
type STCollector struct {
	Client *smartthings.Client
}

var _ Collector = (*STCollector)(nil)

// Collect implements Collector.
func (c *STCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	if c.Client == nil {
		return sensor.Snapshot{}, fmt.Errorf("core: smartthings collector has no client")
	}
	entities, err := c.Client.States(ctx)
	if err != nil {
		return sensor.Snapshot{}, fmt.Errorf("core: smartthings states: %w", err)
	}
	snap, err := bridge.STDecodeStates(entities)
	if err != nil {
		return sensor.Snapshot{}, fmt.Errorf("core: smartthings decode: %w", err)
	}
	return snap, nil
}
