// Package peeves implements a physical-event-verification baseline in the
// style of Birnbach & Eberz's Peeves (the paper's closest related work,
// §VII): a claimed sensor event (say, a smoke alarm) is verified *after it
// is reported* by checking whether the correlated sensors look the way they
// do during genuine occurrences of that event. The paper's criticism — and
// the reason its own framework intercepts *before execution* — is that this
// style of detection fires only after the attack event has already driven
// the automation. The eval package quantifies that difference.
package peeves

import (
	"fmt"
	"math"

	"iotsid/internal/sensor"
)

// featureStats summarises one correlate's behaviour during genuine events.
type featureStats struct {
	Numeric bool               `json:"numeric"`
	Min     float64            `json:"min,omitempty"`
	Max     float64            `json:"max,omitempty"`
	Freq    map[string]float64 `json:"freq,omitempty"` // label/bool frequency
}

// Verifier checks claimed occurrences of one boolean event feature.
type Verifier struct {
	event      sensor.Feature
	correlates []sensor.Feature
	stats      map[sensor.Feature]featureStats
	// Margin widens the learned numeric envelope by this fraction of its
	// range on each side (default 0.05).
	Margin float64
	// MinFreq is the minimum training frequency for a discrete correlate
	// value to count as consistent (default 0.05).
	MinFreq float64
	// Threshold is the minimum fraction of consistent correlates for the
	// event to verify as genuine (default 1: every correlate must sit
	// inside its genuine envelope).
	Threshold float64
}

// Train fits a verifier for an event from snapshots of genuine occurrences
// (every snapshot must have the event feature true) using the given
// correlated features.
func Train(event sensor.Feature, correlates []sensor.Feature, genuine []sensor.Snapshot) (*Verifier, error) {
	if len(genuine) == 0 {
		return nil, fmt.Errorf("peeves: no genuine occurrences to train on")
	}
	if len(correlates) == 0 {
		return nil, fmt.Errorf("peeves: no correlates given")
	}
	for i, s := range genuine {
		if !s.Bool(event) {
			return nil, fmt.Errorf("peeves: training snapshot %d does not contain the event %q", i, event)
		}
	}
	v := &Verifier{
		event:      event,
		correlates: append([]sensor.Feature(nil), correlates...),
		stats:      make(map[sensor.Feature]featureStats, len(correlates)),
		Margin:     0.05,
		MinFreq:    0.05,
		Threshold:  1,
	}
	for _, f := range correlates {
		desc, ok := sensor.Describe(f)
		if !ok {
			return nil, fmt.Errorf("peeves: unknown correlate %q", f)
		}
		if desc.Type == sensor.TypeNumber {
			lo, hi := math.Inf(1), math.Inf(-1)
			n := 0
			for _, s := range genuine {
				if x, ok := s.Number(f); ok {
					lo = math.Min(lo, x)
					hi = math.Max(hi, x)
					n++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("peeves: correlate %q absent from training scenes", f)
			}
			v.stats[f] = featureStats{Numeric: true, Min: lo, Max: hi}
			continue
		}
		freq := make(map[string]float64)
		n := 0
		for _, s := range genuine {
			val, ok := s.Get(f)
			if !ok {
				continue
			}
			freq[val.String()]++
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("peeves: correlate %q absent from training scenes", f)
		}
		for k := range freq {
			freq[k] /= float64(n)
		}
		v.stats[f] = featureStats{Freq: freq}
	}
	return v, nil
}

// Verify scores a claimed occurrence: the fraction of correlates consistent
// with genuine behaviour, and whether it clears the threshold. The snapshot
// must actually contain the claimed event.
func (v *Verifier) Verify(snap sensor.Snapshot) (score float64, genuine bool, err error) {
	if !snap.Bool(v.event) {
		return 0, false, fmt.Errorf("peeves: snapshot does not claim event %q", v.event)
	}
	consistent, checked := 0, 0
	for _, f := range v.correlates {
		st := v.stats[f]
		val, ok := snap.Get(f)
		if !ok {
			continue // missing correlate: neither confirms nor refutes
		}
		checked++
		if st.Numeric {
			x, isNum := val.Number()
			if !isNum {
				continue
			}
			pad := (st.Max - st.Min) * v.Margin
			if x >= st.Min-pad && x <= st.Max+pad {
				consistent++
			}
			continue
		}
		if st.Freq[val.String()] >= v.MinFreq {
			consistent++
		}
	}
	if checked == 0 {
		return 0, false, fmt.Errorf("peeves: no correlates present in the snapshot")
	}
	score = float64(consistent) / float64(checked)
	return score, score >= v.Threshold, nil
}
