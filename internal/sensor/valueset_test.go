package sensor

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"iotsid/internal/jsonwire"
)

// snapshotOf builds a snapshot stamped at at from a map of values.
func snapshotOf(at time.Time, vals map[Feature]Value) Snapshot {
	s := NewSnapshot(at)
	for f, v := range vals {
		s.Set(f, v)
	}
	return s
}

// valuesOf collects a snapshot's values into a map.
func valuesOf(s Snapshot) map[Feature]Value {
	out := make(map[Feature]Value, s.Len())
	s.Range(func(f Feature, v Value) bool {
		out[f] = v
		return true
	})
	return out
}

// sameValues reports whether a and b carry equal values for the same
// features.
func sameValues(a, b Snapshot) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Range(func(f Feature, v Value) bool {
		w, ok := b.Get(f)
		same = ok && v.Equal(w)
		return same
	})
	return same
}

// requireSorted fails unless s's entries are strictly sorted by feature,
// which is also what keeps a feature from appearing twice.
func requireSorted(t *testing.T, s Snapshot) {
	t.Helper()
	es := s.entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].f >= es[i].f {
			t.Fatalf("entries out of order at %d: %q then %q", i, es[i-1].f, es[i].f)
		}
	}
}

// TestValueAndSnapshotSizes pins the layout the value set is built on: a
// Value packs its type tag, boolean and label ordinal into one word, an
// entry packs the feature's ordinal into that word too, so it is no larger
// than a Value, and a snapshot is its time and one pointer.
func TestValueAndSnapshotSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Value", unsafe.Sizeof(Value{}), 16},
		{"entry", unsafe.Sizeof(entry{}), 16},
		{"Snapshot", unsafe.Sizeof(Snapshot{}), 32},
		{"MaxValueBytes", MaxValueBytes, 360},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestValueAndEntryHaveNoPointers walks the Value and entry types: with a
// label a one-byte ordinal, neither holds a pointer, so value storage,
// scene slots, fleet views and trust state are allocated noscan and the
// garbage collector never walks them.
func TestValueAndEntryHaveNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: a value must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Value", reflect.TypeOf(Value{}))
	walk("entry", reflect.TypeOf(entry{}))
}

// TestSnapshotCopiesShareValues pins the sharing rule the scene builders
// rely on: a copy sees a Set or Delete made through the original, and a
// Clone does not.
func TestSnapshotCopiesShareValues(t *testing.T) {
	s := NewSnapshot(testTime)
	cp := s
	clone := s.Clone()
	s.Set(FeatSmoke, Bool(true))
	cp.Set(FeatMotion, Bool(true))
	if !cp.Bool(FeatSmoke) || !s.Bool(FeatMotion) || s.Len() != 2 {
		t.Fatalf("copies do not share values: %v and %v", valuesOf(s), valuesOf(cp))
	}
	cp.Delete(FeatSmoke)
	if _, ok := s.Get(FeatSmoke); ok {
		t.Fatal("a Delete through a copy is not seen through the original")
	}
	if clone.Len() != 0 {
		t.Fatalf("clone sees its original's values: %v", valuesOf(clone))
	}
}

// TestSnapshotSetValuesInPlace pins what the trust engine and the fleet's
// home views rely on: SetValues copies another snapshot's values into the
// receiver's own entries, without allocating when they have room, without
// sharing them with the source and with the entries past fewer values
// zeroed.
func TestSnapshotSetValuesInPlace(t *testing.T) {
	var last Snapshot
	last.At = testTime
	src := windowScene()
	last.SetValues(src)
	if !sameValues(last, src) || !last.At.Equal(testTime) {
		t.Fatalf("SetValues = %v at %v", valuesOf(last), last.At)
	}
	src.Set(FeatSmoke, Bool(true))
	if last.Bool(FeatSmoke) {
		t.Fatal("SetValues shares the source's values")
	}
	small := NewSnapshot(testTime)
	small.Set(FeatMotion, Bool(false))
	last.SetValues(small)
	if !sameValues(last, small) {
		t.Fatalf("SetValues to fewer features = %v", valuesOf(last))
	}
	requireTailZero(t, last)
	alias := last
	last.SetValues(alias)
	if !sameValues(last, small) {
		t.Fatalf("SetValues from a copy sharing its values = %v", valuesOf(last))
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { last.SetValues(src) }); allocs != 0 {
		t.Fatalf("SetValues into entries with room allocates %.1f/op, want 0", allocs)
	}
}

// diffFeatures is the differential test's key space: the first and last
// ordinals and features of every type between them.
var diffFeatures = []Feature{
	FeatAirQuality, FeatSmoke, FeatGas, FeatMotion, FeatHour, FeatWeather,
	FeatDoorLock, FeatTimeBucket, FeatWindowOpen,
}

// diffUnknown are names outside the vocabulary that the documents decoded
// by the differential test mix in: names that sort around and between
// vocabulary names, and names the codec must unescape.
var diffUnknown = []string{"", "a", "z", "smoke_", "Smoke", "é", "k\n", "<k>"}

// diffValue draws a finite value of f's type, and of its domain for a
// label, an absent one now and then.
func diffValue(rng *rand.Rand, f Feature) Value {
	d := MustDescribe(f)
	switch {
	case rng.Intn(7) == 0:
		return Value{}
	case d.Type == TypeBool:
		return Bool(rng.Intn(2) == 0)
	case d.Type == TypeNumber:
		return Number(float64(rng.Intn(2001)-1000) / 8)
	default:
		return Label(d.Labels[rng.Intn(len(d.Labels))])
	}
}

// diffOutside are wire values the decoded documents give features that do
// not admit them: the first two have no feature of the key space's label
// features, the first and third none of its bool features, and "ajar" and
// "locked" none of its number features.
var diffOutside = []string{`true`, `2.5`, `"ajar"`, `"locked"`, `"snow"`}

// admitsJSON reports whether f admits the wire value raw, by its
// descriptor.
func admitsJSON(f Feature, raw string) bool {
	d := MustDescribe(f)
	switch {
	case raw == "true":
		return d.Type == TypeBool
	case raw[0] != '"':
		return d.Type == TypeNumber
	}
	l, ok := ParseLabel(f, raw[1:len(raw)-1])
	return ok && d.Type == TypeLabel && slices.Contains(d.Labels, l)
}

// modelSnapshot is a Snapshot next to its reference model: a plain map
// behind a pointer, so that copies share it as copies of a snapshot share
// its values. ref is nil while the snapshot has no value set (the zero
// Snapshot), whose copies do not share a later Set.
type modelSnapshot struct {
	s   Snapshot
	ref *map[Feature]Value
}

// check holds the snapshot to its model through every read accessor.
func (m modelSnapshot) check(t *testing.T, step int) {
	t.Helper()
	var want map[Feature]Value
	if m.ref != nil {
		want = *m.ref
	}
	requireSorted(t, m.s)
	if m.s.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d (%v vs %v)", step, m.s.Len(), len(want), valuesOf(m.s), want)
	}
	for _, f := range diffFeatures {
		got, ok := m.s.Get(f)
		w, wok := want[f]
		if ok != wok || !sameValue(got, w) {
			t.Fatalf("step %d: Get(%q) = %v, %v; want %v, %v", step, f, got, ok, w, wok)
		}
	}
	keys := make([]Feature, 0, len(want))
	for f := range want {
		keys = append(keys, f)
	}
	slices.Sort(keys)
	if got := m.s.Features(); !slices.Equal(got, keys) {
		t.Fatalf("step %d: Features = %q, want %q", step, got, keys)
	}
	i := 0
	m.s.Range(func(f Feature, v Value) bool {
		if f != keys[i] || !sameValue(v, want[f]) {
			t.Fatalf("step %d: Range item %d = %q:%v, want %q:%v", step, i, f, v, keys[i], want[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("step %d: Range visited %d of %d", step, i, len(keys))
	}
	sought := slices.Clone(diffFeatures)
	slices.Sort(sought)
	cur := m.s.Cursor()
	for _, f := range sought {
		got, ok := cur.Seek(f)
		w, wok := want[f]
		if ok != wok || !sameValue(got, w) {
			t.Fatalf("step %d: Cursor.Seek(%q) = %v, %v; want %v, %v", step, f, got, ok, w, wok)
		}
	}
	if len(keys) > 1 {
		n := 0
		m.s.Range(func(Feature, Value) bool { n++; return false })
		if n != 1 {
			t.Fatalf("step %d: Range went on after fn returned false (%d calls)", step, n)
		}
	}
}

// decodeModel draws a document of up to three "values" fields and
// decodes it with the codec, next to a model built with the wire
// format's semantics: repeated "values" objects merge, "values":null
// drops what came before, a repeated key's last value wins, and a name
// outside the vocabulary among the values that survive, or a surviving
// last value its feature does not admit, rejects the document. It reports
// false for a rejected document.
func decodeModel(t *testing.T, rng *rand.Rand, step int) (modelSnapshot, bool) {
	t.Helper()
	want := map[Feature]Value{}
	unknown := map[string]bool{}
	outside := map[string]bool{}
	var b strings.Builder
	b.WriteString(`{"at":"2021-03-14T15:09:26Z"`)
	for k := rng.Intn(4); k > 0; k-- {
		if rng.Intn(5) == 0 {
			b.WriteString(`,"values":null`)
			clear(want)
			clear(unknown)
			clear(outside)
			continue
		}
		b.WriteString(`,"values":{`)
		for n := rng.Intn(8); n > 0; n-- {
			f := diffFeatures[rng.Intn(len(diffFeatures))]
			v := diffValue(rng, f)
			name := f.String()
			if rng.Intn(16) == 0 {
				name = diffUnknown[rng.Intn(len(diffUnknown))]
				unknown[name] = true
			}
			b.Write(jsonwire.AppendString(nil, name))
			b.WriteByte(':')
			out, err := appendValue(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			delete(outside, name)
			if raw := diffOutside[rng.Intn(len(diffOutside))]; rng.Intn(16) == 0 && !unknown[name] && !admitsJSON(f, raw) {
				out = []byte(raw)
				outside[name] = true
			}
			b.Write(out)
			if n > 1 {
				b.WriteByte(',')
			}
			if !unknown[name] {
				want[f] = v
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	var s Snapshot
	err := s.UnmarshalJSON([]byte(b.String()))
	var ve *VocabularyError
	switch {
	case len(unknown) > 0 || len(outside) > 0:
		if !errors.As(err, &ve) || !unknown[ve.Name] && !outside[ve.Name] || s.vals != nil {
			t.Fatalf("step %d: decode %s = %v, %v; want a vocabulary error and no values", step, b.String(), valuesOf(s), err)
		}
		return modelSnapshot{}, false
	case err != nil:
		t.Fatalf("step %d: decode %s: %v", step, b.String(), err)
	}
	return modelSnapshot{s: s, ref: &want}, true
}

// TestSnapshotDifferential runs seeded random sequences of every Snapshot
// operation against a map model: Set, Delete, plain copies (which share
// values), Clone, Merge, SetValues, the JSON round trip and decodes of
// documents with repeated keys and repeated "values" objects. After every
// step each live snapshot must agree with its model through Get, Len,
// Range, Features and a Cursor, and keep its entries sorted.
func TestSnapshotDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := []modelSnapshot{{}, {s: NewSnapshot(testTime), ref: &map[Feature]Value{}}}
			for step := 0; step < 400; step++ {
				i := rng.Intn(len(pool))
				m := &pool[i]
				f := diffFeatures[rng.Intn(len(diffFeatures))]
				switch op := rng.Intn(10); op {
				case 0, 1, 2:
					v := diffValue(rng, f)
					if m.ref == nil {
						m.ref = &map[Feature]Value{}
					}
					m.s.Set(f, v)
					(*m.ref)[f] = v
				case 3:
					m.s.Delete(f)
					if m.ref != nil {
						delete(*m.ref, f)
					}
				case 4:
					pool = append(pool, *m)
				case 5:
					ref := map[Feature]Value{}
					if m.ref != nil {
						ref = copyMap(*m.ref)
					}
					pool = append(pool, modelSnapshot{s: m.s.Clone(), ref: &ref})
				case 6:
					o := pool[rng.Intn(len(pool))]
					ref := map[Feature]Value{}
					for _, r := range []*map[Feature]Value{m.ref, o.ref} {
						if r != nil {
							for k, v := range *r {
								ref[k] = v
							}
						}
					}
					pool = append(pool, modelSnapshot{s: m.s.Merge(o.s), ref: &ref})
				case 7:
					o := pool[rng.Intn(len(pool))]
					ref := map[Feature]Value{}
					if o.ref != nil {
						ref = copyMap(*o.ref)
					}
					if m.ref == nil {
						m.ref = &map[Feature]Value{}
					}
					m.s.SetValues(o.s)
					*m.ref = ref
				case 8:
					data, err := m.s.MarshalJSON()
					if err != nil {
						t.Fatalf("step %d: marshal: %v", step, err)
					}
					var back Snapshot
					if err := back.UnmarshalJSON(data); err != nil {
						t.Fatalf("step %d: unmarshal %s: %v", step, data, err)
					}
					ref := map[Feature]Value{}
					if m.ref != nil {
						ref = copyMap(*m.ref)
					}
					pool = append(pool, modelSnapshot{s: back, ref: &ref})
				case 9:
					if m, ok := decodeModel(t, rng, step); ok {
						pool = append(pool, m)
					}
				}
				if len(pool) > 12 {
					pool = slices.Delete(pool, 0, 1)
				}
				for _, m := range pool {
					m.check(t, step)
				}
			}
		})
	}
}

// copyMap copies a model map.
func copyMap(m map[Feature]Value) map[Feature]Value {
	out := make(map[Feature]Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestDecodeManyDistinctFeaturesIsNotQuadratic guards the decoder
// against hostile documents of 2^17 members: distinct names outside the
// vocabulary, sent in descending order, must be rejected, and the
// vocabulary repeated over and over must decode to its 21 features, each
// in well under a second. The decoder keeps one slot per ordinal and
// never sorts or inserts, so the cost is linear in the document; a
// quadratic decode would be a denial-of-service lever on every
// scene-carrying fleet item.
func TestDecodeManyDistinctFeaturesIsNotQuadratic(t *testing.T) {
	const n = 1 << 17
	for _, c := range []struct {
		name string
		key  func(i int) string
		want int // decoded features; -1 for an unknown-feature error
	}{
		{"unknown names", func(i int) string { return "f" + strconv.Itoa(1_000_000+i) }, -1},
		{"vocabulary repeated", func(i int) string { return Feature(1 + i%NumFeatures).String() }, NumFeatures},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			b.WriteString(`{"values":{`)
			for i := n - 1; i >= 0; i-- {
				b.Write(jsonwire.AppendString(nil, c.key(i)))
				b.WriteString(`:`)
				b.WriteString(admittedJSON(c.key(i)))
				if i > 0 {
					b.WriteByte(',')
				}
			}
			b.WriteString(`}}`)
			data := []byte(b.String())
			start := time.Now()
			var s Snapshot
			err := s.UnmarshalJSON(data)
			elapsed := time.Since(start)
			var ve *VocabularyError
			switch {
			case c.want < 0 && !errors.As(err, &ve):
				t.Fatalf("decode = %v, want a vocabulary error", err)
			case c.want >= 0 && err != nil:
				t.Fatal(err)
			case c.want >= 0 && s.Len() != c.want:
				t.Fatalf("decoded %d features, want %d", s.Len(), c.want)
			}
			requireSorted(t, s)
			limit := time.Second
			if raceEnabled {
				limit = 10 * time.Second // the race detector slows every memory access
			}
			if elapsed > limit {
				t.Fatalf("decoding %d members took %v, want under %v", n, elapsed, limit)
			}
		})
	}
}

// admittedJSON is a wire value the named feature admits: 1 for a number
// feature and a name outside the vocabulary, true for a bool feature and
// the first label of its domain for a label feature.
func admittedJSON(name string) string {
	f, ok := ParseFeature(name)
	if !ok {
		return "1"
	}
	switch d := MustDescribe(f); d.Type {
	case TypeBool:
		return "true"
	case TypeLabel:
		return strconv.Quote(d.Labels[0].String())
	}
	return "1"
}
