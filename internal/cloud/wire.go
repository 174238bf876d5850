package cloud

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/jsonwire"
	"iotsid/internal/sensor"
)

// The fleet batch envelope's wire codec: the request and response bodies
// of /v1/fleet/authorize and the request body of /v1/fleet/context. It is
// built on the jsonwire scanner and the sensor package's scene entry
// points, so a request is decoded, inline scenes included, in one pass
// over its bytes and encoded by appending into one buffer. It reproduces
// encoding/json's treatment of these types (the package's fuzz targets
// hold it to encoding/json), with one deliberate difference:
//
//   - a body is one JSON value, an object or null, and whatever follows
//     it is ignored, as json.Decoder.Decode ignores it;
//   - a null leaves a string or a bool as it was, an element zero, and
//     an array or an item's context nil;
//   - an array replaces the slice: every element decodes from a zero
//     element, so a repeated array field keeps nothing of the earlier one
//     (encoding/json decodes element i over whatever the earlier array
//     left there; no client sends a repeated array), and an empty array
//     leaves a non-nil empty slice;
//   - an authorize item's args are validated as decoding them into a
//     map[string]any would validate them, an object or null whose numbers
//     fit a float64, and then dropped: no judge reads them. The client
//     encodes args with encoding/json.
//
// Two kinds of element are marked and answered with a per-item error
// instead of failing the body (see batchMarks): one whose JSON passes
// maxFleetItemBytes, whose remaining members are then validated but not
// decoded, and one whose scene holds a feature or value outside the
// sensor vocabulary, which the scene's own decoder refuses.
//
// No decoded string is a view of the body, so the body may live in a
// pooled buffer. An authorize item's home and op, and a push's home, are
// resolved through the request's wireNames to strings the server already
// owns, which decodes them without allocating; a name no table holds, and
// every other string, is a copy of its own. With wireNames, an item's
// device ID is kept as bytes the request owns (itemRefs) until the
// handler resolves it against the item's home.

// bufPool holds the fleet endpoints' per-request buffers: the server's
// request and response bodies and the client's.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf is the largest buffer kept in bufPool; one grown beyond it
// by an unusually large batch is left to the garbage collector.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readBody appends r's content to buf. A declared length sizes buf up
// front, but only up to maxPooledBuf: the peer states it, so beyond that
// the buffer doubles with the bytes that actually arrive, never past the
// declared length. So a body costs under three times its size in
// buffers, and one that stops short of its declared length at most about
// four times what arrived.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			n := max(2*len(buf), int(min(declared, maxPooledBuf-1))+1, 512)
			if declared >= int64(len(buf)) {
				n = int(min(int64(n), declared+1)) // +1 reads EOF without growing
			}
			buf = append(make([]byte, 0, n), buf...) // exactly n: append's own growth overshoots
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// pooledBody is a client request body in a pooled buffer. http.Client
// may close a request body after Do returns, and may take more readers
// through GetBody to retry, so the buffer goes back to the pool only
// once the sender has released it and every reader has been closed.
type pooledBody struct {
	buf  *[]byte
	refs atomic.Int32
}

// newPooledBody returns a body holding the sender's reference.
func newPooledBody() *pooledBody {
	p := &pooledBody{buf: getBuf()}
	p.refs.Store(1)
	return p
}

func (p *pooledBody) release() {
	if p.refs.Add(-1) == 0 {
		putBuf(p.buf)
	}
}

// reader returns a reader over the body that holds a reference until it
// is closed.
func (p *pooledBody) reader() io.ReadCloser {
	p.refs.Add(1)
	r := &bodyReader{p: p}
	r.Reset(*p.buf)
	return r
}

type bodyReader struct {
	bytes.Reader
	p      *pooledBody
	closed atomic.Bool
}

// Close releases the reader's reference; the transport may call it more
// than once.
func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.p.release()
	}
	return nil
}

// Field names, in the order the decoders switch on them. A push's fields
// are the first two of an authorize item's.
var (
	authorizeRequestFields  = []string{"items"}
	batchItemFields         = []string{"home", "context", "op", "device_id", "args"}
	contextRequestFields    = []string{"pushes"}
	contextPushFields       = batchItemFields[:2]
	authorizeResponseFields = []string{"results"}
	resultFields            = []string{"allowed", "sensitive", "model", "reason", "error"}
)

// A reject is why a decoded batch element is answered with an error
// instead of being built, pushed or judged: bits of the reasons below.
type reject uint8

const (
	// rejectOversized: the element's JSON spans more than
	// maxFleetItemBytes.
	rejectOversized reject = 1 << iota
	// rejectVocabulary: the element's scene, as last decoded, holds a
	// feature or value outside the sensor vocabulary. A later scene or
	// null decoded into the element replaces it and clears the mark.
	rejectVocabulary
)

// batchMarks marks, by index, the rejected elements of a decoded batch,
// and tracks where the element being decoded starts.
type batchMarks struct {
	rs    []reject
	start int // offset of the element being decoded
}

func (m *batchMarks) set(i int, why reject, on bool) {
	if !on && i >= len(m.rs) {
		return
	}
	for len(m.rs) <= i {
		m.rs = append(m.rs, 0)
	}
	if on {
		m.rs[i] |= why
	} else {
		m.rs[i] &^= why
	}
}

func (m *batchMarks) has(i int, why reject) bool { return i < len(m.rs) && m.rs[i]&why != 0 }

// over reports whether the element being decoded has passed
// maxFleetItemBytes at the cursor: its remaining members are then only
// validated.
func (m *batchMarks) over(d *jsonwire.Decoder) bool {
	return d.Offset()-m.start > maxFleetItemBytes
}

// cleared returns m with every mark dropped, keeping its slice for reuse.
func (m *batchMarks) cleared() batchMarks { return batchMarks{rs: m.rs[:0]} }

// sceneSlots is a pooled request's scene storage: element i's scene
// decodes into slot i, whose value storage the slot keeps from request to
// request, so a warmed request decodes its scenes without allocating.
type sceneSlots []sensor.Snapshot

// decode decodes the scene at the cursor into slot i, growing the storage
// as append grows a slice when i is past its end, and marks element i by
// whether the scene holds a feature or value outside the vocabulary; any other
// error fails the body. It returns the slot when the scene was decoded
// and nil when it was not, which leaves the slot as it was. A slot that
// a later growth moves keeps sharing its values with the copy left
// behind, so a pointer to the slot taken now still reads the scene.
func (s *sceneSlots) decode(d *jsonwire.Decoder, marks *batchMarks, i int) (*sensor.Snapshot, error) {
	if i >= len(*s) {
		*s = slices.Grow(*s, i+1-len(*s))
		*s = (*s)[:cap(*s)]
	}
	slot := &(*s)[i]
	err := slot.DecodeJSON(d)
	_, outside := err.(*sensor.VocabularyError) // DecodeJSON does not wrap it
	marks.set(i, rejectVocabulary, outside)
	if err != nil {
		if outside {
			err = nil
		}
		return nil, err
	}
	return slot, nil
}

// clear empties every slot's values and time, keeping its value storage.
func (s sceneSlots) clear() {
	for i := range s {
		if s[i].Len() > 0 {
			s[i].SetValues(sensor.Snapshot{})
		}
		s[i].At = time.Time{}
	}
}

// unmarshal decodes an authorize request body into req: each item's home
// and op into Home and In.Op, resolved through req.names, its device ID
// into In.DeviceID, or into req.refs when req.names is set, and its scene
// into Context.
func (req *fleetAuthorizeRequest) unmarshal(data []byte) error {
	return req.decode(data, authorizeRequestFields, batchItemFields)
}

// unmarshalPushes decodes a context-push body into req: each push into an
// item, its home into Home, resolved through req.names, and its scene
// into Context.
func (req *fleetAuthorizeRequest) unmarshalPushes(data []byte) error {
	return req.decode(data, contextRequestFields, contextPushFields)
}

// decode decodes a body whose batch field holds elements with the fields
// itemFields, a prefix of batchItemFields, into req.Items.
func (req *fleetAuthorizeRequest) decode(data []byte, batch, itemFields []string) error {
	d := jsonwire.NewDecoder(data)
	return decodeObject(&d, func(name []byte) error {
		if jsonwire.Field(name, batch) < 0 {
			return d.Skip()
		}
		return decodeBatch(&d, &req.Items, &req.marks, func(i int, it *fleet.BatchItem) error {
			if req.names != nil {
				req.refs.start(i)
			}
			return decodeObject(&d, func(name []byte) error {
				if req.marks.over(&d) {
					return d.Skip()
				}
				switch jsonwire.Field(name, itemFields) {
				case 0:
					if req.names != nil {
						return req.refs.decodeHome(&d, &it.Home, i, req.names.fleet)
					}
					return decodeString(&d, &it.Home)
				case 1:
					if d.Next() == 'n' {
						it.Context = nil
						req.marks.set(i, rejectVocabulary, false)
						return d.Literal("null")
					}
					scene, err := req.scenes.decode(&d, &req.marks, i)
					switch {
					case scene != nil:
						it.Context = scene
					case err == nil && it.Context == nil:
						// A scene outside the vocabulary decodes to
						// nothing: the zero scene encoding/json leaves.
						it.Context = new(sensor.Snapshot)
					}
					return err
				case 2:
					return decodeName(&d, &it.In.Op, req.names.op)
				case 3:
					if req.names != nil {
						return req.refs.decodeDevice(&d, i)
					}
					return decodeString(&d, &it.In.DeviceID)
				case 4:
					raw, err := d.Raw()
					if err != nil || req.marks.over(&d) {
						return err
					}
					return checkArgs(jsonwire.NewDecoder(raw))
				}
				return d.Skip()
			})
		})
	})
}

// checkArgs accepts an item's args, read by d, exactly when decoding them
// into a map[string]any would: an object or null whose numbers all fit a
// float64.
func checkArgs(d jsonwire.Decoder) error {
	if c := d.Next(); c != '{' && c != 'n' {
		return d.Errorf("want args as an object or null")
	}
	return checkArg(&d)
}

// checkArg validates the args value at the cursor, parsing each number as
// encoding/json parses one it decodes into an any.
func checkArg(d *jsonwire.Decoder) error {
	switch c := d.Next(); {
	case c == '{':
		return d.Object(func([]byte) error { return checkArg(d) })
	case c == '[':
		return d.Array(func() error { return checkArg(d) })
	case c == '-' || '0' <= c && c <= '9':
		num, err := d.Number()
		if err == nil {
			_, err = strconv.ParseFloat(string(num), 64)
		}
		return err
	}
	return d.Skip()
}

// unmarshal decodes an authorize response body into resp.
func (resp *fleetAuthorizeResponse) unmarshal(data []byte) error {
	d := jsonwire.NewDecoder(data)
	return decodeObject(&d, func(name []byte) error {
		if jsonwire.Field(name, authorizeResponseFields) < 0 {
			return d.Skip()
		}
		return decodeArray(&d, &resp.Results, math.MaxInt, func(_ int, r *FleetResult) error {
			return decodeObject(&d, func(name []byte) error {
				switch jsonwire.Field(name, resultFields) {
				case 0:
					return decodeBool(&d, &r.Allowed)
				case 1:
					return decodeBool(&d, &r.Sensitive)
				case 2:
					return decodeName(&d, &r.Model, resp.strs.lookup)
				case 3:
					return decodeName(&d, &r.Reason, resp.strs.lookup)
				case 4:
					return decodeName(&d, &r.Error, resp.strs.lookup)
				}
				return d.Skip()
			})
		})
	})
}

// decodeObject decodes the object at the cursor field by field. A null
// leaves everything as it was, as encoding/json treats a struct.
func decodeObject(d *jsonwire.Decoder, member func(name []byte) error) error {
	switch d.Next() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(member)
	}
	return d.Errorf("want an object or null")
}

// decodeArray decodes the array or null at the cursor into *s, keeping at
// most max elements. Null sets *s to nil. An array replaces what *s held:
// its elements are cleared, and elem decodes the i-th element into a zero
// (*s)[i], so no element holds anything of an earlier array and the
// elements in [len, cap) stay zero. Elements past the first max are
// validated and skipped, not decoded. The slice ends as long as the array
// or max, whichever is shorter, and covers every element elem was given
// when elem fails; an empty array leaves a non-nil empty slice.
func decodeArray[T any](d *jsonwire.Decoder, s *[]T, max int, elem func(i int, e *T) error) error {
	switch d.Next() {
	case 'n':
		*s = nil
		return d.Literal("null")
	case '[':
	default:
		return d.Errorf("want an array or null")
	}
	clear(*s)
	xs := (*s)[:0]
	if xs == nil {
		xs = []T{}
	}
	err := d.Array(func() error {
		if len(xs) == max {
			return d.Skip()
		}
		var zero T
		xs = append(xs, zero)
		return elem(len(xs)-1, &xs[len(xs)-1])
	})
	*s = xs
	return err
}

// decodeBatch is decodeArray for a request's items or pushes. It decodes
// at most maxFleetBatch+1 elements: one past the cap is enough for the
// handler to reject the batch, and the rest are only validated, so an
// over-count body costs no more than a full one; elem gets each element's
// index. It marks each element whose JSON spans more than
// maxFleetItemBytes oversized; elem skips an element's members once
// marks.over reports it past the bound. An array or null drops every
// earlier mark with the elements it replaces.
func decodeBatch[T any](d *jsonwire.Decoder, s *[]T, marks *batchMarks, elem func(i int, e *T) error) error {
	*marks = marks.cleared()
	return decodeArray(d, s, maxFleetBatch+1, func(i int, e *T) error {
		marks.start = d.Offset()
		if err := elem(i, e); err != nil {
			return err
		}
		if marks.over(d) {
			marks.set(i, rejectOversized, true)
		}
		return nil
	})
}

// wireNames resolves the names a fleet request gives to strings the
// server owns: a registered home to the home's own ID (see itemRefs) and
// an opcode to the registry's. Resolving reads a map with the decoded
// bytes, so a name the tables hold costs no allocation. Both tables are
// exact by construction, the fleet's homes and the registry's ops, and a
// lookup adds nothing to either, so no request grows them. A name no table
// holds decodes to a copy of its own, as decodeString makes, so its item
// is answered as before: an unknown home or op gets its per-item error. A
// nil wireNames resolves nothing.
type wireNames struct {
	fleet *fleet.Fleet
	ops   *instr.Registry
}

func (n *wireNames) op(b []byte) (string, bool) {
	if n == nil {
		return "", false
	}
	spec, ok := n.ops.LookupBytes(b)
	return spec.Op, ok
}

// itemRefs keeps, for each element of a request decoded with wireNames,
// the registered home its home field named and its device ID's bytes, in
// storage the request owns, until the handler knows the element's home is
// bound to the caller. The handler then resolves the device ID against
// that home's own decision ring (fleet.Home.DeviceID), so a device ID the
// home was judged on before costs no allocation, and no table is shared
// across tenants or filled before a request is authorized.
type itemRefs struct {
	buf []byte
	at  []itemRef
}

// itemRef is one element's: its home, nil when the home field named no
// registered home, and its device ID, buf[lo:hi].
type itemRef struct {
	home   *fleet.Home
	lo, hi uint32
}

// start begins element i, decoded after elements 0..i-1 of the same
// array, with neither home nor device ID; element 0 begins a new array,
// whose elements replace the earlier one's.
func (r *itemRefs) start(i int) {
	if i == 0 {
		r.buf = r.buf[:0]
	}
	r.at = append(r.at[:i], itemRef{})
}

// decodeHome decodes element i's home, a string or null at the cursor,
// into *s: the home's own ID when f has it registered, a copy otherwise.
// Null leaves both as they were, as decodeString does.
func (r *itemRefs) decodeHome(d *jsonwire.Decoder, s *string, i int, f *fleet.Fleet) error {
	if d.Next() != '"' {
		return decodeString(d, s)
	}
	v, err := d.Unquoted()
	if err != nil {
		return err
	}
	h, ok := f.LookupHome(v)
	if ok {
		*s = h.ID()
	} else {
		*s = string(v)
	}
	r.at[i].home = h
	return nil
}

// decodeDevice decodes element i's device ID, a string or null at the
// cursor; null leaves it as it was, as decodeString does.
func (r *itemRefs) decodeDevice(d *jsonwire.Decoder, i int) error {
	if d.Next() != '"' {
		var s string
		return decodeString(d, &s)
	}
	v, err := d.Unquoted()
	if err != nil {
		return err
	}
	lo := len(r.buf)
	r.buf = append(r.buf, v...)
	r.at[i].lo, r.at[i].hi = uint32(lo), uint32(len(r.buf))
	return nil
}

// device returns element i's device ID: its home's copy (Home.DeviceID)
// when the element named a registered home, a copy of its own otherwise.
func (r *itemRefs) device(i int) string {
	if i >= len(r.at) {
		return ""
	}
	e := r.at[i]
	if e.home != nil {
		return e.home.DeviceID(r.buf[e.lo:e.hi])
	}
	return string(r.buf[e.lo:e.hi])
}

// decodeName is decodeString for a string resolve may hold: one it holds
// decodes to resolve's copy, any other to a copy of its own.
func decodeName(d *jsonwire.Decoder, s *string, resolve func([]byte) (string, bool)) error {
	if d.Next() != '"' {
		return decodeString(d, s)
	}
	v, err := d.Unquoted()
	if err != nil {
		return err
	}
	if name, ok := resolve(v); ok {
		*s = name
	} else {
		*s = string(v)
	}
	return nil
}

// decodeString decodes a string or null at the cursor into *s; null
// leaves *s as it was.
func decodeString(d *jsonwire.Decoder, s *string) error {
	switch d.Next() {
	case '"':
		v, err := d.Text()
		*s = v
		return err
	case 'n':
		return d.Literal("null")
	}
	return d.Errorf("want a string or null")
}

// internCap bounds an internTable. The server's model, reason and error
// strings number in the tens; the cap only stops a hostile server from
// growing the table without end.
const internCap = 4096

// internTable interns decoded strings: a copy-on-write map read with one
// atomic load and filled under mu, as core.Judger interns its reasons.
// Strings newer than the published map wait in newer, under mu, until the
// lookups they served and their count together pass the published map's
// size, or until the table is full; then both are published in one copy.
// So filling the table to internCap copies O(internCap) entries in all,
// not one map per string, and a string in steady use is read lock-free
// after a bounded number of locked lookups. The zero table is empty; a
// nil table interns nothing.
type internTable struct {
	mu    sync.Mutex
	m     atomic.Pointer[map[string]string]
	newer map[string]string
	hits  int // lookups newer served since m was published
}

// intern returns the table's copy of b, storing a new copy on first
// sight while the table holds fewer than internCap strings and returning
// an unstored copy once it is full. The result never aliases b.
func (t *internTable) intern(b []byte) string {
	if t == nil {
		return string(b)
	}
	if m := t.m.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.m.Load()
	var n int
	if cur != nil {
		if s, ok := (*cur)[string(b)]; ok {
			return s
		}
		n = len(*cur)
	}
	s, ok := t.newer[string(b)]
	switch {
	case ok:
		t.hits++
	case n+len(t.newer) >= internCap:
		return string(b) // table full: serve without storing
	default:
		s = string(b)
		if t.newer == nil {
			t.newer = make(map[string]string)
		}
		t.newer[s] = s
	}
	if len(t.newer)+t.hits > n || n+len(t.newer) == internCap {
		next := make(map[string]string, n+len(t.newer))
		if cur != nil {
			maps.Copy(next, *cur)
		}
		maps.Copy(next, t.newer)
		t.m.Store(&next)
		t.newer, t.hits = nil, 0
	}
	return s
}

// lookup is intern as decodeName's resolver: every string resolves.
func (t *internTable) lookup(b []byte) (string, bool) { return t.intern(b), true }

// decodeBool decodes a boolean or null at the cursor into *b; null leaves
// *b as it was.
func decodeBool(d *jsonwire.Decoder, b *bool) error {
	switch d.Next() {
	case 't':
		*b = true
		return d.Literal("true")
	case 'f':
		*b = false
		return d.Literal("false")
	case 'n':
		return d.Literal("null")
	}
	return d.Errorf("want a boolean or null")
}

// appendAuthorizeRequest appends the authorize request body for items to
// b, as json.Marshal encodes it.
func appendAuthorizeRequest(b []byte, items []FleetBatchItem) ([]byte, error) {
	b = append(b, `{"items":`...)
	if items == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range items {
		it := &items[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"home":`...)
		b = jsonwire.AppendString(b, it.Home)
		b = append(b, `,"op":`...)
		b = jsonwire.AppendString(b, it.Op)
		b = append(b, `,"device_id":`...)
		b = jsonwire.AppendString(b, it.DeviceID)
		if len(it.Args) > 0 {
			args, err := json.Marshal(it.Args)
			if err != nil {
				return nil, err
			}
			b = append(append(b, `,"args":`...), args...)
		}
		if it.Context != nil {
			var err error
			if b, err = it.Context.AppendJSON(append(b, `,"context":`...)); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendContextRequest appends the context-push request body for pushes
// to b, as json.Marshal encodes it.
func appendContextRequest(b []byte, pushes []fleetContextPush) ([]byte, error) {
	b = append(b, `{"pushes":`...)
	if pushes == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range pushes {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonwire.AppendString(append(b, `{"home":`...), pushes[i].Home)
		var err error
		if b, err = pushes[i].Context.AppendJSON(append(b, `,"context":`...)); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendAuthorizeResponse appends the authorize response body for results
// to b, as json.Encoder encodes the FleetResults they carry:
// newline-terminated.
func appendAuthorizeResponse(b []byte, results []fleet.BatchResult) []byte {
	b = append(b, `{"results":`...)
	if results == nil {
		return append(b, "null}\n"...)
	}
	b = append(b, '[')
	for i := range results {
		r := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(append(b, `{"allowed":`...), r.Decision.Allowed)
		b = strconv.AppendBool(append(b, `,"sensitive":`...), r.Decision.Sensitive)
		if r.Decision.Model != "" {
			b = jsonwire.AppendString(append(b, `,"model":`...), string(r.Decision.Model))
		}
		if r.Decision.Reason != "" {
			b = jsonwire.AppendString(append(b, `,"reason":`...), r.Decision.Reason)
		}
		if r.Err != "" {
			b = jsonwire.AppendString(append(b, `,"error":`...), r.Err)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}
