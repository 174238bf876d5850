package cloud

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"iotsid/internal/jsonwire"
	"iotsid/internal/sensor"
)

// The fleet batch envelope's wire codec: the request and response bodies
// of /v1/fleet/authorize and the request body of /v1/fleet/context. It is
// built on the jsonwire scanner and the sensor package's scene entry
// points, so a request is decoded, inline scenes included, in one pass
// over its bytes and encoded by appending into one buffer. It reproduces
// encoding/json's treatment of these types exactly (the package's fuzz
// targets hold it to encoding/json):
//
//   - a body is one JSON value, an object or null, and whatever follows
//     it is ignored, as json.Decoder.Decode ignores it;
//   - a null leaves a string, a bool or a whole element as it was, and
//     sets an array, args or an item's context to nil;
//   - a repeated array field decodes element i over what the earlier
//     array left at index i, as encoding/json reuses a slice's capacity
//     without clearing it, and an empty array leaves a non-nil empty
//     slice;
//   - args are validated in the pass and then decoded, merging into
//     earlier args, by encoding/json; encoding marshals them with it too.
//
// Decoded strings are copies, never views of the body, so the body may
// live in a pooled buffer.

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
// the buffer grows with the bytes that actually arrive.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	if declared > 0 {
		buf = slices.Grow(buf, int(min(declared, maxPooledBuf-1))+1) // +1 reads EOF without growing
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
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

// Field names, in the order the decoders switch on them.
var (
	authorizeRequestFields  = []string{"items"}
	batchItemFields         = []string{"home", "op", "device_id", "args", "context"}
	contextRequestFields    = []string{"pushes"}
	contextPushFields       = []string{"home", "context"}
	authorizeResponseFields = []string{"results"}
	resultFields            = []string{"allowed", "sensitive", "model", "reason", "error"}
)

// oversized marks, by index, the elements of a decoded batch whose JSON
// spanned more than maxFleetItemBytes.
type oversized []bool

func (o *oversized) mark(i int) {
	for len(*o) <= i {
		*o = append(*o, false)
	}
	(*o)[i] = true
}

func (o oversized) has(i int) bool { return i < len(o) && o[i] }

// unmarshal decodes an authorize request body into req.
func (req *fleetAuthorizeRequest) unmarshal(data []byte) error {
	d := jsonwire.NewDecoder(data)
	return decodeObject(&d, func(name []byte) error {
		if jsonwire.Field(name, authorizeRequestFields) < 0 {
			return d.Skip()
		}
		return decodeBatch(&d, &req.Items, &req.oversized, func(i int, it *FleetBatchItem) error {
			req.used = max(req.used, i+1)
			return decodeObject(&d, func(name []byte) error {
				switch jsonwire.Field(name, batchItemFields) {
				case 0:
					return decodeString(&d, &it.Home)
				case 1:
					return decodeString(&d, &it.Op)
				case 2:
					return decodeString(&d, &it.DeviceID)
				case 3:
					raw, err := d.Raw()
					if err != nil {
						return err
					}
					return json.Unmarshal(raw, &it.Args)
				case 4:
					if d.Next() == 'n' {
						it.Context = nil
						return d.Literal("null")
					}
					if it.Context == nil {
						it.Context = new(sensor.Snapshot)
					}
					return it.Context.DecodeJSON(&d)
				}
				return d.Skip()
			})
		})
	})
}

// unmarshal decodes a context-push request body into req.
func (req *fleetContextRequest) unmarshal(data []byte) error {
	d := jsonwire.NewDecoder(data)
	return decodeObject(&d, func(name []byte) error {
		if jsonwire.Field(name, contextRequestFields) < 0 {
			return d.Skip()
		}
		return decodeBatch(&d, &req.Pushes, &req.oversized, func(_ int, p *fleetContextPush) error {
			return decodeObject(&d, func(name []byte) error {
				switch jsonwire.Field(name, contextPushFields) {
				case 0:
					return decodeString(&d, &p.Home)
				case 1:
					return p.Context.DecodeJSON(&d)
				}
				return d.Skip()
			})
		})
	})
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
					return decodeString(&d, &r.Model)
				case 3:
					return decodeString(&d, &r.Reason)
				case 4:
					return decodeString(&d, &r.Error)
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

// decodeArray decodes the array or null at the cursor into *s the way
// encoding/json decodes a slice, keeping at most max elements. Null sets
// *s to nil. An array decodes its i-th element with elem into (*s)[i]:
// over the element an earlier array left there while i is within the
// slice's length or capacity, over a zero element beyond it. Elements
// past the first max are validated and skipped, not decoded. The slice
// ends as long as the array or max, whichever is shorter, and an empty
// array leaves a new non-nil empty slice.
func decodeArray[T any](d *jsonwire.Decoder, s *[]T, max int, elem func(i int, e *T) error) error {
	switch d.Next() {
	case 'n':
		*s = nil
		return d.Literal("null")
	case '[':
	default:
		return d.Errorf("want an array or null")
	}
	xs, i := *s, 0
	err := d.Array(func() error {
		switch {
		case i == max:
			return d.Skip()
		case i == cap(xs):
			var zero T
			xs = append(xs, zero)
		case i == len(xs):
			xs = xs[:i+1]
		}
		err := elem(i, &xs[i])
		i++
		return err
	})
	if err != nil {
		return err
	}
	if i == 0 {
		xs = []T{}
	}
	*s = xs[:i]
	return nil
}

// decodeBatch is decodeArray for a request's items or pushes. It decodes
// at most maxFleetBatch+1 elements: one past the cap is enough for the
// handler to reject the batch, and the rest are only validated, so an
// over-count body costs no more than a full one; elem gets each element's
// index. It marks in big each element whose JSON spans more than
// maxFleetItemBytes. A mark stays with its index as the element does, so
// an oversized element an earlier array left behind stays marked, and
// goes when the slice is replaced by null or an empty array.
func decodeBatch[T any](d *jsonwire.Decoder, s *[]T, big *oversized, elem func(i int, e *T) error) error {
	err := decodeArray(d, s, maxFleetBatch+1, func(i int, e *T) error {
		start := d.Offset()
		if err := elem(i, e); err != nil {
			return err
		}
		if d.Offset()-start > maxFleetItemBytes {
			big.mark(i)
		}
		return nil
	})
	if len(*s) == 0 {
		*big = (*big)[:0]
	}
	return err
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
// to b, as json.Encoder encodes it: newline-terminated.
func appendAuthorizeResponse(b []byte, results []FleetResult) []byte {
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
		b = strconv.AppendBool(append(b, `{"allowed":`...), r.Allowed)
		b = strconv.AppendBool(append(b, `,"sensitive":`...), r.Sensitive)
		if r.Model != "" {
			b = jsonwire.AppendString(append(b, `,"model":`...), r.Model)
		}
		if r.Reason != "" {
			b = jsonwire.AppendString(append(b, `,"reason":`...), r.Reason)
		}
		if r.Error != "" {
			b = jsonwire.AppendString(append(b, `,"error":`...), r.Error)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}
