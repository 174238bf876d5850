package miio

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// retries is how many times a call or the handshake is retried after a
// timeout: UDP datagrams are fair game for loss.
const retries = 2

// ClientOption customises a client.
type ClientOption func(*Client)

// WithTimeout sets the per-attempt round-trip deadline (default 2s).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// Client speaks the encrypted protocol to one gateway. It performs the
// hello handshake on dial (learning the gateway's device ID and stamp, as
// the vendor app does) and then issues encrypted method calls. Safe for
// concurrent use; calls are serialised on the socket.
type Client struct {
	token   Token
	timeout time.Duration

	mu       sync.Mutex
	conn     *net.UDPConn
	deviceID uint32
	stamp    uint32
	stampAt  time.Time
	nextID   int64
	closed   bool
}

// Dial connects, handshakes, and returns a ready client.
func Dial(addr string, token Token, opts ...ClientOption) (*Client, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("miio: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("miio: dial: %w", err)
	}
	c := &Client{token: token, timeout: 2 * time.Second, conn: conn}
	for _, o := range opts {
		o(c)
	}
	if err := c.handshake(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the socket.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

func (c *Client) handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	hello := EncodeHello()
	buf := make([]byte, MaxPacketSize)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if _, err := c.conn.Write(hello); err != nil {
			return fmt.Errorf("miio: hello write: %w", err)
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("miio: deadline: %w", err)
		}
		n, err := c.conn.Read(buf)
		if err != nil {
			lastErr = err
			continue
		}
		pkt, err := Decode(buf[:n], c.token)
		if err != nil {
			lastErr = err
			continue
		}
		c.deviceID = pkt.DeviceID
		c.stamp = pkt.Stamp
		c.stampAt = time.Now()
		return nil
	}
	return fmt.Errorf("miio: handshake: %w", lastErr)
}

// Call issues one encrypted method call and decodes the result into a raw
// JSON message. RPC-level errors surface as *RPCError.
func (c *Client) Call(method string, params any) (json.RawMessage, error) {
	//iot:allow ctxrule Call is the context-free compat API; the per-attempt timeout and the fixed retry count still bound it
	return c.CallContext(context.Background(), method, params)
}

// CallContext is Call with cancellation and an overall deadline: the call
// ends at the context's deadline, no matter how many retries remain.
// Cancellation is checked between attempts, and every socket read deadline
// is capped so a blocking read can never outlive the context's deadline.
func (c *Client) CallContext(ctx context.Context, method string, params any) (json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("miio: client closed")
	}
	overall, hasOverall := ctx.Deadline()
	c.nextID++
	id := c.nextID
	var rawParams json.RawMessage
	if params != nil {
		data, err := json.Marshal(params)
		if err != nil {
			return nil, fmt.Errorf("miio: marshal params: %w", err)
		}
		rawParams = data
	}
	payload, err := json.Marshal(Request{ID: id, Method: method, Params: rawParams})
	if err != nil {
		return nil, fmt.Errorf("miio: marshal request: %w", err)
	}
	// Advance the device stamp estimate, as the vendor client does.
	stamp := c.stamp + uint32(time.Since(c.stampAt)/time.Second)
	raw, err := Encode(Packet{DeviceID: c.deviceID, Stamp: stamp, Payload: payload}, c.token)
	if err != nil {
		return nil, err
	}

	buf := make([]byte, MaxPacketSize)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, deadlineErr(method, err, lastErr)
		}
		readDeadline := time.Now().Add(c.timeout)
		if hasOverall {
			if !overall.After(time.Now()) {
				// The deadline has passed even if the context's timer has
				// not fired yet.
				return nil, deadlineErr(method, context.DeadlineExceeded, lastErr)
			}
			if readDeadline.After(overall) {
				readDeadline = overall
			}
		}
		if _, err := c.conn.Write(raw); err != nil {
			return nil, fmt.Errorf("miio: write: %w", err)
		}
		if err := c.conn.SetReadDeadline(readDeadline); err != nil {
			return nil, fmt.Errorf("miio: deadline: %w", err)
		}
		for {
			n, err := c.conn.Read(buf)
			if err != nil {
				lastErr = err
				break // retry the send
			}
			pkt, err := Decode(buf[:n], c.token)
			if err != nil {
				lastErr = err
				continue // garbage datagram; keep reading until deadline
			}
			var resp Response
			if err := json.Unmarshal(pkt.Payload, &resp); err != nil {
				lastErr = fmt.Errorf("miio: bad response payload: %w", err)
				continue
			}
			if resp.ID != id {
				continue // stale response from a previous retry
			}
			if resp.Error != nil {
				return nil, resp.Error
			}
			return resp.Result, nil
		}
	}
	return nil, fmt.Errorf("miio: call %s: %w", method, lastErr)
}

// deadlineErr reports a call abandoned by its context, keeping the
// last transport error for the post-mortem.
func deadlineErr(method string, cause, lastErr error) error {
	if lastErr != nil && lastErr != cause {
		return fmt.Errorf("miio: call %s: %w (last attempt: %v)", method, cause, lastErr)
	}
	return fmt.Errorf("miio: call %s: %w", method, cause)
}
