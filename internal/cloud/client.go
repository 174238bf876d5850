package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// APIError is an error response from the cloud.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("cloud: HTTP %d: %s", e.StatusCode, e.Message)
}

// Client is the mobile-app side of the cloud control path.
type Client struct {
	baseURL string
	// auth is the Authorization header value Login set, shared read-only
	// by every request; nil before Login.
	auth []string
	http *http.Client
	// strs interns the model, reason and error strings of fleet
	// authorize responses.
	strs internTable
}

// jsonContentType is the Content-Type header value of every request,
// shared read-only.
var jsonContentType = []string{"application/json"}

// transport is the one HTTP transport every Client shares, so clients
// pool connections together as they did on http.DefaultTransport, whose
// settings it keeps. Its connections copy a request body through a
// pooled buffer (copyConn).
var transport = newTransport()

func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return copyConn{conn}, nil
	}
	return t
}

// copyConn is a client connection whose ReadFrom copies through a pooled
// buffer. The transport writes a request body by handing the connection
// an io.LimitedReader over it, which a bare TCP connection copies through
// a new buffer of up to 32 KiB on every request.
type copyConn struct{ net.Conn }

// copyBuf is the size of buffer io.Copy allocates.
type copyBuf [32 << 10]byte

var copyBufPool = sync.Pool{New: func() any { return new(copyBuf) }}

// ReadFrom implements io.ReaderFrom.
func (c copyConn) ReadFrom(r io.Reader) (int64, error) {
	buf := copyBufPool.Get().(*copyBuf)
	defer copyBufPool.Put(buf)
	// The anonymous struct hides c.Conn's own ReadFrom, so the copy
	// goes through buf.
	return io.CopyBuffer(struct{ io.Writer }{c.Conn}, r, buf[:])
}

// NewClient builds an unauthenticated client.
func NewClient(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cloud: invalid base URL %q", baseURL)
	}
	return &Client{
		baseURL: u.Scheme + "://" + u.Host,
		http:    &http.Client{Timeout: 5 * time.Second, Transport: transport},
	}, nil
}

// Login authenticates and stores the session token.
func (c *Client) Login(user, secret string) error {
	var resp loginResponse
	if err := c.do(http.MethodPost, "/v1/login", loginRequest{User: user, Secret: secret}, &resp); err != nil {
		return err
	}
	if resp.Session == "" {
		return fmt.Errorf("cloud: empty session token")
	}
	c.auth = []string{"Session " + resp.Session}
	return nil
}

// Devices lists the devices bound to the logged-in account.
func (c *Client) Devices() ([]string, error) {
	var out []string
	if err := c.do(http.MethodGet, "/v1/devices", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Command submits one control instruction through the cloud path.
func (c *Client) Command(op, deviceID string, args map[string]any) error {
	var resp commandResponse
	return c.do(http.MethodPost, "/v1/command",
		commandRequest{Op: op, DeviceID: deviceID, Args: args}, &resp)
}

// History fetches the account's command log.
func (c *Client) History() ([]HistoryEntry, error) {
	var out []HistoryEntry
	if err := c.do(http.MethodGet, "/v1/history", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) do(method, path string, body, out any) error {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cloud: marshal body: %w", err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.baseURL+path, reader)
	if err != nil {
		return fmt.Errorf("cloud: build request: %w", err)
	}
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // best-effort: read errors surface via the decoder
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cloud: decode response: %w", err)
	}
	return nil
}

// postFleet posts the fleet body encode appends and decodes a 200
// response's body with decode, both through pooled buffers. decode must
// not keep the bytes it is given.
func (c *Client) postFleet(path string, encode func([]byte) ([]byte, error), decode func([]byte) error) error {
	body := newPooledBody()
	defer body.release()
	data, err := encode(*body.buf)
	*body.buf = data
	if err != nil {
		return fmt.Errorf("cloud: marshal body: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, c.baseURL+path, body.reader())
	if err != nil {
		return fmt.Errorf("cloud: build request: %w", err)
	}
	req.ContentLength = int64(len(data))
	req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // best-effort: read errors surface from readBody
	buf := getBuf()
	defer putBuf(buf)
	*buf, err = readBody(*buf, resp.Body, resp.ContentLength)
	if err == nil {
		err = decode(*buf)
	}
	if err != nil {
		return fmt.Errorf("cloud: decode response: %w", err)
	}
	return nil
}

// send sends req with the session and content headers set and turns any
// status but 200 into an *APIError. On success the caller closes the
// response body.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	if c.auth != nil {
		req.Header["Authorization"] = c.auth
	}
	req.Header["Content-Type"] = jsonContentType
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: %s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer func() { _ = resp.Body.Close() }() // best-effort: the status already failed the call
		var eb errorBody
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	return resp, nil
}
