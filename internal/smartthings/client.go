package smartthings

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"iotsid/internal/resilience"
)

// APIError is an error response from the bridge.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("smartthings: HTTP %d: %s", e.StatusCode, e.Message)
}

// ClientOption customises a client.
type ClientOption func(*Client)

// WithTimeout sets the per-request HTTP timeout (default 5s).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.http.Timeout = d }
}

// Client talks to the bridge with a long-lived access token, exactly as the
// paper's collector queries its Home Assistant deployment.
type Client struct {
	baseURL string
	token   string
	http    *http.Client
}

// NewClient builds a client for the bridge at baseURL.
func NewClient(baseURL, token string, opts ...ClientOption) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("smartthings: invalid base URL %q", baseURL)
	}
	if token == "" {
		return nil, fmt.Errorf("smartthings: empty access token")
	}
	c := &Client{
		baseURL: u.Scheme + "://" + u.Host,
		token:   token,
		http:    &http.Client{Timeout: 5 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Ping checks the API is up and the token valid.
func (c *Client) Ping(ctx context.Context) error {
	var out map[string]string
	return c.do(ctx, http.MethodGet, "/api/", nil, &out)
}

// States fetches every entity state.
func (c *Client) States(ctx context.Context) ([]Entity, error) {
	var out []Entity
	if err := c.do(ctx, http.MethodGet, "/api/states", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// State fetches one entity state.
func (c *Client) State(ctx context.Context, entityID string) (Entity, error) {
	var out Entity
	if err := c.do(ctx, http.MethodGet, "/api/states/"+url.PathEscape(entityID), nil, &out); err != nil {
		return Entity{}, err
	}
	return out, nil
}

// CallService invokes `domain.service` with a data payload and returns the
// entities it changed.
func (c *Client) CallService(ctx context.Context, domain, service string, data map[string]any) ([]Entity, error) {
	var out []Entity
	path := "/api/services/" + url.PathEscape(domain) + "/" + url.PathEscape(service)
	if err := c.do(ctx, http.MethodPost, path, data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// do performs one HTTP round trip. Failures that retrying cannot fix (4xx)
// are marked Permanent, so a caller's retry policy stops on them;
// transport errors and 5xx stay transient.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	var payload []byte
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("smartthings: marshal body: %w", err)
		}
		payload = data
	}
	var reader io.Reader
	if payload != nil {
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, reader)
	if err != nil {
		return resilience.Permanent(fmt.Errorf("smartthings: build request: %w", err))
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("smartthings: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }() // best-effort: read errors surface via the decoder
	if resp.StatusCode != http.StatusOK {
		var apiErr apiError
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err == nil && apiErr.Message != "" {
			msg = apiErr.Message
		}
		callErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
		if resp.StatusCode >= 500 {
			return callErr
		}
		return resilience.Permanent(callErr)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("smartthings: decode response: %w", err)
	}
	return nil
}
