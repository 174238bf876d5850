package miio

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Developer mode: the real gateway exposes an unencrypted JSON side channel
// (UDP port 9898) that pushes sensor reports to subscribers — the paper's
// collector uses it ("the developer mode provided by Xiaomi Gateway"). The
// simulated counterpart mirrors that: subscribers send {"cmd":"subscribe"},
// the gateway pushes {"cmd":"report",...} datagrams on sensor changes, and
// subscriptions expire unless refreshed.

// Report is one developer-mode push: a change report ("report") or the
// gateway's periodic full-state keep-alive ("heartbeat").
type Report struct {
	Cmd   string          `json:"cmd"` // "report" or "heartbeat"
	Model string          `json:"model"`
	SID   string          `json:"sid"` // subdevice ID
	Data  json.RawMessage `json:"data"`
}

// devModeCommand is what subscribers send.
type devModeCommand struct {
	Cmd string `json:"cmd"`
}

// DevModeConfig configures the side channel.
type DevModeConfig struct {
	// Addr is the UDP listen address; ":0" picks a free port.
	Addr string
	// TTL expires idle subscriptions; default 2 minutes.
	TTL time.Duration
	// Now supplies the clock; defaults to time.Now.
	Now func() time.Time
}

// DevMode is the running side channel.
type DevMode struct {
	cfg  DevModeConfig
	conn *net.UDPConn

	mu   sync.Mutex
	subs map[string]subscription // remote addr → expiry

	done chan struct{}
	wg   sync.WaitGroup
}

type subscription struct {
	addr    *net.UDPAddr
	expires time.Time
}

// NewDevMode binds the side channel and starts accepting subscriptions.
func NewDevMode(cfg DevModeConfig) (*DevMode, error) {
	if cfg.TTL == 0 {
		cfg.TTL = 2 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("miio: devmode resolve %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("miio: devmode listen: %w", err)
	}
	d := &DevMode{
		cfg:  cfg,
		conn: conn,
		subs: make(map[string]subscription),
		done: make(chan struct{}),
	}
	d.wg.Add(1)
	go d.serve()
	return d, nil
}

// Addr returns the bound address.
func (d *DevMode) Addr() net.Addr { return d.conn.LocalAddr() }

// Close stops the channel.
func (d *DevMode) Close() error {
	close(d.done)
	err := d.conn.Close()
	d.wg.Wait()
	return err
}

// Subscribers returns the number of live subscriptions.
func (d *DevMode) Subscribers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	n := 0
	for _, s := range d.subs {
		if s.expires.After(now) {
			n++
		}
	}
	return n
}

func (d *DevMode) serve() {
	defer d.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, remote, err := d.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-d.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		var cmd devModeCommand
		if err := json.Unmarshal(buf[:n], &cmd); err != nil {
			continue // plaintext garbage: drop, like the device
		}
		switch cmd.Cmd {
		case "subscribe":
			d.mu.Lock()
			d.subs[remote.String()] = subscription{addr: remote, expires: d.cfg.Now().Add(d.cfg.TTL)}
			d.mu.Unlock()
			_, _ = d.conn.WriteToUDP([]byte(`{"cmd":"subscribe_ack"}`), remote)
		case "unsubscribe":
			d.mu.Lock()
			delete(d.subs, remote.String())
			d.mu.Unlock()
		}
	}
}

// Push sends a change report to every live subscriber and reaps expired
// ones.
func (d *DevMode) Push(model, sid string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("miio: devmode marshal data: %w", err)
	}
	payload, err := json.Marshal(Report{Cmd: "report", Model: model, SID: sid, Data: raw})
	if err != nil {
		return fmt.Errorf("miio: devmode marshal report: %w", err)
	}
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, sub := range d.subs {
		if !sub.expires.After(now) {
			delete(d.subs, key)
			continue
		}
		_, _ = d.conn.WriteToUDP(payload, sub.addr)
	}
	return nil
}

// DevModeListener is the collector side of the side channel.
type DevModeListener struct {
	conn    *net.UDPConn
	reports chan Report

	done chan struct{}
	wg   sync.WaitGroup
}

// SubscribeDevMode subscribes to a gateway's developer-mode channel and
// streams its reports. The buffer bounds how many undelivered reports are
// kept before the oldest are dropped.
func SubscribeDevMode(addr string, buffer int) (*DevModeListener, error) {
	if buffer <= 0 {
		buffer = 64
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("miio: devmode resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("miio: devmode dial: %w", err)
	}
	if _, err := conn.Write([]byte(`{"cmd":"subscribe"}`)); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("miio: devmode subscribe: %w", err)
	}
	// Wait for the ack so the subscription is live before returning.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	ackBuf := make([]byte, 256)
	if _, err := conn.Read(ackBuf); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("miio: devmode ack: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})

	l := &DevModeListener{
		conn:    conn,
		reports: make(chan Report, buffer),
		done:    make(chan struct{}),
	}
	l.wg.Add(1)
	go l.listen()
	return l, nil
}

// Reports streams incoming pushes; the channel closes when the listener
// shuts down.
func (l *DevModeListener) Reports() <-chan Report { return l.reports }

// Close unsubscribes and stops listening.
func (l *DevModeListener) Close() error {
	select {
	case <-l.done:
		return nil
	default:
	}
	close(l.done)
	_, _ = l.conn.Write([]byte(`{"cmd":"unsubscribe"}`))
	err := l.conn.Close()
	l.wg.Wait()
	return err
}

func (l *DevModeListener) listen() {
	defer l.wg.Done()
	defer close(l.reports)
	buf := make([]byte, 4096)
	for {
		n, err := l.conn.Read(buf)
		if err != nil {
			return
		}
		var r Report
		if err := json.Unmarshal(buf[:n], &r); err != nil || (r.Cmd != "report" && r.Cmd != "heartbeat") {
			continue
		}
		select {
		case l.reports <- r:
		case <-l.done:
			return
		default:
			// Buffer full: drop the incoming report (UDP semantics).
		}
	}
}
