package miio

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyGateway is a raw UDP server speaking the encrypted protocol that
// deliberately drops the first `drops` method-call datagrams — the lossy
// vendor device the retry and deadline machinery exists for. Hellos are
// always answered so Dial succeeds.
type flakyGateway struct {
	conn  *net.UDPConn
	token Token
	drops int64
	seen  atomic.Int64
	wg    sync.WaitGroup
}

func startFlakyGateway(t *testing.T, drops int64) *flakyGateway {
	t.Helper()
	addr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	g := &flakyGateway{conn: conn, token: testToken, drops: drops}
	g.wg.Add(1)
	go g.serve()
	t.Cleanup(func() {
		_ = conn.Close()
		g.wg.Wait()
	})
	return g
}

func (g *flakyGateway) addr() string { return g.conn.LocalAddr().String() }

// dropped reports how many call datagrams were swallowed.
func (g *flakyGateway) dropped() int64 {
	n := g.seen.Load()
	if n > g.drops {
		return g.drops
	}
	return n
}

func (g *flakyGateway) serve() {
	defer g.wg.Done()
	buf := make([]byte, MaxPacketSize)
	for {
		n, remote, err := g.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		raw := buf[:n]
		if IsHello(raw) {
			_, _ = g.conn.WriteToUDP(EncodeHelloReply(0x77, 1), remote)
			continue
		}
		if g.seen.Add(1) <= g.drops {
			continue // the lossy network eats the datagram
		}
		pkt, err := Decode(raw, g.token)
		if err != nil {
			continue
		}
		var req Request
		if err := json.Unmarshal(pkt.Payload, &req); err != nil {
			continue
		}
		result, _ := json.Marshal("pong")
		payload, _ := json.Marshal(Response{ID: req.ID, Result: result})
		out, err := Encode(Packet{DeviceID: 0x77, Stamp: 1, Payload: payload}, g.token)
		if err != nil {
			continue
		}
		_, _ = g.conn.WriteToUDP(out, remote)
	}
}

// TestCallContextRetriesThroughDrops: one dropped datagram is absorbed by
// the retry loop and the call still succeeds.
func TestCallContextRetriesThroughDrops(t *testing.T) {
	g := startFlakyGateway(t, 1)
	c, err := Dial(g.addr(), testToken, WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	res, err := c.CallContext(context.Background(), "ping", nil)
	if err != nil {
		t.Fatalf("CallContext through a drop: %v", err)
	}
	var s string
	if err := json.Unmarshal(res, &s); err != nil || s != "pong" {
		t.Fatalf("result = %s, %v", res, err)
	}
	if g.dropped() != 1 {
		t.Errorf("dropped = %d, want 1", g.dropped())
	}
}

// TestCallContextHonoursDeadline: a context deadline bounds the whole call
// the same way, and surfaces as context.DeadlineExceeded.
func TestCallContextHonoursDeadline(t *testing.T) {
	g := startFlakyGateway(t, 1_000_000)
	c, err := Dial(g.addr(), testToken, WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.CallContext(ctx, "ping", nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > time.Second {
		t.Errorf("call ran %v despite an 80ms deadline", elapsed)
	}
}

// TestCallContextCancelled: a pre-cancelled context never touches the wire.
func TestCallContextCancelled(t *testing.T) {
	g := startFlakyGateway(t, 0)
	c, err := Dial(g.addr(), testToken, WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CallContext(ctx, "ping", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g.seen.Load() != 0 {
		t.Errorf("cancelled call sent %d datagrams", g.seen.Load())
	}
}

// TestCallDelegatesToContext: the legacy Call keeps working against the
// same machinery (background context).
func TestCallDelegatesToContext(t *testing.T) {
	g := startFlakyGateway(t, 0)
	c, err := Dial(g.addr(), testToken, WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call("ping", nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
}
