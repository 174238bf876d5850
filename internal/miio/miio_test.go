package miio

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"
)

var testToken = mustToken("00112233445566778899aabbccddeeff")

func mustToken(s string) Token {
	t, err := ParseToken(s)
	if err != nil {
		panic(err)
	}
	return t
}

func TestParseToken(t *testing.T) {
	tok, err := ParseToken("00112233445566778899aabbccddeeff")
	if err != nil {
		t.Fatalf("ParseToken: %v", err)
	}
	if tok.String() != "00112233445566778899aabbccddeeff" {
		t.Errorf("round trip = %q", tok.String())
	}
	if _, err := ParseToken("short"); err == nil {
		t.Error("want length error")
	}
	if _, err := ParseToken("zz112233445566778899aabbccddeeff"); err == nil {
		t.Error("want hex error")
	}
}

func TestCryptoRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte(`{"id":1,"method":"get_prop"}`),
		[]byte(""),
		bytes.Repeat([]byte{0xAB}, 16),   // exact block
		bytes.Repeat([]byte{0xCD}, 1000), // multi-block
	} {
		enc, err := encrypt(payload, testToken)
		if err != nil {
			t.Fatalf("encrypt: %v", err)
		}
		if len(enc)%16 != 0 || len(enc) == 0 {
			t.Fatalf("ciphertext length %d", len(enc))
		}
		dec, err := decrypt(enc, testToken)
		if err != nil {
			t.Fatalf("decrypt: %v", err)
		}
		if !bytes.Equal(dec, payload) {
			t.Fatalf("round trip mismatch: %d bytes vs %d", len(dec), len(payload))
		}
	}
}

func TestCryptoRoundTripProperty(t *testing.T) {
	f := func(payload []byte, tok Token) bool {
		enc, err := encrypt(payload, tok)
		if err != nil {
			return false
		}
		dec, err := decrypt(enc, tok)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecryptWrongTokenFails(t *testing.T) {
	enc, err := encrypt([]byte(`{"id":1}`), testToken)
	if err != nil {
		t.Fatal(err)
	}
	other := mustToken("ffeeddccbbaa99887766554433221100")
	if dec, err := decrypt(enc, other); err == nil && bytes.Equal(dec, []byte(`{"id":1}`)) {
		t.Error("wrong token decrypted to the original payload")
	}
}

func TestDecryptRejectsBadInput(t *testing.T) {
	if _, err := decrypt([]byte{1, 2, 3}, testToken); err == nil {
		t.Error("want block-size error")
	}
	if _, err := decrypt(nil, testToken); err == nil {
		t.Error("want empty error")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{DeviceID: 0x00ABCDEF, Stamp: 12345, Payload: []byte(`{"id":7,"method":"get_prop","params":["smoke"]}`)}
	raw, err := Encode(p, testToken)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Decode(raw, testToken)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.DeviceID != p.DeviceID || back.Stamp != p.Stamp || !bytes.Equal(back.Payload, p.Payload) {
		t.Errorf("round trip = %+v", back)
	}
}

func TestDecodeRejectsTampering(t *testing.T) {
	p := Packet{DeviceID: 1, Stamp: 2, Payload: []byte(`{"id":1}`)}
	raw, err := Encode(p, testToken)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("wrong token", func(t *testing.T) {
		other := mustToken("ffeeddccbbaa99887766554433221100")
		if _, err := Decode(raw, other); err == nil {
			t.Error("checksum must fail under the wrong token")
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		evil := append([]byte(nil), raw...)
		evil[len(evil)-1] ^= 0x01
		if _, err := Decode(evil, testToken); err == nil {
			t.Error("checksum must fail on payload tampering")
		}
	})
	t.Run("flipped header bit", func(t *testing.T) {
		evil := append([]byte(nil), raw...)
		evil[9] ^= 0x01 // device ID byte, covered by the checksum
		if _, err := Decode(evil, testToken); err == nil {
			t.Error("checksum must fail on header tampering")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Decode(raw[:10], testToken); err == nil {
			t.Error("want short-datagram error")
		}
		if _, err := Decode(raw[:len(raw)-4], testToken); err == nil {
			t.Error("want length-mismatch error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		evil := append([]byte(nil), raw...)
		evil[0] = 0x99
		if _, err := Decode(evil, testToken); err == nil {
			t.Error("want magic error")
		}
	})
}

func TestHelloPackets(t *testing.T) {
	hello := EncodeHello()
	if !IsHello(hello) {
		t.Fatal("EncodeHello not recognised by IsHello")
	}
	if IsHello(hello[:31]) || IsHello(append(hello, 0)) {
		t.Error("IsHello accepts wrong-size datagrams")
	}
	reply := EncodeHelloReply(0xDEADBEEF, 77)
	pkt, err := Decode(reply, testToken)
	if err != nil {
		t.Fatalf("Decode hello reply: %v", err)
	}
	if pkt.DeviceID != 0xDEADBEEF || pkt.Stamp != 77 || len(pkt.Payload) != 0 {
		t.Errorf("hello reply = %+v", pkt)
	}
}

// echoHandler returns the method and params back; "boom" fails.
type echoHandler struct{}

func (echoHandler) Handle(method string, params json.RawMessage) (any, error) {
	switch method {
	case "boom":
		return nil, errors.New("kaboom")
	case "rpc_boom":
		return nil, &RPCError{Code: -9, Message: "typed"}
	default:
		return map[string]any{"method": method, "params": string(params)}, nil
	}
}

func startGateway(t *testing.T) *Gateway {
	t.Helper()
	g, err := NewGateway(GatewayConfig{DeviceID: 0x1234, Token: testToken, Handler: echoHandler{}})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(func() { _ = g.Close() })
	return g
}

func TestGatewayClientEndToEnd(t *testing.T) {
	g := startGateway(t)
	c, err := Dial(g.Addr().String(), testToken, WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.deviceID != 0x1234 {
		t.Errorf("handshake device ID = %#x", c.deviceID)
	}
	res, err := c.Call("get_prop", []string{"smoke", "temperature"})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	var decoded map[string]string
	if err := json.Unmarshal(res, &decoded); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if decoded["method"] != "get_prop" {
		t.Errorf("result = %v", decoded)
	}
	// Sequential calls work and IDs advance.
	for i := 0; i < 5; i++ {
		if _, err := c.Call("ping", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestGatewayRPCErrors(t *testing.T) {
	g := startGateway(t)
	c, err := Dial(g.Addr().String(), testToken, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("boom", nil)
	var rpcErr *RPCError
	if !errors.As(err, &rpcErr) {
		t.Fatalf("want RPCError, got %v", err)
	}
	if rpcErr.Message != "kaboom" {
		t.Errorf("message = %q", rpcErr.Message)
	}
	_, err = c.Call("rpc_boom", nil)
	if !errors.As(err, &rpcErr) || rpcErr.Code != -9 {
		t.Errorf("typed rpc error lost: %v", err)
	}
}

func TestDialWrongTokenFails(t *testing.T) {
	g := startGateway(t)
	other := mustToken("ffeeddccbbaa99887766554433221100")
	// The hello reply decodes (it carries no encrypted payload), but the
	// first call must die: the gateway drops undecryptable datagrams.
	c, err := Dial(g.Addr().String(), other, WithTimeout(200*time.Millisecond))
	if err != nil {
		return // also acceptable: handshake failed outright
	}
	defer c.Close()
	if _, err := c.Call("get_prop", nil); err == nil {
		t.Error("call with wrong token should time out")
	}
}

func TestDialNoGateway(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", testToken, WithTimeout(100*time.Millisecond)); err == nil {
		t.Error("want handshake timeout")
	}
}

func TestClientClosed(t *testing.T) {
	g := startGateway(t)
	c, err := Dial(g.Addr().String(), testToken)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if _, err := c.Call("x", nil); err == nil {
		t.Error("call on closed client should fail")
	}
}

func TestGatewayRejectsGarbage(t *testing.T) {
	g := startGateway(t)
	// A client on the same socket keeps working after garbage arrives.
	c, err := Dial(g.Addr().String(), testToken, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Throw junk at the gateway from a separate socket.
	junkConn, err := net.Dial("udp", g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer junkConn.Close()
	for _, junk := range [][]byte{{0x01}, bytes.Repeat([]byte{0xFF}, 48), []byte("GET / HTTP/1.1")} {
		if _, err := junkConn.Write(junk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call("still_alive", nil); err != nil {
		t.Errorf("gateway died on garbage: %v", err)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{Token: testToken}); err == nil {
		t.Error("want handler error")
	}
	if _, err := NewGateway(GatewayConfig{Addr: "not-an-addr", Handler: echoHandler{}}); err == nil {
		t.Error("want address error")
	}
}

func TestRPCErrorString(t *testing.T) {
	e := &RPCError{Code: -1, Message: "x"}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(m string, _ json.RawMessage) (any, error) {
		return m, nil
	})
	res, err := h.Handle("hi", nil)
	if err != nil || res != "hi" {
		t.Errorf("HandlerFunc = %v, %v", res, err)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	big := Packet{Payload: bytes.Repeat([]byte{'x'}, MaxPacketSize)}
	if _, err := Encode(big, testToken); err == nil {
		t.Error("want size error")
	}
}
