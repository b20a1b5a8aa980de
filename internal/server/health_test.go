package server

import (
	"net"
	"strings"
	"testing"
)

// TestHealthRoundTrip: the Pong payload survives its own codec,
// including the clamps (device counts beyond a byte, shard IDs beyond
// u16).
func TestHealthRoundTrip(t *testing.T) {
	roundTrip := func(h HealthInfo) HealthInfo {
		t.Helper()
		got, err := decodeHealth(encodeHealth(h))
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		return got
	}
	for _, h := range []HealthInfo{
		{},
		{Draining: true, ShardID: "shard-a", Devices: 4},
		{ShardID: "", Devices: 255},
		{Draining: true},
	} {
		if got := roundTrip(h); got != h {
			t.Errorf("round trip %+v -> %+v", h, got)
		}
	}
	// Clamps: 300 devices saturates at 255; a >64KiB shard ID truncates.
	if got := roundTrip(HealthInfo{Devices: 300}); got.Devices != 255 {
		t.Errorf("device clamp: got %d, want 255", got.Devices)
	}
	long := strings.Repeat("x", 70000)
	if got := roundTrip(HealthInfo{ShardID: long}); len(got.ShardID) != 65535 {
		t.Errorf("shard-id clamp: got %d bytes, want 65535", len(got.ShardID))
	}
}

// TestHealthMalformedPong: every daemon and router sends the full
// health payload, so a Pong whose payload is empty, truncated or of
// another health version makes Client.Health fail — the router's
// prober counts that as a strike.
func TestHealthMalformedPong(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated", []byte{healthVersion, 0, 1}},
		{"unknown-version", []byte{99, 0, 1, 0, 0}},
		{"shard-id-beyond-payload", []byte{healthVersion, 0, 1, 0xff, 0xff}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := pongServer(t, tc.payload)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if h, err := c.Health(); err == nil {
				t.Fatalf("Health accepted payload %v as %+v", tc.payload, h)
			}
		})
	}
}

// pongServer answers every frame on one connection with a Pong
// carrying payload.
func pongServer(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			f, err := DecodeFrame(conn, 0)
			if err != nil {
				return
			}
			if EncodeFrame(conn, &Frame{Type: MsgPong, ReqID: f.ReqID, Payload: payload}) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestHealthProbeLive: a live daemon answers the probe with its shard
// identity, drain state and device count; a zero-value Config runs,
// and reports, one device.
func TestHealthProbeLive(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want HealthInfo
	}{
		{Config{Devices: 2, ShardID: "shard-7"}, HealthInfo{ShardID: "shard-7", Devices: 2}},
		{Config{}, HealthInfo{Devices: 1}},
	} {
		c := dial(t, startServer(t, tc.cfg))
		h, err := c.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h != tc.want {
			t.Fatalf("%+v: health = %+v, want %+v", tc.cfg, h, tc.want)
		}
	}
}
