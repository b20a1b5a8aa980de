package server

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/tensor"
)

// shedFirstDaemon is a fake daemon that answers the first operator
// request on its one connection with ErrOverloaded after 40 ms and every
// later one with a 1x1 result at once. It sends the deadline each
// request carried, in milliseconds, on the returned channel.
func shedFirstDaemon(t *testing.T) (addr string, deadlines <-chan uint32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	seen := make(chan uint32, 8)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for n := 0; ; n++ {
			f, err := DecodeFrame(conn, 0)
			if err != nil {
				return
			}
			seen <- binary.BigEndian.Uint32(f.Payload)
			reply := &Frame{Type: MsgError, ReqID: f.ReqID, Payload: encodeError(codeOverloaded, "shed")}
			if n == 0 {
				time.Sleep(40 * time.Millisecond)
			} else {
				wb := encodeMatrix(tensor.New(1, 1))
				reply = &Frame{Type: MsgResult, ReqID: f.ReqID, Payload: wb.Data}
			}
			if EncodeFrame(conn, reply) != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), seen
}

// TestClientDeadlineAcrossRetries: the client's deadline is one
// absolute budget across its retries. A retry carries only what is left
// of it, and once it is spent the client fails with ErrDeadlineExceeded
// without sending again.
func TestClientDeadlineAcrossRetries(t *testing.T) {
	a := tensor.New(4, 4)
	t.Run("spent", func(t *testing.T) {
		addr, seen := shedFirstDaemon(t)
		c, err := DialRetry(addr, RetryPolicy{Max: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Mean(a, &CallOpts{Deadline: 30 * time.Millisecond}); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("30 ms budget shed after 40 ms: got %v, want ErrDeadlineExceeded", err)
		}
		if got := <-seen; got != 30 {
			t.Fatalf("first attempt carried %d ms, want 30", got)
		}
		select {
		case got := <-seen:
			t.Fatalf("client resent with %d ms after its budget was spent", got)
		case <-time.After(20 * time.Millisecond):
		}
	})
	t.Run("rebased", func(t *testing.T) {
		addr, seen := shedFirstDaemon(t)
		c, err := DialRetry(addr, RetryPolicy{Max: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Mean(a, &CallOpts{Deadline: 100 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if first, second := <-seen, <-seen; first != 100 || second > 60 {
			t.Fatalf("attempts carried %d ms then %d ms, want 100 then at most 60", first, second)
		}
	})
}
