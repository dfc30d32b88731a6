package main

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestSlowClientDisconnected: a client that opens a connection and
// never finishes its request headers is closed by the server instead of
// holding the connection open.
func TestSlowClientDisconnected(t *testing.T) {
	srv := newHTTPServer("", serve.New(serve.Options{Workers: 1}).Handler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v idle %v write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	// Same server, with the header deadline shortened so the test does
	// not wait out the production bound.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/stats HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection; if it did not, this read
	// would block until the client-side deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with unfinished headers open")
	}
}
