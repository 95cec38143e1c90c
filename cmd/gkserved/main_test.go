package main

import (
	"net/http"
	"testing"
)

// The daemon's server must bound how long a connection may dribble its
// request headers and how long it may sit idle, or slow clients can hold
// connections open indefinitely.
func TestHTTPServerHasConnectionTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
}
