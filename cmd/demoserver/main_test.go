package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerBounded checks that the listener sets every connection
// timeout, so a client that stalls mid-header, mid-body, mid-response or
// between keep-alive requests cannot hold its connection forever.
func TestHTTPServerBounded(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("server wired to %q / %v", srv.Addr, srv.Handler)
	}
	for name, d := range map[string]int64{
		"ReadHeaderTimeout": int64(srv.ReadHeaderTimeout),
		"ReadTimeout":       int64(srv.ReadTimeout),
		"WriteTimeout":      int64(srv.WriteTimeout),
		"IdleTimeout":       int64(srv.IdleTimeout),
	} {
		if d <= 0 {
			t.Errorf("%s unset", name)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
