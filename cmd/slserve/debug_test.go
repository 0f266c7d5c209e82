package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// runTier runs serve (a tier's whole lifecycle) with -debug-addr set, and
// returns the debug listener's base URL once it answers. The tier drains
// when the test ends, and a failed drain fails the test.
func runTier(t *testing.T, serve func(context.Context) error) string {
	t.Helper()
	setFlag(t, rollover, false)
	setFlag(t, debugAddr, freeAddr(t))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	base := "http://" + *debugAddr
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/debug/pprof/")
		if err == nil {
			resp.Body.Close()
			return base
		}
		if i == 100 {
			t.Fatalf("debug listener never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// backendTier is a backend's lifecycle on a fresh listener.
func backendTier(t *testing.T) func(context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context) error { return serveLoop(ctx, newServer(4, 2, 0), ln) }
}

// TestBackendDebugListener: -debug-addr on a backend serves its registry's
// /metrics and the profiles, and the backend drains with it up.
func TestBackendDebugListener(t *testing.T) {
	checkDebugListener(t, runTier(t, backendTier(t)), "\nslserve_requests_total ")
}

// TestFrontendDebugListener: the same on the routing tier, with the
// frontend registry's /metrics.
func TestFrontendDebugListener(t *testing.T) {
	setFlag(t, addr, freeAddr(t))
	setFlag(t, backendsFlag, startWire(t, newServer(4, 2, 0).wire()).URL)
	checkDebugListener(t, runTier(t, runFrontend), "\ncluster_epoch ")
}

// checkDebugListener checks the debug listener at base: /metrics with the
// tier's sample metric, the pprof index, a gzipped CPU profile, the heap
// and goroutine profiles, and no /symbol. The client's keep-alive
// connections stay open into the tier's drain.
func checkDebugListener(t *testing.T, base, metric string) {
	t.Helper()
	if code, body := getText(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, metric) {
		t.Errorf("GET /metrics = %d without a %q sample", code, strings.TrimSpace(metric))
	}
	if code, body := getText(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("GET /debug/pprof/ = %d, %.80q; want the profile index", code, body)
	}
	for _, path := range []string{"/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
		if code, body := getText(t, base+path); code != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
			t.Errorf("GET %s = %d, %.16q; want a gzipped profile", path, code, body)
		}
	}
	if code, body := getText(t, base+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.HasPrefix(body, "goroutine profile:") {
		t.Errorf("GET /debug/pprof/goroutine?debug=1 = %d, %.40q; want the text profile", code, body)
	}
	if code, _ := getText(t, base+"/debug/pprof/symbol"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/symbol = %d, want 404", code)
	}
}

// TestDebugListenerRefusesBodies: the debug listener refuses a request
// body as the data listener does, with a 400 that closes the connection.
func TestDebugListenerRefusesBodies(t *testing.T) {
	base := runTier(t, backendTier(t))
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	body := bytes.Repeat([]byte("0x1+"), 1<<10)
	if _, err := c.Write(append([]byte("POST /debug/pprof/symbol HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\n\r\n"), body...)); err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(c) // to EOF: the server closes
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if !bytes.HasPrefix(answer, []byte("HTTP/1.1 400 Bad Request\r\n")) ||
		!bytes.Contains(answer, []byte("Connection: close")) ||
		!bytes.Contains(answer, []byte("request bodies are not accepted")) {
		t.Errorf("POST with a body answered %q; want a 400 refusal and a close", answer)
	}
}
